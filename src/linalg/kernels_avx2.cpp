// AVX2 (4-lane) rank-update micro-kernels. Compiled with -mavx2 as its own
// translation unit; reached only through the dispatch table in kernels.cpp
// after a runtime CPU check (common/isa.hpp).
//
// Bit-identity with the portable path: each element is updated as
// ((((c - a0*p0) - a1*p1) - a2*p2) - a3*p3) with separate multiply and
// subtract — deliberately NOT vfmadd, whose single rounding would change
// the result — so per element the arithmetic sequence is exactly the scalar
// loop's. The vector lanes touch disjoint elements; no reduction crosses a
// lane, so lane width cannot reorder anything.
#ifdef STORMTUNE_HAVE_ISA_AVX2

#include <immintrin.h>

#include <cstddef>

#include "linalg/kernels.hpp"
#include "linalg/kernels_blocks.hpp"
#include "common/check.hpp"

namespace stormtune::linalg_kernels::avx2 {

// The lane kernels live in the anonymous namespace so they inline into both
// the exported row-update symbols (the test hooks) and the block loops
// below — an external symbol in the dispatch table would stay a real call
// per row, which is exactly the overhead the block entry points remove.
namespace {

inline void rank4_impl(double* c, const double* p0, const double* p1,
                       const double* p2, const double* p3, double a0,
                       double a1, double a2, double a3, std::size_t len) {
  const __m256d va0 = _mm256_set1_pd(a0);
  const __m256d va1 = _mm256_set1_pd(a1);
  const __m256d va2 = _mm256_set1_pd(a2);
  const __m256d va3 = _mm256_set1_pd(a3);
  std::size_t j = 0;
  for (; j + 4 <= len; j += 4) {
    __m256d x = _mm256_loadu_pd(c + j);
    x = _mm256_sub_pd(x, _mm256_mul_pd(va0, _mm256_loadu_pd(p0 + j)));
    x = _mm256_sub_pd(x, _mm256_mul_pd(va1, _mm256_loadu_pd(p1 + j)));
    x = _mm256_sub_pd(x, _mm256_mul_pd(va2, _mm256_loadu_pd(p2 + j)));
    x = _mm256_sub_pd(x, _mm256_mul_pd(va3, _mm256_loadu_pd(p3 + j)));
    _mm256_storeu_pd(c + j, x);
  }
  for (; j < len; ++j) {
    c[j] = c[j] - a0 * p0[j] - a1 * p1[j] - a2 * p2[j] - a3 * p3[j];
  }
}

inline void rank1_impl(double* c, const double* p, double a,
                       std::size_t len) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 4 <= len; j += 4) {
    const __m256d x = _mm256_sub_pd(
        _mm256_loadu_pd(c + j), _mm256_mul_pd(va, _mm256_loadu_pd(p + j)));
    _mm256_storeu_pd(c + j, x);
  }
  for (; j < len; ++j) c[j] -= a * p[j];
}

struct LaneOps {
  static void rank4(double* c, const double* p0, const double* p1,
                    const double* p2, const double* p3, double a0, double a1,
                    double a2, double a3, std::size_t len) {
    rank4_impl(c, p0, p1, p2, p3, a0, a1, a2, a3, len);
  }
  static void rank1(double* c, const double* p, double a, std::size_t len) {
    rank1_impl(c, p, a, len);
  }
};

}  // namespace

STORMTUNE_HOT void rank4_row_update(double* c, const double* p0, const double* p1,
                      const double* p2, const double* p3, double a0, double a1,
                      double a2, double a3, std::size_t len) {
  rank4_impl(c, p0, p1, p2, p3, a0, a1, a2, a3, len);
}

STORMTUNE_HOT void rank1_row_update(double* c, const double* p, double a, std::size_t len) {
  rank1_impl(c, p, a, len);
}

// Givens rotation across a factor row and the downdate carry vector: both
// products per output evaluated with separate mul/add/sub (no vfmadd),
// lanes touch disjoint elements, so the sequence per element is exactly
// the portable loop's.
STORMTUNE_HOT void givens_row_update(double* lrow, double* v, double c, double s,
                       std::size_t len) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t j = 0;
  for (; j + 4 <= len; j += 4) {
    const __m256d l = _mm256_loadu_pd(lrow + j);
    const __m256d w = _mm256_loadu_pd(v + j);
    const __m256d t = _mm256_add_pd(_mm256_mul_pd(vc, l), _mm256_mul_pd(vs, w));
    const __m256d nw =
        _mm256_sub_pd(_mm256_mul_pd(vc, w), _mm256_mul_pd(vs, l));
    _mm256_storeu_pd(v + j, nw);
    _mm256_storeu_pd(lrow + j, t);
  }
  for (; j < len; ++j) {
    const double t = c * lrow[j] + s * v[j];
    v[j] = c * v[j] - s * lrow[j];
    lrow[j] = t;
  }
}

// Block-level entry points: one indirect call per panel / solve sweep, the
// lane kernels inlined into the loops (see kernels_blocks.hpp).
STORMTUNE_HOT void cholesky_trailing_update(double* lf, const double* ltf, std::size_t ld,
                              std::size_t k0, std::size_t k1, std::size_t n) {
  detail::cholesky_trailing_update<LaneOps>(lf, ltf, ld, k0, k1, n);
}

STORMTUNE_HOT void solve_lower_multi(const double* lf, std::size_t ld, double* v,
                       std::size_t m, std::size_t n) {
  detail::solve_lower_multi<LaneOps>(lf, ld, v, m, n, kPanelWidth);
}

STORMTUNE_HOT void solve_lower_transpose_multi(const double* ltf, std::size_t ld, double* v,
                                 std::size_t m, std::size_t n) {
  detail::solve_lower_transpose_multi<LaneOps>(ltf, ld, v, m, n);
}

}  // namespace stormtune::linalg_kernels::avx2

#endif  // STORMTUNE_HAVE_ISA_AVX2
