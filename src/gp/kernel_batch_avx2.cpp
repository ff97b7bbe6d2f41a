// AVX2 (4-lane) paths of the batched kernels: the correlation transform,
// built around libmvec's 4-lane vector exp, and the squared-distance
// block. Compiled with -mavx2 as its own translation unit; reached only
// through the dispatch tables in kernel_batch.cpp after a runtime CPU check
// (common/isa.hpp).
//
// The transform's operation sequence per element is the scalar reference's
// (sqrt, negate, exp, left-associated polynomial); only the exp
// implementation differs, and libmvec specifies it within a few ulp of
// correctly rounded. The transform is an element-wise map — lanes never
// interact — so lane width cannot reorder any reduction; the tail (len mod
// 4) runs through a padded full vector whose surplus lanes are discarded,
// which libmvec's lane independence makes bit-identical to any other
// grouping.
//
// Wide vector exp needs glibc's libmvec; on other x86-64 C libraries the
// transform degrades to the portable one (still a correct, deterministic
// AVX2-selected binary — the selection names a dispatch path, not an
// instruction guarantee for this TU). The distance block needs no libm and
// is the same everywhere.
#ifdef STORMTUNE_HAVE_ISA_AVX2

#include <immintrin.h>

#include "common/check.hpp"
#include "gp/kernel_batch_paths.hpp"

namespace stormtune::gp::detail {

namespace {

/// Rows [0, R) of `a` against the 4·C queries starting at `b`: R·C
/// accumulators, each lane one (i, r) pair summing its terms in ascending
/// k — the scalar loop's sequence, four pairs per instruction.
template <std::size_t R, std::size_t C>
inline void sq_dist_tile(const double* a, std::size_t lda, const double* b,
                         std::size_t ldb, std::size_t d, double* out,
                         std::size_t ldo) {
  __m256d acc[R][C];
  for (std::size_t p = 0; p < R; ++p) {
    for (std::size_t c = 0; c < C; ++c) acc[p][c] = _mm256_setzero_pd();
  }
  for (std::size_t k = 0; k < d; ++k) {
    const double* bk = b + k * ldb;
    __m256d q[C];
    for (std::size_t c = 0; c < C; ++c) q[c] = _mm256_loadu_pd(bk + 4 * c);
    for (std::size_t p = 0; p < R; ++p) {
      const __m256d x = _mm256_broadcast_sd(a + p * lda + k);
      for (std::size_t c = 0; c < C; ++c) {
        const __m256d diff = _mm256_sub_pd(x, q[c]);
        acc[p][c] = _mm256_add_pd(acc[p][c], _mm256_mul_pd(diff, diff));
      }
    }
  }
  for (std::size_t p = 0; p < R; ++p) {
    for (std::size_t c = 0; c < C; ++c) {
      _mm256_storeu_pd(out + p * ldo + 4 * c, acc[p][c]);
    }
  }
}

/// Rows [0, R) of `a` against all m queries: 8-query tiles, then one
/// 4-query tile, then the last m mod 4 queries one scalar pair at a time.
template <std::size_t R>
inline void sq_dist_rows(const double* a, std::size_t lda, const double* b,
                         std::size_t ldb, std::size_t m, std::size_t d,
                         double* out, std::size_t ldo) {
  std::size_t r = 0;
  for (; r + 8 <= m; r += 8) {
    sq_dist_tile<R, 2>(a, lda, b + r, ldb, d, out + r, ldo);
  }
  for (; r + 4 <= m; r += 4) {
    sq_dist_tile<R, 1>(a, lda, b + r, ldb, d, out + r, ldo);
  }
  for (; r < m; ++r) {
    for (std::size_t p = 0; p < R; ++p) {
      double s = 0.0;
      for (std::size_t k = 0; k < d; ++k) {
        const double diff = a[p * lda + k] - b[k * ldb + r];
        s += diff * diff;
      }
      out[p * ldo + r] = s;
    }
  }
}

}  // namespace

// Four training rows per pass share each query load: 8 independent
// accumulators hide the add latency (the measured best of 1×16, 2×8 and
// 4×8 tiles on a 60 × 512, d = 51 block).
STORMTUNE_HOT void sq_dist_avx2(const double* a, std::size_t lda,
                                std::size_t n, const double* b,
                                std::size_t ldb, std::size_t m, std::size_t d,
                                double* out, std::size_t ldo) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    sq_dist_rows<4>(a + i * lda, lda, b, ldb, m, d, out + i * ldo, ldo);
  }
  for (; i < n; ++i) {
    sq_dist_rows<1>(a + i * lda, lda, b, ldb, m, d, out + i * ldo, ldo);
  }
}

}  // namespace stormtune::gp::detail

#if defined(__x86_64__) && defined(__GLIBC__)

// libmvec's 4-lane AVX2 vector exp ('d' ABI mangling), linked AS_NEEDED
// through the libm linker script like the 2-lane symbol.
extern "C" __m256d _ZGVdN4v_exp(__m256d);

namespace stormtune::gp::detail {

namespace {

inline __m256d quad_sqexp(__m256d r2, __m256d scale) {
  const __m256d e = _ZGVdN4v_exp(_mm256_mul_pd(_mm256_set1_pd(-0.5), r2));
  return _mm256_mul_pd(scale, e);
}

inline __m256d quad_matern32(__m256d r2, __m256d scale) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sr = _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(3.0), r2));
  const __m256d e = _ZGVdN4v_exp(_mm256_sub_pd(_mm256_setzero_pd(), sr));
  return _mm256_mul_pd(scale, _mm256_mul_pd(_mm256_add_pd(one, sr), e));
}

inline __m256d quad_matern52(__m256d r2, __m256d scale) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sr = _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(5.0), r2));
  const __m256d e = _ZGVdN4v_exp(_mm256_sub_pd(_mm256_setzero_pd(), sr));
  const __m256d poly = _mm256_add_pd(
      _mm256_add_pd(one, sr),
      _mm256_div_pd(_mm256_mul_pd(sr, sr), _mm256_set1_pd(3.0)));
  return _mm256_mul_pd(scale, _mm256_mul_pd(poly, e));
}

template <__m256d (*Quad)(__m256d, __m256d)>
void run(double scale, double* buf, std::size_t len) {
  const __m256d vscale = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    _mm256_storeu_pd(buf + i, Quad(_mm256_loadu_pd(buf + i), vscale));
  }
  if (i < len) {
    // Tail: pad a full vector with copies of the last element (any
    // in-domain value works — the surplus lanes are discarded, and lane
    // independence keeps the kept lanes' bits grouping-invariant).
    const std::size_t rem = len - i;
    double tmp[4];
    for (std::size_t k = 0; k < 4; ++k) {
      tmp[k] = buf[i + (k < rem ? k : rem - 1)];
    }
    const __m256d g = Quad(_mm256_loadu_pd(tmp), vscale);
    _mm256_storeu_pd(tmp, g);
    for (std::size_t k = 0; k < rem; ++k) buf[i + k] = tmp[k];
  }
}

}  // namespace

STORMTUNE_HOT void transform_avx2(KernelFamily family, double scale, double* buf,
                    std::size_t len) {
  switch (family) {
    case KernelFamily::kSquaredExponential:
      run<quad_sqexp>(scale, buf, len);
      return;
    case KernelFamily::kMatern32:
      run<quad_matern32>(scale, buf, len);
      return;
    case KernelFamily::kMatern52:
      run<quad_matern52>(scale, buf, len);
      return;
  }
}

}  // namespace stormtune::gp::detail

#else  // no glibc libmvec: degrade to the portable transform

namespace stormtune::gp::detail {

STORMTUNE_HOT void transform_avx2(KernelFamily family, double scale, double* buf,
                    std::size_t len) {
  transform_portable(family, scale, buf, len);
}

}  // namespace stormtune::gp::detail

#endif

#endif  // STORMTUNE_HAVE_ISA_AVX2
