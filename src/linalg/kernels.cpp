// Portable micro-kernels and the ISA dispatch table.
//
// The portable implementations are the pre-dispatch scalar loops (the
// compiler auto-vectorizes them at the baseline target width); the AVX2
// implementations live in kernels_avx2.cpp, compiled as its own translation
// unit with -mavx2 so the rest of the library never emits instructions the
// baseline target lacks.
#include "linalg/kernels.hpp"

#include "linalg/kernels_blocks.hpp"
#include "common/check.hpp"

namespace stormtune::linalg_kernels {

namespace portable {

// Anonymous-namespace lane kernels inline into both the exported row-update
// symbols (test hooks) and the block loops below; see kernels_avx2.cpp.
namespace {

inline void rank4_impl(double* __restrict__ c, const double* __restrict__ p0,
                       const double* __restrict__ p1,
                       const double* __restrict__ p2,
                       const double* __restrict__ p3, double a0, double a1,
                       double a2, double a3, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) {
    c[j] = c[j] - a0 * p0[j] - a1 * p1[j] - a2 * p2[j] - a3 * p3[j];
  }
}

inline void rank1_impl(double* __restrict__ c, const double* __restrict__ p,
                       double a, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) c[j] -= a * p[j];
}

inline void givens_impl(double* __restrict__ lrow, double* __restrict__ v,
                        double c, double s, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) {
    const double t = c * lrow[j] + s * v[j];
    v[j] = c * v[j] - s * lrow[j];
    lrow[j] = t;
  }
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

STORMTUNE_HOT void rank4_row_update(double* __restrict__ c, const double* __restrict__ p0,
                      const double* __restrict__ p1,
                      const double* __restrict__ p2,
                      const double* __restrict__ p3, double a0, double a1,
                      double a2, double a3, std::size_t len) {
  rank4_impl(c, p0, p1, p2, p3, a0, a1, a2, a3, len);
}

STORMTUNE_HOT void rank1_row_update(double* __restrict__ c, const double* __restrict__ p,
                      double a, std::size_t len) {
  rank1_impl(c, p, a, len);
}

STORMTUNE_HOT void cholesky_trailing_update(double* lf, const double* ltf, std::size_t ld,
                              std::size_t k0, std::size_t k1, std::size_t n) {
  detail::cholesky_trailing_update<LaneOps>(lf, ltf, ld, k0, k1, n);
}

STORMTUNE_HOT void givens_row_update(double* __restrict__ lrow, double* __restrict__ v,
                       double c, double s, std::size_t len) {
  givens_impl(lrow, v, c, s, len);
}

STORMTUNE_HOT void solve_lower_multi(const double* lf, std::size_t ld, double* v,
                       std::size_t m, std::size_t n) {
  detail::solve_lower_multi<LaneOps>(lf, ld, v, m, n, kPanelWidth);
}

STORMTUNE_HOT void solve_lower_transpose_multi(const double* ltf, std::size_t ld, double* v,
                                 std::size_t m, std::size_t n) {
  detail::solve_lower_transpose_multi<LaneOps>(ltf, ld, v, m, n);
}

}  // namespace portable

#ifdef STORMTUNE_HAVE_ISA_AVX2
namespace avx2 {
STORMTUNE_HOT void rank4_row_update(double* c, const double* p0, const double* p1,
                      const double* p2, const double* p3, double a0, double a1,
                      double a2, double a3, std::size_t len);
STORMTUNE_HOT void rank1_row_update(double* c, const double* p, double a, std::size_t len);
STORMTUNE_HOT void cholesky_trailing_update(double* lf, const double* ltf, std::size_t ld,
                              std::size_t k0, std::size_t k1, std::size_t n);
STORMTUNE_HOT void givens_row_update(double* lrow, double* v, double c, double s,
                       std::size_t len);
STORMTUNE_HOT void solve_lower_multi(const double* lf, std::size_t ld, double* v,
                       std::size_t m, std::size_t n);
STORMTUNE_HOT void solve_lower_transpose_multi(const double* ltf, std::size_t ld, double* v,
                                 std::size_t m, std::size_t n);
}  // namespace avx2
#endif

namespace {

constexpr KernelOps kPortableOps{portable::rank4_row_update,
                                 portable::rank1_row_update,
                                 portable::cholesky_trailing_update,
                                 portable::givens_row_update,
                                 portable::solve_lower_multi,
                                 portable::solve_lower_transpose_multi};
#ifdef STORMTUNE_HAVE_ISA_AVX2
constexpr KernelOps kAvx2Ops{avx2::rank4_row_update, avx2::rank1_row_update,
                             avx2::cholesky_trailing_update,
                             avx2::givens_row_update,
                             avx2::solve_lower_multi,
                             avx2::solve_lower_transpose_multi};
#endif

}  // namespace

STORMTUNE_HOT const KernelOps* ops_for(isa::Path path) {
  switch (path) {
    case isa::Path::kPortable:
      return &kPortableOps;
    case isa::Path::kAvx2:
#ifdef STORMTUNE_HAVE_ISA_AVX2
      return &kAvx2Ops;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

STORMTUNE_HOT const KernelOps& ops() {
  const KernelOps* t = ops_for(isa::selected());
  return t != nullptr ? *t : kPortableOps;
}

}  // namespace stormtune::linalg_kernels
