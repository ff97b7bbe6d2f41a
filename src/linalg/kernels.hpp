// Low-level cache-aware building blocks for the dense factorization and
// triangular-solve kernels in matrix.cpp, behind a runtime ISA dispatch
// table (common/isa.hpp).
//
// Everything here is single-threaded and evaluates every floating-point
// reduction in one fixed order (k ascending, left-associated), independent
// of tile boundaries AND of the selected lane width: both implementations —
// portable scalar and AVX2 — subtract their four products left-to-right
// per element with separate multiply and subtract (no FMA contraction),
// which is the same sequence a scalar k-loop would produce.
// That is what lets the blocked Cholesky and the multi-RHS solves match the
// naive reference kernels element-for-element on every path, keeps GP fits
// reproducible run-to-run, and makes the AVX2 path bit-identical to the
// portable one (verified by tests/test_isa_dispatch.cpp).
#pragma once

#include <cstddef>

#include "common/isa.hpp"

namespace stormtune::linalg_kernels {

/// Columns processed per panel by the blocked right-looking Cholesky, and the
/// blocking width of the multi-RHS triangular solves. Measured on the target
/// workload (n ≤ ~200 observations): small panels win because the trailing
/// rank-k update then touches each destination row while it is still in L1;
/// 16 was fastest-or-tied against 8/32/48 at n ∈ {60, 120, 180}, and wide
/// panels (≥32) were consistently ~10–20% slower at n = 120.
inline constexpr std::size_t kPanelWidth = 16;

/// The kernel entry points one ISA path provides. The dispatch unit is a
/// whole block loop, not a row update: the row kernels run on a few dozen
/// elements and are called hundreds of times per factorization, so routing
/// each through a function pointer costs more than the wide lanes save
/// (measured ~40% of the n=60 refit loop in call dispatch). Call sites
/// fetch the table once per routine and pay one indirect call per panel or
/// per solve sweep; inside each ISA's translation unit the lane kernels
/// inline into the block loops (linalg/kernels_blocks.hpp).
struct KernelOps {
  /// c[0..len) -= a0*p0[j] + a1*p1[j] + a2*p2[j] + a3*p3[j], evaluated
  /// left-associated per element so the subtraction order equals four
  /// consecutive iterations of the scalar k-loop. This is the
  /// register-blocked rank-k micro-kernel; the four products per element
  /// break the single-accumulator dependency chain of the unblocked code.
  /// Exposed for the cross-path bit-identity sweep (test_isa_dispatch.cpp);
  /// hot paths go through the block entry points below.
  void (*rank4_row_update)(double* c, const double* p0, const double* p1,
                           const double* p2, const double* p3, double a0,
                           double a1, double a2, double a3, std::size_t len);
  /// c[0..len) -= a * p[j]; the remainder step of the rank-4 kernel.
  void (*rank1_row_update)(double* c, const double* p, double a,
                           std::size_t len);
  /// Trailing update of one Cholesky panel [k0, k1): rows [k1, n) of `lf`
  /// (leading dimension ld) lose the panel's contribution over their first
  /// i-k1+1 columns, panel columns read stride-1 from the mirror `ltf`.
  void (*cholesky_trailing_update)(double* lf, const double* ltf,
                                   std::size_t ld, std::size_t k0,
                                   std::size_t k1, std::size_t n);
  /// One Givens rotation applied across a factor row and the downdate
  /// carry vector: per element, t = c*lrow[j] + s*v[j];
  /// v[j] = c*v[j] - s*lrow[j]; lrow[j] = t — separate multiply/add/sub
  /// (no FMA) and elementwise-independent lanes, so every path produces
  /// the scalar sequence bit for bit. This is the inner sweep of
  /// Cholesky::remove_row: rotating the deleted row's column out of the
  /// trailing factor, one column (= one stride-1 mirror row) at a time.
  void (*givens_row_update)(double* lrow, double* v, double c, double s,
                            std::size_t len);
  /// Blocked forward substitution over an n×m row-major RHS block `v`
  /// (stride m), diagonal blocks of kPanelWidth columns.
  void (*solve_lower_multi)(const double* lf, std::size_t ld, double* v,
                            std::size_t m, std::size_t n);
  /// Bottom-up back substitution over an n×m row-major RHS block `v`,
  /// multipliers read stride-1 from the mirror `ltf`.
  void (*solve_lower_transpose_multi)(const double* ltf, std::size_t ld,
                                      double* v, std::size_t m,
                                      std::size_t n);
};

/// The table for the currently selected ISA path (isa::selected()).
const KernelOps& ops();

/// The table for a specific compiled-in path, or nullptr when this binary
/// does not contain it. Test hook: the exact-equality sweep drives every
/// compiled path against the portable one through this.
const KernelOps* ops_for(isa::Path path);

}  // namespace stormtune::linalg_kernels
