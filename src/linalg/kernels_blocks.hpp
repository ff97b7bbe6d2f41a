// Internal: block-level loop bodies shared by both ISA translation units.
//
// The rank-4/rank-1 row updates are too small to sit behind an indirect
// call: the blocked Cholesky at this library's problem sizes (n ≤ ~200,
// trailing rows of a few dozen elements) makes hundreds of them per
// factorization, and the call overhead erases the AVX2 path's gains — the
// slice-sampling refit loop spends ~40% of its time in call dispatch when
// the row kernels are the dispatch unit. So the dispatch unit is the whole
// block loop instead: kernels.cpp and kernels_avx2.cpp each instantiate
// these templates with their own lane kernels (same TU, so they inline)
// and export one function per routine, and matrix.cpp pays one indirect
// call per panel or per solve sweep.
//
// Bit-identity: these are the exact loop structures matrix.cpp used to run
// inline — per element every subtraction still happens in ascending-k order,
// left-associated, and the divide-to-reciprocal trick is unchanged. Moving
// the loops across the call boundary changes nothing arithmetic. The TUs
// that include this header are compiled with -ffp-contract=off, so the
// scalar tails and the scaling loops cannot be contracted either.
#pragma once

#include <cstddef>

namespace stormtune::linalg_kernels::detail {

/// Trailing update of one factorization panel [k0, k1): every row i in
/// [k1, n) of the lower factor `lf` (leading dimension `ld`) loses the
/// panel's rank-(k1-k0) contribution over its first i-k1+1 trailing
/// columns, reading the panel columns stride-1 from the transposed mirror
/// `ltf`. Four k's at a time through the rank-4 lane kernel, remainder
/// through rank-1 — ascending k, identical to the scalar k-loop.
template <typename LaneOps>
inline void cholesky_trailing_update(double* lf, const double* ltf,
                                     std::size_t ld, std::size_t k0,
                                     std::size_t k1, std::size_t n) {
  for (std::size_t i = k1; i < n; ++i) {
    double* ci = lf + i * ld;
    const std::size_t len = i - k1 + 1;
    std::size_t k = k0;
    for (; k + 4 <= k1; k += 4) {
      LaneOps::rank4(ci + k1, ltf + k * ld + k1, ltf + (k + 1) * ld + k1,
                     ltf + (k + 2) * ld + k1, ltf + (k + 3) * ld + k1, ci[k],
                     ci[k + 1], ci[k + 2], ci[k + 3], len);
    }
    for (; k < k1; ++k) {
      LaneOps::rank1(ci + k1, ltf + k * ld + k1, ci[k], len);
    }
  }
}

/// Blocked forward substitution L y = b for an n×m right-hand-side block
/// `v` (row-major, stride m): finalize the rows of one diagonal block of
/// `panel` columns, then push that block's contribution into every row
/// below while its v rows are hot. Per column of v the subtraction order
/// is k ascending — identical to the scalar solve.
template <typename LaneOps>
inline void solve_lower_multi(const double* lf, std::size_t ld, double* v,
                              std::size_t m, std::size_t n,
                              std::size_t panel) {
  for (std::size_t k0 = 0; k0 < n; k0 += panel) {
    const std::size_t k1 = k0 + panel < n ? k0 + panel : n;
    for (std::size_t i = k0; i < k1; ++i) {
      double* vi = v + i * m;
      const double* li = lf + i * ld;
      std::size_t k = k0;
      for (; k + 4 <= i; k += 4) {
        LaneOps::rank4(vi, v + k * m, v + (k + 1) * m, v + (k + 2) * m,
                       v + (k + 3) * m, li[k], li[k + 1], li[k + 2],
                       li[k + 3], m);
      }
      for (; k < i; ++k) LaneOps::rank1(vi, v + k * m, li[k], m);
      const double inv_lii = 1.0 / li[i];
      for (std::size_t r = 0; r < m; ++r) vi[r] *= inv_lii;
    }
    for (std::size_t i = k1; i < n; ++i) {
      double* vi = v + i * m;
      const double* li = lf + i * ld;
      std::size_t k = k0;
      for (; k + 4 <= k1; k += 4) {
        LaneOps::rank4(vi, v + k * m, v + (k + 1) * m, v + (k + 2) * m,
                       v + (k + 3) * m, li[k], li[k + 1], li[k + 2],
                       li[k + 3], m);
      }
      for (; k < k1; ++k) LaneOps::rank1(vi, v + k * m, li[k], m);
    }
  }
}

/// Bottom-up back substitution Lᵀ x = y for an n×m block `v` (row-major,
/// stride m). The multipliers Lᵀ(i, k) = L(k, i) come from row i of the
/// transposed mirror `ltf`, stride-1 in k.
template <typename LaneOps>
inline void solve_lower_transpose_multi(const double* ltf, std::size_t ld,
                                        double* v, std::size_t m,
                                        std::size_t n) {
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double* vi = v + i * m;
    const double* lti = ltf + i * ld;
    std::size_t k = i + 1;
    for (; k + 4 <= n; k += 4) {
      LaneOps::rank4(vi, v + k * m, v + (k + 1) * m, v + (k + 2) * m,
                     v + (k + 3) * m, lti[k], lti[k + 1], lti[k + 2],
                     lti[k + 3], m);
    }
    for (; k < n; ++k) LaneOps::rank1(vi, v + k * m, lti[k], m);
    const double inv_lii = 1.0 / lti[i];
    for (std::size_t r = 0; r < m; ++r) vi[r] *= inv_lii;
  }
}

}  // namespace stormtune::linalg_kernels::detail
