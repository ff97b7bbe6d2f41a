// Batched kernels of the regressor: the squared-distance block and the
// stationary-kernel correlation transform.
//
// Every correlation the regressor materializes (the cached correlation
// matrix, appended columns, K* rows during prediction) flows through one
// transform, so all paths produce bit-identical values for the same r². On
// x86-64/glibc it runs two lanes at a time through libmvec's vector exp;
// elsewhere it falls back to the scalar expressions. Either way the map is
// element-wise — no reductions — so vector width cannot change any
// summation order, and a given binary is deterministic run-to-run.
//
// Every non-ARD squared distance (the training-pair cache, an appended
// point's column, the acquisition's candidate block) flows through one
// distance kernel. Its lanes run over independent pairs, never over the
// coordinate sum, so every path produces the scalar loop's bits.
#pragma once

#include <cstddef>

#include "gp/kernel.hpp"

namespace stormtune::gp {

/// In-place map buf[i] = scale · g(buf[i]) where g is the unit-amplitude
/// correlation of `family` and buf holds already-scaled squared distances
/// r² = Σ((x_k−y_k)/l_k)². `scale` is amplitude² (or 1 for correlation
/// matrices).
void correlation_from_scaled_sq_batch(KernelFamily family, double scale,
                                      double* buf, std::size_t len);

/// Squared-distance block out[i·ldo + r] = Σ_k (a[i·lda + k] − b[k·ldb + r])²
/// for i < n, r < m. `a` holds one point per row (the training inputs), `b`
/// one point per column (queries stored coordinate-major), so the block
/// comes out training-major: row i holds training point i's distances to
/// every query. Each pair is the scalar loop's exact IEEE sequence —
/// subtract, multiply, add, k ascending from 0.0, no contraction.
void sq_dist_block(const double* a, std::size_t lda, std::size_t n,
                   const double* b, std::size_t ldb, std::size_t m,
                   std::size_t d, double* out, std::size_t ldo);

}  // namespace stormtune::gp
