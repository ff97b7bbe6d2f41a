// Internal: per-ISA entry points of the batched correlation transform and
// the squared-distance kernel.
//
// Public code uses gp/kernel_batch.hpp, which dispatches through
// isa::selected(). This header exists so the AVX2 translation unit
// (kernel_batch_avx2.cpp, compiled with -mavx2) and the agreement tests
// (which drive every compiled path explicitly, whatever the process-wide
// selection is) can name the paths directly.
#pragma once

#include <cstddef>

#include "common/isa.hpp"
#include "gp/kernel.hpp"

namespace stormtune::gp::detail {

/// In-place transform buf[i] = scale * g(buf[i]) — the batch counterpart of
/// Kernel::correlation_from_scaled_sq, one implementation per ISA path.
using TransformFn = void (*)(KernelFamily family, double scale, double* buf,
                             std::size_t len);

/// The pre-dispatch behavior: libmvec's 2-lane SSE exp on x86-64/glibc,
/// scalar expressions elsewhere. Golden tests pin this path.
void transform_portable(KernelFamily family, double scale, double* buf,
                        std::size_t len);

#ifdef STORMTUNE_HAVE_ISA_AVX2
void transform_avx2(KernelFamily family, double scale, double* buf,
                    std::size_t len);
#endif

/// The transform for a specific compiled-in path, or nullptr when this
/// binary does not contain it. Test hook for the per-path agreement sweep.
TransformFn transform_for(isa::Path path);

/// Squared-distance block (see gp::sq_dist_block), one implementation per
/// ISA path. Lanes run over independent (i, r) pairs, so every path is
/// bit-identical to the scalar loop.
using SqDistFn = void (*)(const double* a, std::size_t lda, std::size_t n,
                          const double* b, std::size_t ldb, std::size_t m,
                          std::size_t d, double* out, std::size_t ldo);

void sq_dist_portable(const double* a, std::size_t lda, std::size_t n,
                      const double* b, std::size_t ldb, std::size_t m,
                      std::size_t d, double* out, std::size_t ldo);

#ifdef STORMTUNE_HAVE_ISA_AVX2
void sq_dist_avx2(const double* a, std::size_t lda, std::size_t n,
                  const double* b, std::size_t ldb, std::size_t m,
                  std::size_t d, double* out, std::size_t ldo);
#endif

/// The distance kernel for a compiled-in path, or nullptr (test hook, like
/// transform_for).
SqDistFn sq_dist_for(isa::Path path);

}  // namespace stormtune::gp::detail
