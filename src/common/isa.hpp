// Runtime ISA path selection for the SIMD-dispatched kernels.
//
// The dense kernels (linalg/kernels.hpp rank-k row updates, gp/kernel_batch
// correlation transforms) exist in two lane widths: the portable path and
// AVX2. Exactly one path is active per process: resolved once, on first
// use, from the STORMTUNE_ISA environment variable ("portable", "avx2", or
// "auto"), defaulting to AVX2 when this binary compiled it in AND this CPU
// supports it. `select()` overrides the choice (test setup).
//
// Determinism contract: results are bitwise-reproducible per selected path.
// The portable path is the pre-dispatch behavior every golden test pins;
// the AVX2 path is element-wise maps and reduction-order-preserving
// updates, so it never reorders a summation, but its math-library lanes may
// round differently — hence goldens force kPortable and the agreement tests
// bound wide-vs-scalar divergence in ulps.
//
// The first resolution is thread-safe: concurrent first calls to
// `selected()` (campaign workers fitting GPs) resolve exactly once.
// `select()` is plain state: it runs in single-threaded test setup, never
// concurrently with kernel execution.
#pragma once

#include <cstddef>
#include <string_view>

namespace stormtune::isa {

enum class Path : unsigned char {
  kPortable = 0,  ///< scalar / baseline-x86-64 code, identical to pre-dispatch
  kAvx2 = 1,      ///< 4-lane double vectors (x86-64 AVX2)
};

inline constexpr std::size_t kNumPaths = 2;

const char* to_string(Path p);

/// Parse a path name ("portable", "avx2"). Returns false (out untouched)
/// for anything else, including "auto" — callers that accept "auto" handle
/// it before parsing.
bool parse(std::string_view name, Path& out);

/// True when this binary contains the kernels for `p` (compile-time).
bool compiled(Path p);

/// True when `p` is compiled in and the running CPU can execute it.
bool supported(Path p);

/// Widest supported path — what "auto" resolves to.
Path detect_best();

/// Resolution from the STORMTUNE_ISA environment variable: unset or "auto"
/// yields detect_best(); a named path yields that path when supported; an
/// unknown or unsupported name clamps to kPortable with a note on stderr
/// (an explicit request that cannot be honored must pin the portable path,
/// never silently pick a wide one).
Path from_environment();

/// The active path; resolved via from_environment() exactly once.
Path selected();

/// Override the active path (test setup). Unsupported requests clamp to
/// kPortable with a note on stderr. Returns the path actually selected.
Path select(Path p);

}  // namespace stormtune::isa
