#include "common/isa.hpp"

#include <cstdio>
#include <cstdlib>

namespace stormtune::isa {

const char* to_string(Path p) {
  switch (p) {
    case Path::kPortable: return "portable";
    case Path::kAvx2: return "avx2";
  }
  return "unknown";
}

bool parse(std::string_view name, Path& out) {
  if (name == "portable") { out = Path::kPortable; return true; }
  if (name == "avx2") { out = Path::kAvx2; return true; }
  return false;
}

bool compiled(Path p) {
  switch (p) {
    case Path::kPortable:
      return true;
    case Path::kAvx2:
#ifdef STORMTUNE_HAVE_ISA_AVX2
      return true;
#else
      return false;
#endif
  }
  return false;
}

namespace {

bool cpu_supports(Path p) {
  switch (p) {
    case Path::kPortable:
      return true;
    case Path::kAvx2:
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const char* unsupported_reason(Path p) {
  return compiled(p) ? "is not supported by this CPU"
                     : "is not compiled into this build";
}

/// The process-wide selection. The function-local static makes the first
/// resolution thread-safe; afterwards only select() writes it.
Path& active() {
  static Path path = from_environment();
  return path;
}

}  // namespace

bool supported(Path p) { return compiled(p) && cpu_supports(p); }

Path detect_best() {
  return supported(Path::kAvx2) ? Path::kAvx2 : Path::kPortable;
}

Path from_environment() {
  const char* env = std::getenv("STORMTUNE_ISA");
  if (env == nullptr || std::string_view(env).empty() ||
      std::string_view(env) == "auto") {
    return detect_best();
  }
  Path p = Path::kPortable;
  if (!parse(env, p)) {
    std::fprintf(stderr,
                 "stormtune: STORMTUNE_ISA='%s' not recognized "
                 "(portable|avx2|auto); using portable\n",
                 env);
    return Path::kPortable;
  }
  if (!supported(p)) {
    std::fprintf(stderr, "stormtune: STORMTUNE_ISA=%s %s; using portable\n",
                 to_string(p), unsupported_reason(p));
    return Path::kPortable;
  }
  return p;
}

Path selected() { return active(); }

Path select(Path p) {
  if (!supported(p)) {
    std::fprintf(stderr, "stormtune: ISA path %s %s; using portable\n",
                 to_string(p), unsupported_reason(p));
    p = Path::kPortable;
  }
  active() = p;
  return p;
}

}  // namespace stormtune::isa
