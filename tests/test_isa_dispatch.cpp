// Agreement and override tests for the runtime ISA dispatch layer.
//
// Three properties are pinned here:
//
//  1. The linalg micro-kernels (rank-4/rank-1 row updates) are BITWISE
//     identical across both paths: each lane evaluates the same
//     left-associated multiply/subtract sequence, and the TUs are built
//     with -ffp-contract=off, so lane width cannot change a single bit.
//
//  2. The batched correlation transforms are element-wise maps whose only
//     divergence is the math library's vector exp: libmvec documents ≤4 ulp
//     for the _ZGV* entry points. Measured end-to-end divergence against
//     the scalar expressions on this machine is 4 ulp (sqexp) and 5 ulp
//     (matern32/52, where the ulp error of exp is amplified by the
//     polynomial factor); the sweep asserts ≤ 8 ulp to leave headroom for
//     other libm builds while still catching any real algorithmic drift.
//
//  3. The squared-distance kernel is BITWISE identical to the scalar loop
//     on every path: its lanes run over independent pairs, never over the
//     coordinate sum, and each pair is the same subtract/multiply/add
//     sequence in ascending k.
//
//  4. The portable path is exactly the pre-dispatch behavior, so the
//     end-to-end suggest() golden below — captured BEFORE the fused batched
//     scoring rework — must still match bit-for-bit with the portable path
//     pinned. This is the proof that neither the dispatch layer nor the
//     fused scoring changed the optimizer's arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bayesopt/bayesopt.hpp"
#include "common/isa.hpp"
#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"
#include "gp/kernel_batch.hpp"
#include "gp/kernel_batch_paths.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace stormtune {
namespace {

namespace lk = linalg_kernels;

/// Pin the runtime ISA selection for the duration of a test and restore it
/// afterwards (same guard as test_gp_golden.cpp).
class ScopedIsa {
 public:
  explicit ScopedIsa(isa::Path path) : prev_(isa::selected()) {
    isa::select(path);
  }
  ~ScopedIsa() { isa::select(prev_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  isa::Path prev_;
};

/// Distance in representable doubles between two finite same-sign values.
std::uint64_t ulp_diff(double a, double b) {
  auto ordered = [](double v) -> std::int64_t {
    const auto bits = std::bit_cast<std::int64_t>(v);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t oa = ordered(a), ob = ordered(b);
  return oa > ob ? static_cast<std::uint64_t>(oa - ob)
                 : static_cast<std::uint64_t>(ob - oa);
}

/// Every path whose kernels are compiled into this binary AND executable on
/// this CPU. Always contains kPortable.
std::vector<isa::Path> runnable_paths() {
  std::vector<isa::Path> paths;
  for (std::size_t i = 0; i < isa::kNumPaths; ++i) {
    const auto p = static_cast<isa::Path>(i);
    if (isa::compiled(p) && isa::supported(p)) paths.push_back(p);
  }
  return paths;
}

TEST(IsaDispatch, ParseAndToStringRoundTrip) {
  for (std::size_t i = 0; i < isa::kNumPaths; ++i) {
    const auto p = static_cast<isa::Path>(i);
    isa::Path parsed;
    ASSERT_TRUE(isa::parse(isa::to_string(p), parsed)) << isa::to_string(p);
    EXPECT_EQ(parsed, p);
  }
  isa::Path out;
  EXPECT_FALSE(isa::parse("auto", out));  // callers resolve "auto" themselves
  EXPECT_FALSE(isa::parse("", out));
  EXPECT_FALSE(isa::parse("sse9", out));
  // Paths this project no longer has are unknown names, not aliases.
  EXPECT_FALSE(isa::parse("avx512", out));
  EXPECT_FALSE(isa::parse("neon", out));
}

TEST(IsaDispatch, PortableAlwaysRunnable) {
  EXPECT_TRUE(isa::compiled(isa::Path::kPortable));
  EXPECT_TRUE(isa::supported(isa::Path::kPortable));
  EXPECT_NE(lk::ops_for(isa::Path::kPortable), nullptr);
  EXPECT_NE(gp::detail::transform_for(isa::Path::kPortable), nullptr);
  // detect_best() must always land on something this process can run.
  EXPECT_TRUE(isa::supported(isa::detect_best()));
}

TEST(IsaDispatch, SelectClampsUnsupportedToPortable) {
  const ScopedIsa restore(isa::selected());
  for (std::size_t i = 0; i < isa::kNumPaths; ++i) {
    const auto p = static_cast<isa::Path>(i);
    const isa::Path got = isa::select(p);
    if (isa::supported(p)) {
      EXPECT_EQ(got, p);
    } else {
      EXPECT_EQ(got, isa::Path::kPortable);
    }
    EXPECT_EQ(isa::selected(), got);
  }
}

TEST(IsaDispatch, EnvironmentOverrideHonored) {
  const char* old = std::getenv("STORMTUNE_ISA");
  const std::string saved = old ? old : "";
  ASSERT_EQ(setenv("STORMTUNE_ISA", "portable", 1), 0);
  EXPECT_EQ(isa::from_environment(), isa::Path::kPortable);
  ASSERT_EQ(setenv("STORMTUNE_ISA", "auto", 1), 0);
  EXPECT_EQ(isa::from_environment(), isa::detect_best());
  // An explicit request that cannot be honored pins portable, never a
  // silently substituted wide path.
  ASSERT_EQ(setenv("STORMTUNE_ISA", "no-such-isa", 1), 0);
  EXPECT_EQ(isa::from_environment(), isa::Path::kPortable);
  // A removed path name is such a request: it clamps with a note.
  ASSERT_EQ(setenv("STORMTUNE_ISA", "avx512", 1), 0);
  testing::internal::CaptureStderr();
  EXPECT_EQ(isa::from_environment(), isa::Path::kPortable);
  const std::string note = testing::internal::GetCapturedStderr();
  EXPECT_NE(note.find("STORMTUNE_ISA='avx512' not recognized"),
            std::string::npos)
      << note;
  if (old) {
    setenv("STORMTUNE_ISA", saved.c_str(), 1);
  } else {
    unsetenv("STORMTUNE_ISA");
  }
}

// Property sweep: every runnable transform path, every kernel family,
// random r² buffers at every vector-tail length 24..31 (every remainder of
// the 4-lane AVX2 path, twice over) plus the tiny lengths that never fill
// one vector.
TEST(IsaDispatch, TransformAgreesWithScalarReference) {
  const double scale = 1.7;
  const gp::KernelFamily families[] = {gp::KernelFamily::kSquaredExponential,
                                       gp::KernelFamily::kMatern32,
                                       gp::KernelFamily::kMatern52};
  std::vector<std::size_t> lengths = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  for (std::size_t tail = 0; tail < 8; ++tail) lengths.push_back(24 + tail);

  for (const isa::Path path : runnable_paths()) {
    const gp::detail::TransformFn fn = gp::detail::transform_for(path);
    ASSERT_NE(fn, nullptr) << isa::to_string(path);
    Rng rng(2015);
    for (const gp::KernelFamily family : families) {
      gp::Kernel reference(family, 1, false);
      for (const std::size_t len : lengths) {
        std::vector<double> buf(len);
        for (double& v : buf) v = 25.0 * rng.uniform();  // r² ≥ 0
        std::vector<double> expected = buf;
        for (double& v : expected) {
          v = scale * reference.correlation_from_scaled_sq(v);
        }
        fn(family, scale, buf.data(), len);
        for (std::size_t i = 0; i < len; ++i) {
          EXPECT_LE(ulp_diff(buf[i], expected[i]), 8u)
              << isa::to_string(path) << " family "
              << static_cast<int>(family) << " len " << len << " elem " << i
              << ": " << buf[i] << " vs " << expected[i];
        }
      }
    }
  }
}

/// The scalar loop every distance path must reproduce bit for bit:
/// Σ_k (a_ik − b_kr)², k ascending from 0.0.
double scalar_sq_dist(const double* a, const double* b, std::size_t ldb,
                      std::size_t r, std::size_t d) {
  double s = 0.0;
  for (std::size_t k = 0; k < d; ++k) {
    const double diff = a[k] - b[k * ldb + r];
    s += diff * diff;
  }
  return s;
}

// Shapes that fill no lane, part of one, and many with ragged tails, with
// padded strides; the padding must come back untouched.
TEST(IsaDispatch, SqDistBlockBitIdenticalToScalarLoop) {
  constexpr double kSentinel = -7.25;
  for (const isa::Path path : runnable_paths()) {
    const gp::detail::SqDistFn fn = gp::detail::sq_dist_for(path);
    ASSERT_NE(fn, nullptr) << isa::to_string(path);
    Rng rng(51);
    for (const std::size_t n : {1ul, 7ul, 61ul}) {
      for (const std::size_t m : {1ul, 3ul, 102ul, 512ul}) {
        for (const std::size_t d : {1ul, 51ul}) {
          const std::size_t lda = d + 3, ldb = m + 5, ldo = m + 2;
          std::vector<double> a(n * lda), b(d * ldb);
          for (double& v : a) v = rng.uniform(-2.0, 2.0);
          for (double& v : b) v = rng.uniform(-2.0, 2.0);
          std::vector<double> out(n * ldo, kSentinel);
          fn(a.data(), lda, n, b.data(), ldb, m, d, out.data(), ldo);
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t r = 0; r < ldo; ++r) {
              const double want =
                  r < m ? scalar_sq_dist(a.data() + i * lda, b.data(), ldb,
                                         r, d)
                        : kSentinel;
              ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i * ldo + r]),
                        std::bit_cast<std::uint64_t>(want))
                  << isa::to_string(path) << " n " << n << " m " << m
                  << " d " << d << " at (" << i << ", " << r << "): "
                  << std::hexfloat << out[i * ldo + r] << " vs " << want;
            }
          }
        }
      }
    }
  }
}

// Local search scores the 2d coordinate neighbours of a centre from the
// centre's own distances. The training-major block must equal, bit for
// bit, the row-major update it replaced: neighbour row r = centre with
// coordinate r/2 moved, distances base − old² + new² floored at 0, where
// base is the centre's scalar-loop distance.
TEST(IsaDispatch, NeighborBlockMatchesRowMajorUpdate) {
  for (const isa::Path path : runnable_paths()) {
    const ScopedIsa pin(path);
    for (const std::size_t d : {1ul, 51ul}) {
      const std::size_t n = 61;
      Rng rng(52);
      Matrix x(n, d);
      Vector y(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < d; ++k) x(i, k) = rng.uniform();
        y[i] = rng.normal();
      }
      gp::GpRegressor gp(gp::Kernel(gp::KernelFamily::kMatern52, d, false),
                         1e-3);
      gp.fit(x, y);
      std::vector<double> cur(d);
      for (double& v : cur) v = rng.uniform();
      // Coordinates on the box edge exercise the clamp.
      cur[0] = 1.0;
      const double step = 0.1;
      std::vector<double> moved(2 * d);
      for (std::size_t j = 0; j < d; ++j) {
        moved[2 * j] = std::clamp(cur[j] + step, 0.0, 1.0);
        moved[2 * j + 1] = std::clamp(cur[j] - step, 0.0, 1.0);
      }

      // Reference: the row-major neighbour matrix and update.
      Matrix nb(2 * d, d);
      for (std::size_t j = 0; j < d; ++j) {
        for (std::size_t sgn = 0; sgn < 2; ++sgn) {
          const auto row = nb.row(2 * j + sgn);
          for (std::size_t k = 0; k < d; ++k) row[k] = cur[k];
          row[j] = std::clamp(row[j] + (sgn == 0 ? step : -step), 0.0, 1.0);
        }
      }
      std::vector<double> base(n);
      for (std::size_t i = 0; i < n; ++i) {
        base[i] = scalar_sq_dist(x.row(i).data(), cur.data(), 1, 0, d);
      }

      Matrix block;
      gp.neighbor_sq_dists(cur, moved, block);
      ASSERT_EQ(block.rows(), n);
      ASSERT_EQ(block.cols(), 2 * d);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t r = 0; r < 2 * d; ++r) {
          const std::size_t j = r / 2;
          const double old_diff = cur[j] - x(i, j);
          const double new_diff = nb(r, j) - x(i, j);
          const double s =
              base[i] - old_diff * old_diff + new_diff * new_diff;
          const double want = s < 0.0 ? 0.0 : s;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(block(i, r)),
                    std::bit_cast<std::uint64_t>(want))
              << isa::to_string(path) << " d " << d << " at (" << i << ", "
              << r << ")";
        }
      }
    }
  }
}

// The linalg micro-kernels must agree EXACTLY across paths — not within an
// ulp bound — because the solve/factorization results feed golden tests and
// run-to-run determinism checks that compare bits.
TEST(IsaDispatch, RowUpdateKernelsBitIdenticalAcrossPaths) {
  const lk::KernelOps* portable = lk::ops_for(isa::Path::kPortable);
  ASSERT_NE(portable, nullptr);
  for (const isa::Path path : runnable_paths()) {
    if (path == isa::Path::kPortable) continue;
    const lk::KernelOps* wide = lk::ops_for(path);
    ASSERT_NE(wide, nullptr) << isa::to_string(path);
    Rng rng(7);
    for (std::size_t len = 0; len <= 40; ++len) {
      std::vector<double> c(len), p0(len), p1(len), p2(len), p3(len);
      for (std::size_t j = 0; j < len; ++j) {
        c[j] = rng.normal();
        p0[j] = rng.normal();
        p1[j] = rng.normal();
        p2[j] = rng.normal();
        p3[j] = rng.normal();
      }
      const double a0 = rng.normal(), a1 = rng.normal(), a2 = rng.normal(),
                   a3 = rng.normal();
      std::vector<double> expect4 = c;
      portable->rank4_row_update(expect4.data(), p0.data(), p1.data(),
                                 p2.data(), p3.data(), a0, a1, a2, a3, len);
      std::vector<double> got4 = c;
      wide->rank4_row_update(got4.data(), p0.data(), p1.data(), p2.data(),
                             p3.data(), a0, a1, a2, a3, len);
      std::vector<double> expect1 = c;
      portable->rank1_row_update(expect1.data(), p0.data(), a0, len);
      std::vector<double> got1 = c;
      wide->rank1_row_update(got1.data(), p0.data(), a0, len);
      // Givens rotation (the remove_row downdate sweep): both outputs per
      // element, factor row and carry vector, must match bitwise.
      const double gr = std::sqrt(a0 * a0 + a1 * a1);
      const double gc = a0 / gr, gs = a1 / gr;
      std::vector<double> expect_l = c, expect_v = p0;
      portable->givens_row_update(expect_l.data(), expect_v.data(), gc, gs,
                                  len);
      std::vector<double> got_l = c, got_v = p0;
      wide->givens_row_update(got_l.data(), got_v.data(), gc, gs, len);
      for (std::size_t j = 0; j < len; ++j) {
        ASSERT_EQ(got4[j], expect4[j])
            << isa::to_string(path) << " rank4 len " << len << " elem " << j;
        ASSERT_EQ(got1[j], expect1[j])
            << isa::to_string(path) << " rank1 len " << len << " elem " << j;
        ASSERT_EQ(got_l[j], expect_l[j])
            << isa::to_string(path) << " givens L len " << len << " elem "
            << j;
        ASSERT_EQ(got_v[j], expect_v[j])
            << isa::to_string(path) << " givens v len " << len << " elem "
            << j;
      }
    }
  }
}

// The selection resolves lazily on first use, and nothing resolves it
// before a library call needs a kernel — so campaign workers fitting GPs
// concurrently may be the first users. Each ctest entry runs in its own
// process, so here the threads below really are the first callers, and the
// thread-sanitizer build reports any unsynchronized resolution.
TEST(IsaDispatch, ConcurrentFirstUseResolvesOnce) {
  constexpr std::size_t kThreads = 8;
  std::vector<const lk::KernelOps*> tables(kThreads, nullptr);
  std::vector<std::vector<double>> outputs(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &tables, &outputs] {
      tables[t] = &lk::ops();
      std::vector<double> buf = {0.0, 0.5, 1.0, 2.0, 4.0};
      gp::correlation_from_scaled_sq_batch(
          gp::KernelFamily::kSquaredExponential, 1.3, buf.data(), buf.size());
      outputs[t] = std::move(buf);
    });
  }
  for (std::thread& th : threads) th.join();

  const isa::Path path = isa::selected();
  EXPECT_EQ(path, isa::from_environment());
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(tables[t], lk::ops_for(path)) << "thread " << t;
    EXPECT_EQ(outputs[t], outputs[0]) << "thread " << t;
  }
}

// The fused batch prediction (one whole-buffer transform + one multi-RHS
// solve across all candidates, from the training-major distance block)
// must be bitwise identical to the chunked predict_batch path — on every
// runnable ISA path, since both go through the same dispatch.
TEST(IsaDispatch, FusedPredictMatchesChunkedOnEveryPath) {
  const std::size_t n = 24, d = 3, m = 70;  // m > kPredictChunk = 64
  Rng rng(99);
  Matrix x(n, d);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < d; ++k) x(i, k) = rng.normal();
    y[i] = rng.normal();
  }
  Matrix q(m, d);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t k = 0; k < d; ++k) q(r, k) = rng.normal();
  }
  for (const isa::Path path : runnable_paths()) {
    const ScopedIsa pin(path);
    for (const gp::KernelFamily family :
         {gp::KernelFamily::kSquaredExponential, gp::KernelFamily::kMatern32,
          gp::KernelFamily::kMatern52}) {
      gp::Kernel kern(family, d, false);
      kern.set_amplitude(1.4);
      kern.set_lengthscales({0.9});
      gp::GpRegressor gp(kern, 1e-2, 0.2);
      gp.fit(x, y);

      Matrix d2;
      gp.unscaled_sq_dists(q.transposed(), d2);
      const std::vector<gp::Prediction> chunked = gp.predict_batch(q);

      Matrix vws;
      std::vector<double> means(m), vars(m);
      gp.predict_mv_from_sq_dists(d2, vws, means, vars);

      ASSERT_EQ(chunked.size(), m);
      for (std::size_t r = 0; r < m; ++r) {
        ASSERT_EQ(means[r], chunked[r].mean)
            << isa::to_string(path) << " family "
            << static_cast<int>(family) << " row " << r;
        ASSERT_EQ(vars[r], chunked[r].variance)
            << isa::to_string(path) << " family "
            << static_cast<int>(family) << " row " << r;
      }
    }
  }
}

// End-to-end suggest() golden, captured with the portable path BEFORE the
// fused batched acquisition rework (hexfloats, so comparison is exact).
// This pins two things at once: the portable path still is the pre-dispatch
// arithmetic, and the fused scoring rework changed memory traffic only.
// Regenerate by printing suggest() with %a after intentional numeric
// changes.
TEST(IsaDispatch, SuggestGoldenPortablePath) {
#if !(defined(__x86_64__) && defined(__GLIBC__))
  GTEST_SKIP() << "golden values pin the glibc/x86-64 vector-exp path";
#endif
  const ScopedIsa pin(isa::Path::kPortable);
  bo::ParamSpace space({bo::ParamSpec::real("x", 0.0, 1.0),
                        bo::ParamSpec::real("w", -2.0, 2.0),
                        bo::ParamSpec::integer("k", 1, 10)});
  bo::BayesOptOptions opts;
  opts.hyper_mode = bo::HyperMode::kSliceSample;
  opts.hyper_samples = 3;
  opts.hyper_burn_in = 3;
  opts.num_candidates = 64;
  opts.local_search_iters = 5;
  opts.seed = 2015;
  bo::BayesOpt opt(space, opts);
  Rng rng(77);
  for (int i = 0; i < 12; ++i) {
    auto x = space.sample(rng);
    const double y =
        -x[0] * x[0] + 0.3 * x[1] - 0.05 * x[2] + 0.1 * rng.normal();
    opt.observe(std::move(x), y);
  }
  const double golden[3][3] = {
      {0x1.117211593f74dp-3, 0x1p+1, 0x1p+0},
      {0x1.73284b01f0dd2p-2, 0x1p+1, 0x1p+0},
      {0x1.561755e5b21cdp-4, 0x1p+1, 0x1.8p+1},
  };
  for (int s = 0; s < 3; ++s) {
    const auto x = opt.suggest();
    ASSERT_EQ(x.size(), 3u);
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(x[k], golden[s][k]) << "suggest " << s << " param " << k;
    }
    opt.observe(x, -x[0] * x[0] + 0.3 * x[1] - 0.05 * x[2]);
  }
}

// Windowed slice sampling: every suggest below runs after evictions, and
// with hyper_refit_interval = 2 they alternate between warm hyper refreshes
// (the sampler plus one apply_hyperparams refit per retained sample) and
// incremental slides of the per-sample GPs. Captured while suggest() still
// ran those refits and its scoring on an internal thread pool.
TEST(IsaDispatch, WindowedSuggestGoldenPortablePath) {
#if !(defined(__x86_64__) && defined(__GLIBC__))
  GTEST_SKIP() << "golden values pin the glibc/x86-64 vector-exp path";
#endif
  const ScopedIsa pin(isa::Path::kPortable);
  bo::ParamSpace space({bo::ParamSpec::real("x", 0.0, 1.0),
                        bo::ParamSpec::real("w", -2.0, 2.0),
                        bo::ParamSpec::integer("k", 1, 10)});
  bo::BayesOptOptions opts;
  opts.hyper_mode = bo::HyperMode::kSliceSample;
  opts.hyper_samples = 3;
  opts.hyper_burn_in = 3;
  opts.hyper_burn_in_warm = 2;
  opts.num_candidates = 64;
  opts.local_search_iters = 5;
  opts.max_observations = 8;
  opts.hyper_refit_interval = 2;
  opts.seed = 2016;
  bo::BayesOpt opt(space, opts);
  Rng rng(78);
  // Interior optimum, so the proposals do not pile up on the box corners.
  const auto f = [](const bo::ParamValues& x) {
    return -(x[0] - 0.6) * (x[0] - 0.6) - 0.2 * (x[1] - 0.5) * (x[1] - 0.5) -
           0.02 * (x[2] - 4.0) * (x[2] - 4.0);
  };
  for (int i = 0; i < 12; ++i) {
    auto x = space.sample(rng);
    const double y = f(x) + 0.1 * rng.normal();
    opt.observe(std::move(x), y);
  }
  ASSERT_EQ(opt.num_evictions(), 4u);
  const double golden[6][3] = {
      {0x1.acf0212056683p-2, 0x1.10f8fedf278d6p+0, 0x1p+2},
      {0x1.5c308b87498c2p-1, 0x1.49ac972aa274p-1, 0x1p+2},
      {0x1p+0, 0x1.9ed8c9fddd8e4p+0, 0x1.4p+2},
      {0x0p+0, 0x1.edf8e0f1e3f7ep+0, 0x1.4p+3},
      {0x1.75ca2520e325cp-1, 0x1.71a318621e06cp+0, 0x1p+0},
      {0x1.3568df6eb5dedp-1, 0x1.d9b16f522bb04p-1, 0x1p+2},
  };
  for (int s = 0; s < 6; ++s) {
    const auto x = opt.suggest();
    ASSERT_EQ(x.size(), 3u);
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(x[k], golden[s][k]) << "suggest " << s << " param " << k;
    }
    opt.observe(x, f(x));
  }
  EXPECT_EQ(opt.window_size(), 8u);
  EXPECT_EQ(opt.num_evictions(), 10u);
}

// Default-width (512-candidate) suggest() goldens in slice and fixed hyper
// modes, and in slice mode with an ARD kernel (the per-GP predict_rows
// fallback, which shares no distance block), captured before the distance
// block became training-major and lane-parallel (hexfloats, compared
// exactly). The argmaxes here do not depend on the transform's last-ulp
// differences between paths, so one table pins every runnable path.
TEST(IsaDispatch, Suggest512CandidatesGoldenEveryPath) {
#if !(defined(__x86_64__) && defined(__GLIBC__))
  GTEST_SKIP() << "golden values pin the glibc/x86-64 vector-exp path";
#endif
  const double golden[3][3][4] = {
      // slice sampling
      {{0x1.9845d2e08a56dp-2, 0x1.7738fbb528c51p-2, 0x1.be7de0b3dc3b8p-2,
        0x1.0ced78deaf209p-1},
       {0x1.1bccd56e7f307p-2, 0x1.97b97a55f8e31p-2, 0x1.112018ab8a58bp-2,
        0x1.84f8ac965ab88p-2},
       {0x1.69df6c7a23f07p-2, 0x1.8d9f621b8f2b8p-2, 0x1.1190e48a3b62ap-1,
        0x1.38035bf690252p-1}},
      // fixed hyperparameters
      {{0x1.941ef3763fe06p-2, 0x1.9557c4e7a87c2p-2, 0x1.0e60b9af7f1a6p-1,
        0x1.4f57d6fbb23b2p-1},
       {0x1.8eee8eb4f07fp-2, 0x1.6d1d903112e86p-2, 0x1.94effe504fa9fp-2,
        0x1.b24e4c6bf5e99p-2},
       {0x1.ca6081bf21ee2p-2, 0x1.dacf42c2f62e3p-3, 0x1.363b404645b0cp-1,
        0x1.0d1b09db83c19p-1}},
      // slice sampling, ARD kernel
      {{0x1.9ff53fbcffe54p-2, 0x1.b3d15dbae5eb2p-2, 0x1.9caf0d7b7c076p-2,
        0x1.240547271719ap-1},
       {0x1.025fffaaaac9fp-1, 0x1.92540ce67e484p-2, 0x1.d3e0990e1e1ap-2,
        0x1.8d8d1c677ef46p-1},
       {0x1.001c740678d94p-4, 0x1.ab5768c2fbfd2p-2, 0x1.1821b0045794p-2,
        0x1p+0}},
  };
  const auto f = [](const bo::ParamValues& x) {
    double s = 0.0;
    for (std::size_t k = 0; k < x.size(); ++k) {
      const double c = 0.3 + 0.1 * static_cast<double>(k);
      s -= (x[k] - c) * (x[k] - c);
    }
    return s;
  };
  for (const isa::Path path : runnable_paths()) {
    const ScopedIsa pin(path);
    for (int mode = 0; mode < 3; ++mode) {
      std::vector<bo::ParamSpec> specs;
      for (int k = 0; k < 4; ++k) {
        specs.push_back(bo::ParamSpec::real("x" + std::to_string(k), 0.0, 1.0));
      }
      const bo::ParamSpace space(specs);
      bo::BayesOptOptions opts;
      opts.hyper_mode =
          mode == 1 ? bo::HyperMode::kFixed : bo::HyperMode::kSliceSample;
      opts.ard = mode == 2;
      opts.hyper_samples = 3;
      opts.hyper_burn_in = 3;
      ASSERT_EQ(opts.num_candidates, 512u);
      opts.seed = 4242;
      bo::BayesOpt opt(space, opts);
      Rng rng(99);
      for (int i = 0; i < 20; ++i) {
        auto x = space.sample(rng);
        const double y = f(x) + 0.05 * rng.normal();
        opt.observe(std::move(x), y);
      }
      for (int s = 0; s < 3; ++s) {
        const auto x = opt.suggest();
        ASSERT_EQ(x.size(), 4u);
        for (int k = 0; k < 4; ++k) {
          EXPECT_EQ(x[k], golden[mode][s][k])
              << isa::to_string(path) << " mode " << mode << " suggest " << s
              << " param " << k << ": " << std::hexfloat << x[k];
        }
        opt.observe(x, f(x));
      }
    }
  }
}

}  // namespace
}  // namespace stormtune
