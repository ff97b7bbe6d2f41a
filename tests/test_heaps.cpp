// DaryHeap and IndexedHeap against reference implementations under
// randomized interleavings — these back the engine's event queues, where a
// wrong pop order silently changes simulation results.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <type_traits>
#include <vector>

#include "common/dary_heap.hpp"
#include "common/indexed_heap.hpp"
#include "common/rng.hpp"

namespace stormtune {
namespace {

TEST(DaryHeap, PopsInSortedOrder) {
  Rng rng(1);
  for (std::size_t n : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    DaryHeap<int> heap;
    std::vector<int> expected;
    for (std::size_t i = 0; i < n; ++i) {
      const int v = static_cast<int>(rng.uniform_int(0, 100));
      heap.push(v);
      expected.push_back(v);
    }
    std::sort(expected.begin(), expected.end());
    std::vector<int> got;
    while (!heap.empty()) {
      got.push_back(heap.top());
      heap.pop();
    }
    EXPECT_EQ(got, expected) << "n=" << n;
  }
}

TEST(DaryHeap, MatchesPriorityQueueUnderInterleaving) {
  Rng rng(2);
  DaryHeap<std::pair<double, std::uint64_t>> heap;
  std::priority_queue<std::pair<double, std::uint64_t>,
                      std::vector<std::pair<double, std::uint64_t>>,
                      std::greater<>>
      reference;
  std::uint64_t seq = 0;
  for (int step = 0; step < 5000; ++step) {
    if (reference.empty() || rng.uniform() < 0.6) {
      // Duplicate-prone times + a unique seq: the engine's event-key shape.
      const std::pair<double, std::uint64_t> v{
          static_cast<double>(rng.uniform_int(0, 50)), seq++};
      heap.push(v);
      reference.push(v);
    } else {
      ASSERT_EQ(heap.top(), reference.top());
      heap.pop();
      reference.pop();
    }
  }
  while (!reference.empty()) {
    ASSERT_EQ(heap.top(), reference.top());
    heap.pop();
    reference.pop();
  }
  EXPECT_TRUE(heap.empty());
}

TEST(DaryHeap, WorksAtOtherArities) {
  for (int trial = 0; trial < 3; ++trial) {
    Rng rng(3 + static_cast<std::uint64_t>(trial));
    DaryHeap<int, 2> binary;
    DaryHeap<int, 8> octal;
    std::vector<int> expected;
    for (int i = 0; i < 200; ++i) {
      const int v = static_cast<int>(rng.uniform_int(-1000, 1000));
      binary.push(v);
      octal.push(v);
      expected.push_back(v);
    }
    std::sort(expected.begin(), expected.end());
    for (int v : expected) {
      EXPECT_EQ(binary.top(), v);
      EXPECT_EQ(octal.top(), v);
      binary.pop();
      octal.pop();
    }
  }
}

/// Brute-force mirror of IndexedHeap: a key -> priority map scanned for its
/// minimum. Priorities are (value, seq) so the minimum is always unique;
/// values 0..30 give many exact first-component ties, which the seq breaks.
using Priority = std::pair<double, std::uint64_t>;

/// Runs at the arity the engine ships (2) and at a wider one (4), so the
/// arithmetic child pick is checked both with one and with several siblings.
template <typename Arity>
class IndexedHeapArity : public ::testing::Test {};
using Arities = ::testing::Types<std::integral_constant<std::size_t, 2>,
                                 std::integral_constant<std::size_t, 4>>;
TYPED_TEST_SUITE(IndexedHeapArity, Arities);

TYPED_TEST(IndexedHeapArity, SetEraseTopMatchBruteForce) {
  constexpr std::size_t kKeys = 37;
  Rng rng(4);
  IndexedHeap<Priority, TypeParam::value> heap(kKeys);
  std::map<std::size_t, Priority> reference;
  std::uint64_t seq = 0;
  for (int step = 0; step < 20000; ++step) {
    const auto key = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(kKeys) - 1));
    const double op = rng.uniform();
    if (op < 0.55) {
      // Insert-or-update, sometimes to a smaller and sometimes to a larger
      // priority than before (exercises both sift directions).
      const Priority p{static_cast<double>(rng.uniform_int(0, 30)), seq++};
      heap.set(key, p);
      reference[key] = p;
    } else if (op < 0.75) {
      heap.erase(key);
      reference.erase(key);
    } else if (!reference.empty()) {
      const auto best = std::min_element(
          reference.begin(), reference.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      ASSERT_EQ(heap.top_key(), best->first);
      ASSERT_EQ(heap.top_priority(), best->second);
      if (op < 0.85) {
        heap.pop();
        reference.erase(best);
      }
    }
    ASSERT_EQ(heap.size(), reference.size());
    ASSERT_EQ(heap.contains(key), reference.count(key) == 1);
    if (reference.count(key) == 1) {
      ASSERT_EQ(heap.priority(key), reference[key]);
    }
  }
}

TEST(IndexedHeap, EraseOnAbsentKeyIsANoOp) {
  IndexedHeap<double> heap(4);
  heap.erase(2);
  EXPECT_TRUE(heap.empty());
  heap.set(1, 5.0);
  heap.erase(3);
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap.top_key(), 1u);
}

TEST(IndexedHeap, ResizeGrowsTheKeyUniverse) {
  IndexedHeap<double> heap(2);
  heap.set(0, 3.0);
  heap.set(1, 1.0);
  heap.resize(5);
  heap.set(4, 0.5);
  EXPECT_EQ(heap.top_key(), 4u);
  heap.pop();
  EXPECT_EQ(heap.top_key(), 1u);
}

}  // namespace
}  // namespace stormtune
