// Indexed d-ary min-heap: a priority queue over a fixed key universe
// {0, ..., n-1} where each key holds at most ONE entry and its priority can
// be changed in place (decrease- or increase-key) in O(log n).
//
// This is the departure-event structure of the discrete-event engine: one
// entry per machine, updated whenever the machine's processing rate or job
// set changes. The alternative — pushing a fresh event per change and
// lazily discarding stale ones, as the engine used to do — grows the event
// heap with one dead entry per rate change and makes every push/pop pay
// log(live + stale).
//
// Like DaryHeap, deterministic use requires Less to be a total order over
// the stored priorities (include a sequence number); then top() is a pure
// function of the current {key -> priority} map, whatever the arity.
//
// Binary by default: the engine's departure keys sink from the root after
// every departure, and each level's child comparison is a coin flip the
// branch predictor cannot learn. sift_down therefore picks the smaller
// child arithmetically, so a binary level costs one unpredictable branch
// (stop or descend), not two or more (DESIGN.md §8).
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"

namespace stormtune {

template <typename P, std::size_t Arity = 2, typename Less = std::less<P>>
class IndexedHeap {
  static_assert(Arity >= 2, "IndexedHeap: arity must be at least 2");

 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  IndexedHeap() = default;
  explicit IndexedHeap(std::size_t num_keys) : pos_(num_keys, npos) {}

  /// Grow/shrink the key universe. Existing entries with key >= num_keys
  /// must have been erased first.
  void resize(std::size_t num_keys) { pos_.resize(num_keys, npos); }

  std::size_t num_keys() const { return pos_.size(); }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool contains(std::size_t key) const {
    STORMTUNE_DCHECK(key < pos_.size(), "IndexedHeap: key out of universe");
    return pos_[key] != npos;
  }

  const P& priority(std::size_t key) const {
    STORMTUNE_DCHECK(key < pos_.size() && pos_[key] != npos,
                     "IndexedHeap::priority: key absent");
    return heap_[pos_[key]].priority;
  }

  /// Key and priority of the smallest entry under Less.
  std::size_t top_key() const {
    STORMTUNE_DCHECK(!heap_.empty(), "IndexedHeap::top_key on empty heap");
    return heap_.front().key;
  }
  const P& top_priority() const {
    STORMTUNE_DCHECK(!heap_.empty(), "IndexedHeap::top_priority on empty heap");
    return heap_.front().priority;
  }

  /// Insert `key` with `priority`, or change its priority in place.
  void set(std::size_t key, P priority) {
    STORMTUNE_DCHECK(key < pos_.size(), "IndexedHeap::set: key out of universe");
    const std::size_t i = pos_[key];
    if (i == npos) {
      heap_.push_back(Entry{std::move(priority), key});
      sift_up(heap_.size() - 1);
    } else if (less_(priority, heap_[i].priority)) {
      heap_[i].priority = std::move(priority);
      sift_up(i);
    } else {
      heap_[i].priority = std::move(priority);
      sift_down(i);
    }
    STORMTUNE_DCHECK(pos_[key] < heap_.size() && heap_[pos_[key]].key == key,
                     "IndexedHeap::set: index map lost the key");
  }

  /// Remove `key`'s entry if present.
  void erase(std::size_t key) {
    STORMTUNE_DCHECK(key < pos_.size(),
                     "IndexedHeap::erase: key out of universe");
    const std::size_t i = pos_[key];
    if (i == npos) return;
    pos_[key] = npos;
    const std::size_t last = heap_.size() - 1;
    if (i != last) {
      heap_[i] = std::move(heap_[last]);
      pos_[heap_[i].key] = i;
      heap_.pop_back();
      // The moved-in entry may need to travel either direction.
      if (i > 0 && less_(heap_[i].priority, heap_[(i - 1) / Arity].priority)) {
        sift_up(i);
      } else {
        sift_down(i);
      }
    } else {
      heap_.pop_back();
    }
  }

  /// Remove the smallest entry.
  void pop() {
    STORMTUNE_REQUIRE(!heap_.empty(), "IndexedHeap::pop on empty heap");
    erase(heap_.front().key);
  }

  /// Remove every entry, keeping the key universe and the heap's capacity
  /// (for workspace reuse across simulation runs).
  void clear() {
    for (const Entry& e : heap_) pos_[e.key] = npos;
    heap_.clear();
  }

#ifdef STORMTUNE_CHECKED
  /// Full O(n) structural verification, checked builds only: the heap
  /// property holds at every node and {key -> heap index} is an exact
  /// bijection onto the stored entries (no stale, duplicated, or dangling
  /// pos_ entries — the reuse hazard of a workspace that survives across
  /// runs). Throws InvariantError on violation.
  void checked_verify() const {
    std::size_t mapped = 0;
    for (std::size_t k = 0; k < pos_.size(); ++k) {
      if (pos_[k] == npos) continue;
      STORMTUNE_INVARIANT(pos_[k] < heap_.size(),
                          "IndexedHeap: pos_ entry points past the heap");
      STORMTUNE_INVARIANT(heap_[pos_[k]].key == k,
                          "IndexedHeap: pos_ entry disagrees with heap entry");
      ++mapped;
    }
    STORMTUNE_INVARIANT(mapped == heap_.size(),
                        "IndexedHeap: heap entry missing from the index map");
    for (std::size_t i = 1; i < heap_.size(); ++i) {
      STORMTUNE_INVARIANT(
          !less_(heap_[i].priority, heap_[(i - 1) / Arity].priority),
          "IndexedHeap: heap property violated");
    }
  }

  /// Test hook: overwrite a stored priority in place WITHOUT re-sifting,
  /// breaking the heap property for checked_verify() to catch. Only exists
  /// in checked builds; never call it outside invariant tests.
  void checked_corrupt_priority_for_test(std::size_t key, P priority) {
    STORMTUNE_REQUIRE(key < pos_.size() && pos_[key] != npos,
                      "checked_corrupt_priority_for_test: key absent");
    heap_[pos_[key]].priority = std::move(priority);
  }

  /// Test hook: plant a dangling index-map entry, emulating state leaked by
  /// a prior run — the precondition checked_verify() guards against when a
  /// workspace is reused. Only exists in checked builds.
  void checked_corrupt_index_for_test() {
    if (pos_.empty()) pos_.resize(1, npos);
    pos_[0] = heap_.size() + 1;  // dangles past every live entry
  }
#endif

 private:
  struct Entry {
    P priority;
    std::size_t key;
  };

  void sift_up(std::size_t i) {
    Entry value = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!less_(value.priority, heap_[parent].priority)) break;
      heap_[i] = std::move(heap_[parent]);
      pos_[heap_[i].key] = i;
      i = parent;
    }
    heap_[i] = std::move(value);
    pos_[heap_[i].key] = i;
  }

  void sift_down(std::size_t i) {
    Entry value = std::move(heap_[i]);
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = i * Arity + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + Arity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        // Index arithmetic, not `less ? c : best`: gcc turns that select
        // back into a data-dependent branch.
        best += (c - best) * static_cast<std::size_t>(
                                 less_(heap_[c].priority, heap_[best].priority));
      }
      if (!less_(heap_[best].priority, value.priority)) break;
      heap_[i] = std::move(heap_[best]);
      pos_[heap_[i].key] = i;
      i = best;
    }
    heap_[i] = std::move(value);
    pos_[heap_[i].key] = i;
  }

  std::vector<Entry> heap_;
  std::vector<std::size_t> pos_;  // key -> heap index, npos when absent
  Less less_;
};

}  // namespace stormtune
