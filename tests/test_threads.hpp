// Thread counts for the tests that pin results across pool widths.
//
// The list defaults to {1, 2, 8}; CI's TSan job widens it via
// STORMTUNE_SCHED_TEST_THREADS (comma-separated, e.g. "1,4,16").
#pragma once

#include <cstddef>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

namespace stormtune {

inline std::vector<std::size_t> scheduler_test_threads() {
  std::vector<std::size_t> threads = {1, 2, 8};
  if (const char* env = std::getenv("STORMTUNE_SCHED_TEST_THREADS")) {
    threads.clear();
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      threads.push_back(static_cast<std::size_t>(std::stoul(tok)));
    }
  }
  return threads;
}

}  // namespace stormtune
