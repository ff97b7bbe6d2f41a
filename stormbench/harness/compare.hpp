// Compare mode: classify each (metric, workload) pair of two result sets.
#pragma once

namespace stormbench {

/// stormbench compare --benchmark BENCHMARK.json PARENT.jsonl CHANGE.jsonl
int compare_main(int argc, char** argv);

}  // namespace stormbench
