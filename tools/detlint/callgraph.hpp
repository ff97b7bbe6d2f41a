// detlint v2 — project-wide call graph.
//
// Builds a cross-TU symbol table over every indexed translation unit and
// resolves call sites by name. A member call resolves only to project
// methods (functions defined in a class's scope), never to a free
// function: to the same-named methods of its receiver's declared classes,
// their bases and their derived classes when every declaration of the
// receiver names a project class (so `s->step()` on a `Strand&` reaches
// every override), else to every same-named method. An unqualified call
// follows C++ scope lookup, falling back to every same-named function. An
// explicitly qualified call `A::B::f(...)` resolves only to functions
// whose qualified name ends with that chain. Names that resolve to nothing
// (std::, libc, lambdas) are leaves.
//
// The graph exists for one query: which allocation sites are transitively
// reachable from a STORMTUNE_HOT root? Reachability is a BFS over resolved
// edges with parent tracking so each finding can show the call chain that
// pulls the allocation onto the hot path.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "detlint/functions.hpp"

namespace detlint {

struct HotPathAlloc {
  std::string tu_path;   // TU containing the allocation site
  std::size_t line = 0;  // line of the allocation site
  std::string what;      // allocation kind (from AllocSite)
  std::string in_fn;     // qualified function containing the site
  std::string root;      // qualified STORMTUNE_HOT root
  std::string chain;     // "root -> a -> b" call chain (qualified names)
};

class CallGraph {
 public:
  explicit CallGraph(const std::vector<TranslationUnit>& tus);

  /// Allocation sites reachable from any STORMTUNE_HOT function, one entry
  /// per distinct (tu_path, line, what) with the first discovered chain.
  std::vector<HotPathAlloc> hot_path_allocs() const;

  std::size_t function_count() const { return nodes_.size(); }

 private:
  struct Node {
    const FunctionInfo* fn;
    const TranslationUnit* tu;
    std::vector<std::size_t> callees;  // deduplicated edges
  };

  std::vector<Node> nodes_;
  std::map<std::string, std::vector<std::size_t>> by_name_;
};

}  // namespace detlint
