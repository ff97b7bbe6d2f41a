#include "detlint/callgraph.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "detlint/lexer.hpp"

namespace detlint {

namespace {

/// The component before the last in a qualified name: the class of a
/// method, the namespace of a free function, empty at global scope.
std::string enclosing_name(const std::string& qualified) {
  const std::size_t last = qualified.rfind("::");
  if (last == std::string::npos) return {};
  const std::string scope = qualified.substr(0, last);
  const std::size_t prev = scope.rfind("::");
  return prev == std::string::npos ? scope : scope.substr(prev + 2);
}

/// Transitive closure of `start` along `links` (class -> related classes).
void close_over(const std::map<std::string, std::set<std::string>>& links,
                const std::string& start, std::set<std::string>& out) {
  if (!out.insert(start).second) return;
  const auto it = links.find(start);
  if (it == links.end()) return;
  for (const std::string& next : it->second) close_over(links, next, out);
}

}  // namespace

CallGraph::CallGraph(const std::vector<TranslationUnit>& tus) {
  std::set<std::string> class_names;
  std::map<std::string, std::set<std::string>> bases;    // class -> bases
  std::map<std::string, std::set<std::string>> derived;  // class -> derived
  std::map<std::string, std::set<std::string>> decl_types;  // name -> types
  for (const TranslationUnit& tu : tus) {
    for (const ClassInfo& ci : tu.classes) {
      class_names.insert(ci.name);
      for (const std::string& base : ci.bases) {
        bases[ci.name].insert(base);
        derived[base].insert(ci.name);
      }
    }
    for (const auto& [name, type] : tu.declarations) {
      decl_types[name].insert(type);
    }
  }
  // Classes a member call on `receiver` can dispatch into: its declared
  // types with their bases (inherited methods) and derived classes
  // (overrides). Empty when the receiver's type is unknown: no
  // declaration, `auto`, a library type, or an expression receiver.
  const auto receiver_classes = [&](const std::string& receiver) {
    std::set<std::string> out;
    const auto it = decl_types.find(receiver);
    if (it == decl_types.end()) return out;
    for (const std::string& type : it->second) {
      if (!class_names.count(type)) return std::set<std::string>{};
    }
    for (const std::string& type : it->second) {
      std::set<std::string> up;
      std::set<std::string> down;
      close_over(bases, type, up);
      close_over(derived, type, down);
      out.insert(up.begin(), up.end());
      out.insert(down.begin(), down.end());
    }
    return out;
  };
  std::vector<bool> in_class;  // per node: defined in a class's scope
  for (const TranslationUnit& tu : tus) {
    for (const FunctionInfo& fn : tu.functions) {
      by_name_[fn.name].push_back(nodes_.size());
      nodes_.push_back(Node{&fn, &tu, {}});
      in_class.push_back(class_names.count(enclosing_name(fn.qualified)) > 0);
    }
  }
  for (Node& node : nodes_) {
    std::set<std::size_t> edges;
    for (const CallSite& call : node.fn->calls) {
      const auto it = by_name_.find(call.name);
      if (it == by_name_.end()) continue;  // external leaf
      if (call.qual.empty()) {
        // A member call `obj.f()` / `p->f()` names a method of obj's class,
        // never a free function, so only class-scoped definitions compete:
        // those of obj's declared classes when every declaration of obj
        // names a project class, else every class's f (the lookup below
        // then prefers the caller's own class, as for `this->f()`). No
        // method named f at all means a library leaf.
        std::vector<std::size_t> named;
        for (const std::size_t idx : it->second) {
          if (!call.member || in_class[idx]) named.push_back(idx);
        }
        const std::set<std::string> typed =
            call.member ? receiver_classes(call.receiver)
                        : std::set<std::string>{};
        std::vector<std::size_t> of_type;
        for (const std::size_t idx : named) {
          if (typed.count(enclosing_name(nodes_[idx].fn->qualified))) {
            of_type.push_back(idx);
          }
        }
        if (!of_type.empty()) named = std::move(of_type);
        // Resolve like C++ name lookup, not by flat name. Walk the
        // caller's enclosing scopes innermost-to-outermost
        // (Rng::uniform's `next()` is Rng::next, a kernel TU's local
        // `run<...>` helper is not StrandPool::run) and stop at the first
        // scope that declares the name — name hiding, as in the language.
        // Only when no enclosing scope matches do we fall back to the
        // every-same-name over-approximation (ADL, using-declarations).
        std::vector<std::size_t> scoped;
        std::string scope = node.fn->qualified;
        while (true) {
          const std::size_t pos = scope.rfind("::");
          if (pos == std::string::npos) break;
          scope.resize(pos);  // drop the last component
          const std::string want = scope + "::" + call.name;
          for (const std::size_t idx : named) {
            if (nodes_[idx].fn->qualified == want) scoped.push_back(idx);
          }
          if (!scoped.empty()) break;
        }
        if (scoped.empty()) {
          // Global scope: exact-name candidates (free functions at top
          // level or in this TU's anonymous namespace).
          for (const std::size_t idx : named) {
            if (nodes_[idx].fn->qualified == call.name) scoped.push_back(idx);
          }
        }
        // Internal-linkage tie-break: same-TU anonymous-namespace
        // definitions shadow same-named externals.
        std::vector<std::size_t> local;
        for (const std::size_t idx : scoped.empty() ? named : scoped) {
          if (nodes_[idx].fn->internal && nodes_[idx].tu == node.tu) {
            local.push_back(idx);
          }
        }
        if (!local.empty()) {
          edges.insert(local.begin(), local.end());
        } else if (!scoped.empty()) {
          edges.insert(scoped.begin(), scoped.end());
        } else {
          edges.insert(named.begin(), named.end());
        }
      } else {
        // `A::B::f(...)`: keep candidates whose qualified name ends with
        // the written chain.
        std::string suffix;
        for (const std::string& part : call.qual) suffix += part + "::";
        suffix += call.name;
        for (const std::size_t idx : it->second) {
          const std::string& q = nodes_[idx].fn->qualified;
          if (q == suffix || ends_with(q, "::" + suffix)) edges.insert(idx);
        }
      }
    }
    node.callees.assign(edges.begin(), edges.end());
  }
}

std::vector<HotPathAlloc> CallGraph::hot_path_allocs() const {
  std::vector<HotPathAlloc> out;
  std::set<std::string> seen;  // "path:line:what" site dedup across roots
  for (std::size_t root = 0; root < nodes_.size(); ++root) {
    if (!nodes_[root].fn->hot) continue;
    // BFS with parent tracking for chain reconstruction.
    std::map<std::size_t, std::size_t> parent;
    std::deque<std::size_t> queue;
    std::set<std::size_t> visited;
    queue.push_back(root);
    visited.insert(root);
    while (!queue.empty()) {
      const std::size_t cur = queue.front();
      queue.pop_front();
      const Node& node = nodes_[cur];
      for (const AllocSite& site : node.fn->allocs) {
        const std::string key = node.tu->path + ":" +
                                std::to_string(site.line) + ":" + site.what;
        if (!seen.insert(key).second) continue;
        HotPathAlloc a;
        a.tu_path = node.tu->path;
        a.line = site.line;
        a.what = site.what;
        a.in_fn = node.fn->qualified;
        a.root = nodes_[root].fn->qualified;
        std::vector<std::string> chain;
        for (std::size_t walk = cur;; walk = parent.at(walk)) {
          chain.push_back(nodes_[walk].fn->qualified);
          if (walk == root) break;
        }
        std::reverse(chain.begin(), chain.end());
        for (std::size_t k = 0; k < chain.size(); ++k) {
          if (k > 0) a.chain += " -> ";
          a.chain += chain[k];
        }
        out.push_back(std::move(a));
      }
      for (const std::size_t next : node.callees) {
        if (visited.insert(next).second) {
          parent[next] = cur;
          queue.push_back(next);
        }
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HotPathAlloc& a, const HotPathAlloc& b) {
              if (a.tu_path != b.tu_path) return a.tu_path < b.tu_path;
              return a.line < b.line;
            });
  return out;
}

}  // namespace detlint
