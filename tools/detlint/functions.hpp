// detlint v2 — per-TU function extraction.
//
// Walks the token stream of one translation unit and produces:
//  * every function definition with its scope-qualified name (namespaces
//    and enclosing classes), its body token span, and whether its
//    declaration carries the STORMTUNE_HOT marker;
//  * the call sites inside each body (name + any explicit `::` qualifier +
//    member-call receiver), which the cross-TU call graph resolves;
//  * the allocation evidence inside each body for ALLOC001: `new`
//    expressions, malloc-family / make_unique / make_shared calls, local
//    owning-container constructions, and growth calls on function-local
//    containers. Growth into *persistent* receivers (members, by-reference
//    parameters) is sanctioned by the repo's high-water-capacity idiom and
//    is left to the dynamic malloc-probe tests — see DESIGN.md.
//  * class definitions with their base-class names and class-scope token
//    span, for the strand capture-safety rule (CONC003);
//  * the `Type name` declaration shapes, which type member-call receivers.
//
// Three regions are excluded from call/allocation collection because they
// are off the steady-state path by construction: `throw` statements (the
// error path may build messages), STORMTUNE_* macro invocation arguments
// (REQUIRE/DCHECK/INVARIANT failure paths), and tokens inside
// `#ifdef STORMTUNE_CHECKED` regions (checked-only verification state).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "detlint/lexer.hpp"

namespace detlint {

struct CallSite {
  std::string name;                // last identifier before '('
  std::vector<std::string> qual;   // explicit A::B:: qualifier chain
  std::size_t line = 0;
  bool member = false;             // obj.name(...) / obj->name(...)
  std::string receiver;            // `obj` of a member call when it is a
                                   // plain identifier, else empty
};

struct AllocSite {
  std::size_t line = 0;
  std::string what;  // human-readable allocation kind
};

struct FunctionInfo {
  std::string name;       // last component, e.g. "run"
  std::string qualified;  // e.g. "stormtune::sim::SimWorkspace::run"
  std::size_t line = 0;   // line of the definition
  bool hot = false;       // declaration carries STORMTUNE_HOT
  bool internal = false;  // inside an anonymous namespace (TU-local
                          // helper, not part of any dispatch-table set)
  std::vector<CallSite> calls;
  std::vector<AllocSite> allocs;
};

struct ClassInfo {
  std::string name;
  std::vector<std::string> bases;   // base-class last components
  std::size_t line = 0;
  std::size_t body_begin = 0;       // token index just inside '{'
  std::size_t body_end = 0;         // token index of matching '}'
};

struct TranslationUnit {
  std::string path;                  // '/'-separated, relative to lint root
  std::string stripped;              // comment/string-blanked text
  std::vector<std::string> lines;    // original lines (for excerpts)
  std::vector<Token> tokens;
  std::vector<FunctionInfo> functions;
  std::vector<ClassInfo> classes;
  // Every `Type name` shape in the file (members, locals, parameters):
  // (name, last component of Type). Syntax only, so some entries are not
  // declarations at all (`a & b`); the call graph trusts a name's types
  // only when every one of them is a project class.
  std::vector<std::pair<std::string, std::string>> declarations;
};

/// Lex and index one file. `text` is the raw file contents.
TranslationUnit index_tu(std::string path, const std::string& text);

}  // namespace detlint
