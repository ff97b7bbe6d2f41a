#include "detlint/functions.hpp"

#include <array>
#include <cstddef>
#include <set>
#include <string>

namespace detlint {

namespace {

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> k = {
      "if",       "for",      "while",    "switch",        "catch",
      "return",   "sizeof",   "alignof",  "decltype",      "noexcept",
      "static_assert",        "alignas",  "typeid",        "co_await",
      "co_yield", "co_return"};
  return k;
}

const std::set<std::string>& type_keywords() {
  static const std::set<std::string> k = {
      "void",   "int",  "double",   "float",    "char",  "bool", "long",
      "short",  "unsigned", "signed", "auto",   "wchar_t"};
  return k;
}

const std::set<std::string>& cast_keywords() {
  static const std::set<std::string> k = {
      "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast"};
  return k;
}

// Owning standard containers whose by-value construction allocates.
const std::set<std::string>& owning_containers() {
  static const std::set<std::string> k = {
      "vector",        "string",       "basic_string", "deque",
      "list",          "forward_list", "map",          "multimap",
      "set",           "multiset",     "unordered_map", "unordered_multimap",
      "unordered_set", "unordered_multiset",            "queue",
      "priority_queue", "stack",       "function",     "valarray"};
  return k;
}

// Member calls that can grow a container's storage.
const std::set<std::string>& growth_methods() {
  static const std::set<std::string> k = {
      "push_back", "emplace_back", "push_front", "emplace_front",
      "push",      "emplace",      "emplace_hint", "insert",
      "insert_or_assign",          "try_emplace",  "append",
      "assign",    "resize",       "reserve"};
  return k;
}

// Free / static calls that allocate unconditionally.
const std::set<std::string>& alloc_calls() {
  static const std::set<std::string> k = {
      "malloc",      "calloc",         "realloc", "aligned_alloc",
      "posix_memalign",                "strdup",  "make_unique",
      "make_shared", "to_string"};
  return k;
}

using Tokens = std::vector<Token>;

constexpr std::size_t npos = static_cast<std::size_t>(-1);

bool is(const Tokens& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}

bool is_ident(const Tokens& t, std::size_t i) {
  return i < t.size() && t[i].kind == Tok::kIdent;
}

/// i at "(" / "[" / "{": index just past the matching closer, or npos.
std::size_t skip_balanced(const Tokens& t, std::size_t i) {
  const std::string& open = t[i].text;
  const char* close = open == "(" ? ")" : open == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].text == open) ++depth;
    else if (t[j].text == close && --depth == 0) return j + 1;
  }
  return npos;
}

/// i at "<": index just past the matching ">", or npos when this "<" does
/// not read as a template-argument open (hits a statement boundary, runs
/// too far, or never balances). ">>" counts as two closes.
std::size_t skip_angles(const Tokens& t, std::size_t i) {
  int depth = 0;
  const std::size_t limit = std::min(t.size(), i + 256);
  for (std::size_t j = i; j < limit; ++j) {
    const std::string& x = t[j].text;
    if (x == "<") ++depth;
    else if (x == ">") {
      if (--depth == 0) return j + 1;
    } else if (x == ">>") {
      depth -= 2;
      if (depth <= 0) return j + 1;
    } else if (x == ";" || x == "{" || x == "}") {
      return npos;
    } else if (x == "(" || x == "[") {
      const std::size_t k = skip_balanced(t, j);
      if (k == npos) return npos;
      j = k - 1;
    }
  }
  return npos;
}

/// Walk back from the token at `i` over a balanced template-argument list;
/// returns the index of the "<" opener, or npos. `i` must be at ">".
std::size_t angles_open_backward(const Tokens& t, std::size_t i) {
  int depth = 0;
  const std::size_t lo = i > 64 ? i - 64 : 0;
  for (std::size_t j = i + 1; j-- > lo;) {
    const std::string& x = t[j].text;
    if (x == ">") ++depth;
    else if (x == ">>") depth += 2;
    else if (x == "<" && --depth == 0) return j;
    else if (x == ";" || x == "{" || x == "}") return npos;
  }
  return npos;
}

// Words that can stand right before a name without being its type
// (`return x;`, `delete p;`, `case k:`).
const std::set<std::string>& non_type_words() {
  static const std::set<std::string> k = {
      "return", "new",      "delete", "throw",     "case",      "goto",
      "else",   "do",       "typename", "template", "using",    "namespace",
      "struct", "class",    "union",  "enum",      "operator",  "co_return",
      "co_yield", "co_await", "sizeof", "public",  "private",   "protected",
      "default", "friend",  "volatile", "constexpr", "static"};
  return k;
}

/// Every `Type [<...>] [const|*|&|&&]... name` followed by a token that can
/// end a declarator, anywhere in the file: (name, last component of Type).
std::vector<std::pair<std::string, std::string>> collect_declarations(
    const Tokens& t) {
  std::vector<std::pair<std::string, std::string>> out;
  for (std::size_t j = 1; j + 1 < t.size(); ++j) {
    if (t[j].kind != Tok::kIdent) continue;
    const std::string& next = t[j + 1].text;
    if (next != ";" && next != "=" && next != "{" && next != "," &&
        next != ")" && next != "(" && next != ":" && next != "[") {
      continue;
    }
    std::size_t k = j - 1;
    while (k > 0 && (t[k].text == "*" || t[k].text == "&" ||
                     t[k].text == "&&" || t[k].text == "const")) {
      --k;
    }
    if (t[k].text == ">" || t[k].text == ">>") {
      const std::size_t lt = angles_open_backward(t, k);
      if (lt == npos || lt == 0) continue;
      k = lt - 1;
    }
    if (!is_ident(t, k) || non_type_words().count(t[k].text) ||
        control_keywords().count(t[k].text)) {
      continue;
    }
    if (k > 0 && (is(t, k - 1, ".") || is(t, k - 1, "->"))) continue;
    out.emplace_back(t[j].text, t[k].text);
  }
  return out;
}

struct Scope {
  enum Kind { kNamespace, kClass, kBlock } kind;
  std::string name;  // possibly "A::B" for nested-namespace definitions
};

struct Extractor {
  const Tokens& t;
  TranslationUnit& tu;
  std::vector<Scope> scopes;
  // Class bodies currently open, by scope depth, so the matching '}'
  // closes the right ClassInfo span.
  std::vector<std::pair<std::size_t, std::size_t>> open_classes;
  // (scope depth when opened, index into tu.classes)

  explicit Extractor(TranslationUnit& out) : t(out.tokens), tu(out) {}

  std::string qualified(const std::vector<std::string>& qual,
                        const std::string& name) const {
    std::string q;
    for (const Scope& s : scopes) {
      if (!s.name.empty()) {
        q += s.name;
        q += "::";
      }
    }
    for (const std::string& part : qual) {
      q += part;
      q += "::";
    }
    q += name;
    return q;
  }

  void pop_scope() {
    if (!open_classes.empty() && open_classes.back().first == scopes.size()) {
      open_classes.pop_back();
    }
    if (!scopes.empty()) scopes.pop_back();
  }

  // ------------------------------------------------------------------
  // Body analysis: calls + allocation evidence.
  // ------------------------------------------------------------------
  void analyze_body(std::size_t b, std::size_t e, FunctionInfo& fn) {
    std::set<std::string> local_containers;
    std::size_t i = b;
    while (i < e) {
      const Token& tok = t[i];
      if (tok.checked) {  // #ifdef STORMTUNE_CHECKED region
        ++i;
        continue;
      }
      if (tok.kind == Tok::kIdent) {
        // STORMTUNE_* macro invocations: the failure path may allocate
        // (message construction); skip the argument list wholesale.
        if (starts_with(tok.text, "STORMTUNE_") && is(t, i + 1, "(")) {
          const std::size_t j = skip_balanced(t, i + 1);
          i = j == npos ? i + 1 : j;
          continue;
        }
        // throw statements are the error path; skip to the ';'.
        if (tok.text == "throw") {
          int depth = 0;
          while (i < e) {
            const std::string& x = t[i].text;
            if (x == "(" || x == "[" || x == "{") ++depth;
            else if (x == ")" || x == "]" || x == "}") --depth;
            else if (x == ";" && depth == 0) break;
            ++i;
          }
          continue;
        }
        if (tok.text == "new" && !(i > b && is(t, i - 1, "operator"))) {
          fn.allocs.push_back(AllocSite{tok.line, "new expression"});
          ++i;
          continue;
        }
        // Local owning-container declaration:
        //   [std::] container [<...>] declarator {; = ( , {}
        if (owning_containers().count(tok.text) &&
            !(i > b && (is(t, i - 1, ".") || is(t, i - 1, "->")))) {
          std::size_t j = i + 1;
          if (is(t, j, "<")) {
            const std::size_t k = skip_angles(t, j);
            j = k;  // npos: not template args — fall through and reject
          }
          if (j != npos && is_ident(t, j) && !is(t, j, "final")) {
            const std::size_t after = j + 1;
            if (is(t, after, ";") || is(t, after, "=") ||
                is(t, after, "(") || is(t, after, "{") ||
                is(t, after, ",")) {
              fn.allocs.push_back(AllocSite{
                  tok.line, "function-local std::" + tok.text + " '" +
                                t[j].text + "' (fresh allocation per call)"});
              local_containers.insert(t[j].text);
              i = j;
              continue;
            }
          }
        }
      }
      if (tok.text == "(" && i > b) {
        // Resolve the callee name: ident( or templated ident<...>( .
        std::size_t name_i = npos;
        if (is_ident(t, i - 1)) {
          name_i = i - 1;
        } else if (is(t, i - 1, ">") || is(t, i - 1, ">>")) {
          const std::size_t lt = angles_open_backward(t, i - 1);
          if (lt != npos && lt > 0 && is_ident(t, lt - 1)) name_i = lt - 1;
        }
        if (name_i != npos) {
          const std::string& name = t[name_i].text;
          if (!control_keywords().count(name) &&
              !type_keywords().count(name) && !cast_keywords().count(name) &&
              name != "operator") {
            // Explicit qualifier chain A::B::name.
            std::vector<std::string> qual;
            std::size_t k = name_i;
            while (k >= 2 && is(t, k - 1, "::") && is_ident(t, k - 2)) {
              qual.insert(qual.begin(), t[k - 2].text);
              k -= 2;
            }
            const bool member =
                k > 0 && (is(t, k - 1, ".") || is(t, k - 1, "->"));
            std::string receiver;
            if (member && k >= 2 && is_ident(t, k - 2)) receiver = t[k - 2].text;

            if (member && growth_methods().count(name)) {
              if (!receiver.empty() && local_containers.count(receiver)) {
                fn.allocs.push_back(AllocSite{
                    t[name_i].line, "growth of function-local container '" +
                                        receiver + "' (" + name + ")"});
              }
              // Growth into persistent receivers (members, by-reference
              // parameters) is the audited high-water idiom; the dynamic
              // malloc-probe tests own that half of the guarantee.
            } else if (!member && alloc_calls().count(name) &&
                       (name.rfind("make_", 0) != 0 && name != "to_string"
                            ? true
                            : !qual.empty() && qual.back() == "std")) {
              // The std library names only count when written std::-qualified;
              // an unqualified to_string may be a project function (isa::
              // to_string returns const char*) and resolves via the call
              // graph instead.
              fn.allocs.push_back(
                  AllocSite{t[name_i].line, "call to " + name + "()"});
            } else if (!member && owning_containers().count(name)) {
              fn.allocs.push_back(AllocSite{
                  t[name_i].line,
                  "temporary std::" + name + " construction"});
            } else {
              CallSite c;
              c.name = name;
              c.qual = std::move(qual);
              c.line = t[name_i].line;
              c.member = member;
              c.receiver = receiver;
              fn.calls.push_back(std::move(c));
            }
          }
        }
      }
      ++i;
    }
  }

  // ------------------------------------------------------------------
  // Declaration-scope parsing.
  // ------------------------------------------------------------------

  /// Try to parse a function definition whose parameter list opens at
  /// `paren`. Returns the index to resume scanning from (past the body)
  /// or npos when this is not a function definition.
  std::size_t try_function(std::size_t paren) {
    const std::size_t name_i = paren - 1;
    const std::string& name = t[name_i].text;
    if (control_keywords().count(name) || type_keywords().count(name) ||
        cast_keywords().count(name)) {
      return npos;
    }
    std::size_t p = skip_balanced(t, paren);
    if (p == npos) return npos;
    // Qualifier / init-list scan until '{' (definition) or anything that
    // rules a definition out.
    while (p < t.size()) {
      const std::string& x = t[p].text;
      if (x == "const" || x == "noexcept" || x == "override" ||
          x == "final" || x == "mutable" || x == "&" || x == "&&" ||
          x == "throw" || x == "volatile" || x == "try") {
        ++p;
        if (p < t.size() && t[p].text == "(" &&
            (x == "noexcept" || x == "throw")) {
          p = skip_balanced(t, p);
          if (p == npos) return npos;
        }
      } else if (x == "->") {
        // Trailing return type: scan to the '{' or ';' at depth 0.
        ++p;
        while (p < t.size()) {
          const std::string& y = t[p].text;
          if (y == "{" || y == ";") break;
          if (y == "(" || y == "[") {
            const std::size_t k = skip_balanced(t, p);
            if (k == npos) return npos;
            p = k;
          } else if (y == "<") {
            const std::size_t k = skip_angles(t, p);
            if (k == npos) ++p; else p = k;
          } else {
            ++p;
          }
        }
      } else if (x == ":") {
        // Constructor initializer list.
        ++p;
        while (p < t.size()) {
          // ident chain (possibly templated / qualified)
          while (p < t.size() &&
                 (t[p].kind == Tok::kIdent || t[p].text == "::" ||
                  t[p].text == "...")) {
            ++p;
          }
          if (p < t.size() && t[p].text == "<") {
            const std::size_t k = skip_angles(t, p);
            if (k != npos) p = k;
            else ++p;
          }
          if (p >= t.size()) return npos;
          if (t[p].text == "(" || t[p].text == "{") {
            const bool was_brace_init = t[p].text == "{";
            const std::size_t k = skip_balanced(t, p);
            if (k == npos) return npos;
            p = k;
            if (p < t.size() && t[p].text == "...") ++p;
            if (p < t.size() && t[p].text == ",") {
              ++p;
              continue;
            }
            // End of init list: the next '{' is the body.
            if (p < t.size() && t[p].text == "{") break;
            if (was_brace_init && (p >= t.size() || t[p].text != "{")) {
              return npos;
            }
          } else {
            return npos;
          }
        }
      } else if (x == "{") {
        break;  // function body
      } else {
        return npos;  // ';' (declaration), '=', ',', ... — not a definition
      }
    }
    if (p >= t.size() || t[p].text != "{") return npos;

    // Qualifier chain preceding the name: A::B::name.
    std::vector<std::string> qual;
    std::size_t k = name_i;
    while (k >= 2 && is(t, k - 1, "::") && is_ident(t, k - 2)) {
      qual.insert(qual.begin(), t[k - 2].text);
      k -= 2;
    }
    // STORMTUNE_HOT marker: scan the declaration prelude back to the
    // previous statement/brace boundary (bounded window).
    bool hot = false;
    const std::size_t lo = k > 48 ? k - 48 : 0;
    for (std::size_t j = k; j-- > lo;) {
      const std::string& x = t[j].text;
      if (x == ";" || x == "}" || x == "{") break;
      if (x == "STORMTUNE_HOT") {
        hot = true;
        break;
      }
    }

    const std::size_t body_open = p;
    const std::size_t body_close = skip_balanced(t, body_open);
    if (body_close == npos) return npos;

    FunctionInfo fn;
    fn.name = name;
    fn.qualified = qualified(qual, name);
    fn.line = t[name_i].line;
    fn.hot = hot;
    for (const Scope& s : scopes) {
      if (s.kind == Scope::kNamespace && s.name.empty()) fn.internal = true;
    }
    analyze_body(body_open + 1, body_close - 1, fn);
    tu.functions.push_back(std::move(fn));
    return body_close;
  }

  /// Parse `class`/`struct` at declaration scope starting at `i` (the
  /// keyword). Returns the resume index (just past the '{' with the scope
  /// pushed, or past the declaration when it is not a definition).
  std::size_t parse_class(std::size_t i) {
    std::size_t j = i + 1;
    // Skip attributes: [[...]] / alignas(...).
    while (j < t.size()) {
      if (t[j].text == "[") {
        const std::size_t k = skip_balanced(t, j);
        if (k == npos) break;
        j = k;
      } else if (t[j].text == "alignas" && is(t, j + 1, "(")) {
        const std::size_t k = skip_balanced(t, j + 1);
        if (k == npos) break;
        j = k;
      } else {
        break;
      }
    }
    std::string name;
    std::size_t name_line = t[i].line;
    if (is_ident(t, j)) {
      name = t[j].text;
      name_line = t[j].line;
      ++j;
    }
    if (is(t, j, "<")) {  // explicit specialization
      const std::size_t k = skip_angles(t, j);
      if (k != npos) j = k;
    }
    if (is(t, j, "final")) ++j;
    std::vector<std::string> bases;
    if (is(t, j, ":")) {
      ++j;
      std::string last_ident;
      while (j < t.size() && t[j].text != "{" && t[j].text != ";") {
        if (t[j].kind == Tok::kIdent && t[j].text != "public" &&
            t[j].text != "protected" && t[j].text != "private" &&
            t[j].text != "virtual") {
          last_ident = t[j].text;
        } else if (t[j].text == "<") {
          const std::size_t k = skip_angles(t, j);
          if (k != npos) {
            j = k;
            continue;
          }
        } else if (t[j].text == ",") {
          if (!last_ident.empty()) bases.push_back(last_ident);
          last_ident.clear();
        }
        ++j;
      }
      if (!last_ident.empty()) bases.push_back(last_ident);
    }
    if (!is(t, j, "{")) return j;  // forward declaration / variable
    ClassInfo ci;
    ci.name = name;
    ci.bases = std::move(bases);
    ci.line = name_line;
    ci.body_begin = j + 1;
    const std::size_t close = skip_balanced(t, j);
    ci.body_end = close == npos ? t.size() : close - 1;
    scopes.push_back(Scope{Scope::kClass, name});
    open_classes.emplace_back(scopes.size(), tu.classes.size());
    tu.classes.push_back(std::move(ci));
    return j + 1;
  }

  void run() {
    std::size_t i = 0;
    while (i < t.size()) {
      const Token& tok = t[i];
      if (tok.kind == Tok::kIdent) {
        if (tok.text == "namespace") {
          std::size_t j = i + 1;
          std::string name;
          while (is_ident(t, j) || is(t, j, "::")) {
            name += t[j].text;
            ++j;
          }
          if (is(t, j, "{")) {
            scopes.push_back(Scope{Scope::kNamespace, name});
            i = j + 1;
            continue;
          }
          // namespace alias or using-directive tail: skip to ';'
          while (j < t.size() && t[j].text != ";") ++j;
          i = j + 1;
          continue;
        }
        if ((tok.text == "class" || tok.text == "struct" ||
             tok.text == "union") &&
            !(i > 0 && is(t, i - 1, "enum"))) {
          i = parse_class(i);
          continue;
        }
        if (tok.text == "enum") {
          std::size_t j = i + 1;
          while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
          if (is(t, j, "{")) {
            const std::size_t k = skip_balanced(t, j);
            i = k == npos ? j + 1 : k;
          } else {
            i = j + 1;
          }
          continue;
        }
        if (tok.text == "using" || tok.text == "typedef" ||
            tok.text == "friend") {
          while (i < t.size() && t[i].text != ";") {
            if (t[i].text == "{") {
              const std::size_t k = skip_balanced(t, i);
              if (k == npos) break;
              i = k;
              continue;
            }
            ++i;
          }
          ++i;
          continue;
        }
        if (tok.text == "template" && is(t, i + 1, "<")) {
          const std::size_t k = skip_angles(t, i + 1);
          i = k == npos ? i + 1 : k;
          continue;
        }
      }
      if (tok.text == "=") {
        // Variable initializer at declaration scope (may contain lambdas
        // with braces): skip to the ';' at depth 0.
        int depth = 0;
        while (i < t.size()) {
          const std::string& x = t[i].text;
          if (x == "(" || x == "[" || x == "{") ++depth;
          else if (x == ")" || x == "]" || x == "}") --depth;
          else if (x == ";" && depth == 0) break;
          ++i;
        }
        ++i;
        continue;
      }
      if (tok.text == "(" && i > 0 && is_ident(t, i - 1)) {
        const std::size_t resume = try_function(i);
        if (resume != npos) {
          i = resume;
          continue;
        }
      }
      if (tok.text == "{") {
        scopes.push_back(Scope{Scope::kBlock, ""});
        ++i;
        continue;
      }
      if (tok.text == "}") {
        pop_scope();
        ++i;
        continue;
      }
      ++i;
    }
  }
};

}  // namespace

TranslationUnit index_tu(std::string path, const std::string& text) {
  TranslationUnit tu;
  tu.path = std::move(path);
  tu.stripped = strip_comments_and_strings(text);
  tu.lines = split_lines(tu.stripped);
  tu.tokens = lex(tu.stripped);
  Extractor ex(tu);
  ex.run();
  tu.declarations = collect_declarations(tu.tokens);
  return tu;
}

}  // namespace detlint
