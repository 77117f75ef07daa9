// Pass 1 of the two-pass cross-file analyzer: per-file symbol extraction.
//
// sirius-lint grew beyond line-local regexes when keeping simulator runs
// independent and reproducible needed rules about *state*, not tokens:
// mutable globals (which two runs in one process would share), container
// fields whose iteration order leaks into results. Those need to know what
// a file *declares*, and one of them (no-unordered-sim-state) needs the
// include graph of the whole scanned set.
//
// So the linter now runs in two passes:
//
//   pass 1 (this header): every file is scrubbed (comments/strings blanked)
//     and walked by a lightweight structural scanner that tracks the scope
//     stack (namespace / class / function / loop / brace-init) well enough
//     to extract a FileIndex: namespace-scope and function-`static` mutable
//     variables, class fields with their declared type text, `#include`
//     edges, identifiers declared with floating-point type, per-line
//     enclosing-function names and loop depth, and every
//     `sirius-lint: allow(...)` suppression site.
//
//   pass 2 (evaluate_tree): the merged index is evaluated against the
//     cross-file rules (see docs/STATIC_ANALYSIS.md for the
//     full table) — e.g. sim-reachability is the transitive closure of the
//     include edges from src/sim, and the allowlist cross-check compares
//     suppression sites against tools/sirius_lint/ALLOWLIST.md.
//
// The scanner is deliberately a heuristic, not a C++ parser: it is tuned to
// the tree's enforced style (clang-format, no macros that open scopes) and
// prefers false negatives over false positives. Anything it cannot classify
// is ignored.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "linter.hpp"

namespace sirius::lint {

/// One data member of a class/struct, as declared.
struct Field {
  std::string klass;      ///< enclosing class name ("" if anonymous)
  std::string type_text;  ///< declaration text left of the member name
  std::string name;
  int line = 0;  ///< 1-based
};

/// A mutable namespace-scope variable, static data member, or
/// function-local `static` — state two runs in one process would share.
struct GlobalVar {
  std::string name;
  int line = 0;                ///< 1-based
  bool function_local = false; ///< `static` inside a function body
  bool is_thread_local = false;
  std::string type_text;       ///< declaration text left of the name
};

/// One `sirius-lint: allow(<rule>)` comment occurrence.
struct AllowSite {
  int line = 0;  ///< 1-based
  std::string rule;
};

/// One quoted `#include "target"` directive.
struct IncludeEdge {
  std::string target;
  int line = 0;  ///< 1-based
};

/// A function definition head (free function, out-of-line method, or
/// in-class inline method). Keyed by unqualified name: the call graph in
/// pass 2 is deliberately name-conservative (same-named functions merge),
/// so hot-path reachability over-approximates rather than misses.
struct FunctionDef {
  std::string klass;  ///< enclosing class when defined in-class ("" else)
  std::string name;   ///< unqualified name
  int line = 0;       ///< 1-based line of the definition head
  bool hot = false;   ///< head carries SIRIUS_HOT
  std::string signature;  ///< head text, macros stripped (for the copy rule)
};

/// A `;`-terminated function/method declaration (class body or namespace
/// scope). Feeds hot-root marking, the virtual-dispatch rule, and the
/// dead-public-symbol report.
struct MethodDecl {
  std::string klass;  ///< "" for free-function declarations
  std::string name;
  int line = 0;  ///< 1-based
  bool hot = false;
  bool is_virtual = false;
  bool is_final = false;
  std::string signature;  ///< declaration text, macros stripped
};

/// A class/struct definition head.
struct ClassDecl {
  std::string name;
  int line = 0;          ///< 1-based
  bool is_final = false;
};

/// Everything pass 1 knows about one file.
struct FileIndex {
  std::string path;            ///< real path (reported in violations)
  std::string effective_path;  ///< classification path (--classify-as)
  FileKind kind;
  std::vector<IncludeEdge> includes;  ///< quoted #include targets
  std::vector<Field> fields;
  std::vector<GlobalVar> globals;
  std::vector<AllowSite> allows;
  std::vector<FunctionDef> fns;      ///< function definition heads
  std::vector<MethodDecl> decls;     ///< `;`-terminated fn/method decls
  std::vector<ClassDecl> classes;    ///< class/struct definition heads
  std::vector<std::string> float_names;  ///< declared double/float idents
  // Per-line structural context, 0-based, parallel to `lines`.
  std::vector<std::string> lines;         ///< scrubbed code lines
  std::vector<std::string> comments;      ///< comment text per line
  std::vector<int> loop_depth;            ///< enclosing for/while/do count
  std::vector<std::string> enclosing_fn;  ///< innermost function name, "" = none
  std::vector<bool> in_ctor;              ///< enclosing function is a ctor
};

/// Runs the pass-1 scanner over one file's contents. `reported_path` is what
/// violations cite; `effective_path` is what path-scoped rules see (differs
/// only under --classify-as).
FileIndex index_text(const std::string& text, const std::string& reported_path,
                     const std::string& effective_path, const FileKind& kind);

/// Optional pass-2 analyses (CLI flags).
struct EvalOptions {
  /// Emit the dead-public-symbol report (off by default: it is a review
  /// aid, not a gate — a symbol used only outside the scanned set would
  /// be a false positive in a partial scan).
  bool dead_symbols = false;
};

/// Pass 2: evaluates the cross-file rules over the merged
/// index. `allowlist_path` enables the ALLOWLIST.md sync check when
/// non-empty. Suppression comments are honoured exactly like pass-1 rules.
std::vector<Violation> evaluate_tree(const std::vector<FileIndex>& files,
                                     const std::string& allowlist_path,
                                     const EvalOptions& opts = {});

}  // namespace sirius::lint
