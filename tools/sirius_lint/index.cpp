// Pass 1 (structural scanner) and pass 2 (cross-file rules) of the
// cross-file analyzer. See index.hpp for the architecture overview and
// docs/STATIC_ANALYSIS.md for the rule table.
//
// The scanner walks the scrubbed code view character by character keeping a
// scope stack. Each brace scope gets its own statement accumulator, so an
// inner scope (a brace initialiser, a lambda body inside a call argument)
// never corrupts the statement being collected in the scope around it.
// Brace-initialiser scopes are "transparent": popping them leaves the outer
// accumulator intact, so `std::atomic<Mode> g_mode{kAbort};` is seen as one
// statement `std::atomic<Mode> g_mode` when the `;` finally arrives.
#include "index.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace fs = std::filesystem;

namespace sirius::lint {
namespace {

// ---- small text helpers ----------------------------------------------------

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string trim(const std::string& s) {
  const auto a = s.find_first_not_of(" \t\r\n");
  if (a == std::string::npos) return "";
  const auto b = s.find_last_not_of(" \t\r\n");
  return s.substr(a, b - a + 1);
}

/// Identifier tokens of `s`, in order.
std::vector<std::string> ident_tokens(const std::string& s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    if (ident_char(s[i]) && !std::isdigit(static_cast<unsigned char>(s[i]))) {
      std::size_t j = i;
      while (j < s.size() && ident_char(s[j])) ++j;
      out.push_back(s.substr(i, j - i));
      i = j;
    } else if (ident_char(s[i])) {
      // number (possibly with suffix letters): skip as one unit
      std::size_t j = i;
      while (j < s.size() && (ident_char(s[j]) || s[j] == '.')) ++j;
      i = j;
    } else {
      ++i;
    }
  }
  return out;
}

bool has_token(const std::string& s, const std::string& tok) {
  std::size_t pos = 0;
  while ((pos = s.find(tok, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(s[pos - 1]);
    const std::size_t end = pos + tok.size();
    const bool right_ok = end >= s.size() || !ident_char(s[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

bool has_any_token(const std::string& s,
                   std::initializer_list<const char*> toks) {
  for (const char* t : toks) {
    if (has_token(s, t)) return true;
  }
  return false;
}

/// Control keywords a misread definition head could surface as a
/// "function" name; never record them as definitions or declarations (a
/// phantom `if` entry would wire every if-statement into the call graph).
bool is_cpp_keyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "if",     "else",    "for",      "while",         "do",
      "switch", "case",    "default",  "return",        "break",
      "continue", "goto",  "try",      "catch",         "throw",
      "new",    "delete",  "sizeof",   "alignof",       "decltype",
      "static_assert",     "co_await", "co_return",     "co_yield"};
  return kKeywords.count(name) != 0;
}

/// Strips SIRIUS_* attribute macros (SIRIUS_HOT) and alignas(...) from a
/// statement (with or without an argument list), so declarations classify
/// the same annotated and bare.
std::string strip_attr_macros(const std::string& s) {
  static const std::regex with_args(
      R"((\bSIRIUS_[A-Z_]+|\balignas)\s*\(([^()]|\([^()]*\))*\))");
  static const std::regex bare(R"(\bSIRIUS_[A-Z_]+\b)");
  return std::regex_replace(std::regex_replace(s, with_args, " "), bare, " ");
}

/// Finds the first "top-level" occurrence of `want` in `s`: outside (), [],
/// and a best-effort reading of template <>. Returns npos when absent.
/// `want` must be a single char; ':' means a lone colon (not '::').
std::size_t find_top_level(const std::string& s, char want) {
  int paren = 0, bracket = 0, angle = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char prev = i > 0 ? s[i - 1] : '\0';
    const char next = i + 1 < s.size() ? s[i + 1] : '\0';
    // The match test runs before the depth update, so an opening bracket
    // can itself be found at top level.
    if (c == want && paren == 0 && bracket == 0 && angle == 0) {
      const bool colon_part_of_scope =
          want == ':' && (prev == ':' || next == ':');
      const bool eq_part_of_operator =
          want == '=' &&
          (prev == '=' || prev == '!' || prev == '<' || prev == '>' ||
           prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
           prev == '|' || prev == '&' || prev == '^' || prev == '%' ||
           next == '=');
      if (!colon_part_of_scope && !eq_part_of_operator) return i;
    }
    if (c == '(') {
      ++paren;
    } else if (c == ')') {
      paren = std::max(0, paren - 1);
    } else if (c == '[') {
      ++bracket;
    } else if (c == ']') {
      bracket = std::max(0, bracket - 1);
    } else if (c == '<' && next != '<' && next != '=' && prev != '<') {
      // Angle opens only after an identifier/:: tail (template-arg-ish).
      std::size_t p = s.find_last_not_of(" \t", i == 0 ? 0 : i - 1);
      if (i > 0 && p != std::string::npos &&
          (ident_char(s[p]) || s[p] == ':' || s[p] == '>')) {
        ++angle;
      }
    } else if (c == '>' && angle > 0 && prev != '-') {
      --angle;
    }
  }
  return std::string::npos;
}

/// Removes every [...] group (array extents) — non-nesting is fine here.
std::string strip_brackets(const std::string& s) {
  static const std::regex re(R"(\[[^\][]*\])");
  return std::regex_replace(s, re, "");
}

/// Removes the contents of template argument lists, keeping the <>, so
/// `std::function<void(Foo&)>` stops looking like it has a ref/paren.
std::string strip_angle_contents(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  int angle = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char prev = i > 0 ? s[i - 1] : '\0';
    const char next = i + 1 < s.size() ? s[i + 1] : '\0';
    if (c == '<' && next != '<' && prev != '<' && i > 0 &&
        (ident_char(prev) || prev == ':' || prev == '>')) {
      if (angle == 0) out += '<';
      ++angle;
      continue;
    }
    if (c == '>' && angle > 0 && prev != '-') {
      --angle;
      if (angle == 0) out += '>';
      continue;
    }
    if (angle == 0) out += c;
  }
  return out;
}

/// Declaration name: last identifier token of the declarator part (array
/// extents stripped). Empty when the text has fewer than two identifier
/// tokens (not a type+name declaration).
std::string decl_name(const std::string& decl) {
  const auto toks = ident_tokens(strip_brackets(decl));
  return toks.size() >= 2 ? toks.back() : std::string();
}

// ---- the structural scanner ------------------------------------------------

struct Scope {
  enum Kind { kNamespace, kClass, kEnum, kFunction, kLoop, kBlock, kInit };
  Kind kind = kBlock;
  std::string name;       // class name / function name
  bool is_ctor = false;   // Function scopes only
  bool is_lambda = false; // Function scopes only: a lambda body (named after
                          // its enclosing function so per-line attribution
                          // and hot-path reachability see through it)
};

struct Pending {
  std::string text;
  int first_line = -1;  // 0-based line of the first non-space char
  int paren_depth = 0;
};

class Scanner {
 public:
  Scanner(const std::string& text, const std::string& reported_path,
          const std::string& effective_path, const FileKind& kind) {
    idx_.path = reported_path;
    idx_.effective_path = effective_path;
    idx_.kind = kind;
    idx_.lines = split_lines(scrub(text, &idx_.comments));
    const std::size_t n = idx_.lines.size();
    idx_.loop_depth.assign(n, 0);
    idx_.enclosing_fn.assign(n, "");
    idx_.in_ctor.assign(n, false);
    collect_includes(text);
    collect_allows();
  }

  FileIndex run() {
    pendings_.push_back(Pending{});
    bool in_preprocessor = false;  // inside a #directive (incl. \-continued)
    for (std::size_t li = 0; li < idx_.lines.size(); ++li) {
      line_ = static_cast<int>(li);
      record_line_state(li);
      const std::string& ln = idx_.lines[li];
      const auto first = ln.find_first_not_of(" \t");
      if (in_preprocessor ||
          (first != std::string::npos && ln[first] == '#')) {
        // Preprocessor logical lines (a #define body is not code in scope).
        const std::string t = rtrim(ln);
        in_preprocessor = !t.empty() && t.back() == '\\';
        continue;
      }
      scan_line(ln);
    }
    // An unterminated trailing statement (no final ';') is dropped — the
    // scanner prefers missing a declaration over misreading one.
    return std::move(idx_);
  }

 private:
  void collect_includes(const std::string& raw) {
    static const std::regex re(R"re(^\s*#\s*include\s*"([^"]+)")re");
    const auto lines = split_lines(raw);
    for (std::size_t li = 0; li < lines.size(); ++li) {
      std::smatch m;
      if (std::regex_search(lines[li], m, re)) {
        idx_.includes.push_back(
            IncludeEdge{m[1].str(), static_cast<int>(li) + 1});
      }
    }
  }

  void collect_allows() {
    static const std::regex re(R"(sirius-lint:\s*allow\(([^)]*)\))");
    for (std::size_t li = 0; li < idx_.comments.size(); ++li) {
      const std::string& c = idx_.comments[li];
      for (auto it = std::sregex_iterator(c.begin(), c.end(), re);
           it != std::sregex_iterator(); ++it) {
        std::istringstream ss((*it)[1].str());
        std::string item;
        while (std::getline(ss, item, ',')) {
          const std::string rule = trim(item);
          if (!rule.empty()) {
            idx_.allows.push_back(
                AllowSite{static_cast<int>(li) + 1, rule});
          }
        }
      }
    }
  }

  int loop_count() const {
    int n = 0;
    for (const Scope& s : scopes_) n += s.kind == Scope::kLoop ? 1 : 0;
    return n;
  }

  const Scope* innermost_fn() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kFunction) return &*it;
    }
    return nullptr;
  }

  /// The scope that gives a `;`-terminated statement its meaning: the
  /// innermost function, class, or namespace (Init/Loop/Block/Enum are
  /// transparent). Returns nullptr at file scope.
  const Scope* decl_context() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kFunction || it->kind == Scope::kClass ||
          it->kind == Scope::kNamespace || it->kind == Scope::kEnum) {
        return &*it;
      }
    }
    return nullptr;
  }

  void record_line_state(std::size_t li) {
    idx_.loop_depth[li] = std::max(idx_.loop_depth[li], loop_count());
    if (const Scope* fn = innermost_fn()) {
      idx_.enclosing_fn[li] = fn->name;
      idx_.in_ctor[li] = idx_.in_ctor[li] || fn->is_ctor;
    }
  }

  void scan_line(const std::string& ln) {
    for (std::size_t i = 0; i < ln.size(); ++i) {
      const char c = ln[i];
      Pending& p = pendings_.back();
      if (c == '{') {
        push_scope();
      } else if (c == '}') {
        pop_scope();
      } else if (c == ';' && p.paren_depth == 0) {
        handle_statement();
      } else {
        if (c == '(') ++p.paren_depth;
        if (c == ')') p.paren_depth = std::max(0, p.paren_depth - 1);
        append(c);
        if (c == ':') maybe_clear_access_specifier();
      }
    }
    append(' ');
  }

  void append(char c) {
    Pending& p = pendings_.back();
    if (c == ' ' || c == '\t') {
      if (!p.text.empty() && p.text.back() != ' ') p.text += ' ';
      return;
    }
    if (p.first_line < 0) p.first_line = line_;
    p.text += c;
  }

  void maybe_clear_access_specifier() {
    Pending& p = pendings_.back();
    const std::string t = trim(p.text);
    if (t == "public:" || t == "private:" || t == "protected:") {
      p.text.clear();
      p.first_line = -1;
    }
  }

  void push_scope() {
    Pending& p = pendings_.back();
    const std::string raw = trim(p.text);
    const int head_line = p.first_line < 0 ? line_ : p.first_line;
    scopes_.push_back(classify_brace(raw));
    const Scope& s = scopes_.back();
    if (s.kind == Scope::kFunction && !s.is_lambda && !s.name.empty() &&
        !is_cpp_keyword(s.name)) {
      FunctionDef fd;
      fd.name = s.name;
      fd.line = head_line + 1;
      fd.hot = has_token(raw, "SIRIUS_HOT");
      fd.signature = trim(strip_attr_macros(raw));
      // The defining scope, seen from outside this new function scope.
      if (scopes_.size() >= 2) {
        for (auto it = std::next(scopes_.rbegin()); it != scopes_.rend();
             ++it) {
          if (it->kind == Scope::kFunction || it->kind == Scope::kClass ||
              it->kind == Scope::kNamespace) {
            if (it->kind == Scope::kClass) fd.klass = it->name;
            break;
          }
        }
      }
      idx_.fns.push_back(fd);
      if (!fd.klass.empty()) {
        // An in-class definition is also a declaration: record it so the
        // virtual-dispatch rule sees inline-defined virtual methods.
        MethodDecl md;
        md.klass = fd.klass;
        md.name = fd.name;
        md.line = fd.line;
        md.hot = fd.hot;
        md.is_virtual = has_token(fd.signature, "virtual");
        md.is_final = has_token(fd.signature, "final");
        md.signature = fd.signature;
        idx_.decls.push_back(md);
      }
    } else if (s.kind == Scope::kClass && !s.name.empty()) {
      ClassDecl cd;
      cd.name = s.name;
      cd.line = head_line + 1;
      cd.is_final = has_token(trim(strip_attr_macros(raw)), "final");
      idx_.classes.push_back(cd);
    }
    if (s.kind == Scope::kLoop || s.kind == Scope::kFunction) {
      // A loop / function opening on this line affects the rest of it.
      record_line_state(static_cast<std::size_t>(line_));
    }
    pendings_.push_back(Pending{});
  }

  void pop_scope() {
    if (scopes_.empty()) return;  // unbalanced (e.g. a macro'd brace): bail
    const Scope popped = scopes_.back();
    scopes_.pop_back();
    pendings_.pop_back();
    if (popped.kind != Scope::kInit) {
      // A real scope ended: whatever introduced it is consumed.
      pendings_.back().text.clear();
      pendings_.back().first_line = -1;
    }
  }

  /// A lambda body counts as part of its enclosing function: per-line
  /// attribution, ctor detection and hot-path reachability all see through
  /// it (a lambda defined inside a hot function runs on the hot path).
  void make_lambda(Scope& s) const {
    s.kind = Scope::kFunction;
    s.is_lambda = true;
    if (const Scope* fn = innermost_fn()) {
      s.name = fn->name;
      s.is_ctor = fn->is_ctor;
    } else {
      s.name = "<lambda>";
    }
  }

  /// Decides what kind of scope a `{` opens, from the statement text
  /// accumulated since the last boundary. Mirrors the decision table in
  /// docs/STATIC_ANALYSIS.md; unknown shapes become transparent kInit so a
  /// misread never swallows surrounding declarations.
  Scope classify_brace(const std::string& raw_pending) const {
    Scope s;
    if (pendings_.back().paren_depth > 0) {
      // `{` inside an argument list: a lambda body (capture list present)
      // or an initialiser-list argument. Both leave the outer statement
      // alone; a lambda additionally becomes the enclosing function.
      if (raw_pending.find('[') != std::string::npos) {
        make_lambda(s);
      } else {
        s.kind = Scope::kInit;
      }
      return s;
    }
    const std::string pending = trim(strip_attr_macros(raw_pending));
    if (pending.empty()) {
      s.kind = Scope::kBlock;
      return s;
    }
    const auto toks = ident_tokens(pending);
    if (toks.empty()) {
      s.kind = Scope::kInit;  // pure-symbol pending: an initialiser shape
      return s;
    }
    if (has_token(pending, "enum")) {
      s.kind = Scope::kEnum;
      return s;
    }
    if (has_token(pending, "namespace") || toks.front() == "extern") {
      s.kind = Scope::kNamespace;
      return s;
    }
    const std::size_t eq = find_top_level(pending, '=');
    const std::size_t paren = find_top_level(pending, '(');
    if ((has_token(pending, "class") || has_token(pending, "struct") ||
         has_token(pending, "union")) &&
        paren == std::string::npos && eq == std::string::npos) {
      s.kind = Scope::kClass;
      // name: identifier right after the keyword
      for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i] == "class" || toks[i] == "struct" || toks[i] == "union") {
          s.name = toks[i + 1];
          break;
        }
      }
      return s;
    }
    if (toks.front() == "for" || toks.front() == "while" ||
        toks.front() == "do") {
      s.kind = Scope::kLoop;
      return s;
    }
    if (toks.front() == "if" || toks.front() == "switch" ||
        toks.front() == "else" || toks.front() == "try" ||
        toks.front() == "catch" || toks.front() == "case" ||
        toks.front() == "default") {
      // `case X:` / `default:` prefixes mean a control brace inside a
      // switch body, never a definition head.
      s.kind = Scope::kBlock;
      return s;
    }
    if (eq != std::string::npos) {
      // `x = [captures](args)` opens a lambda body; any other initialiser
      // brace is transparent.
      if (pending.find('[', eq) != std::string::npos) {
        make_lambda(s);
      } else {
        s.kind = Scope::kInit;
      }
      return s;
    }
    if (paren != std::string::npos) {
      s.kind = Scope::kFunction;
      // name: identifier immediately before the first top-level '('
      const std::string head = trim(pending.substr(0, paren));
      const auto head_toks = ident_tokens(head);
      if (!head_toks.empty()) s.name = head_toks.back();
      if (!s.name.empty()) {
        // ctor: `X::X(` or a function named like its enclosing class
        const std::string qual = s.name + "::" + s.name;
        if (head.size() >= qual.size() &&
            head.compare(head.size() - qual.size(), qual.size(), qual) == 0) {
          s.is_ctor = true;
        } else if (const Scope* ctx = decl_context();
                   ctx && ctx->kind == Scope::kClass && ctx->name == s.name) {
          s.is_ctor = true;
        }
      }
      return s;
    }
    s.kind = Scope::kInit;  // `Type name{...}` and anything unrecognised
    return s;
  }

  void handle_statement() {
    Pending& p = pendings_.back();
    const std::string stmt = trim(p.text);
    const int stmt_line = p.first_line < 0 ? line_ : p.first_line;
    p.text.clear();
    p.first_line = -1;
    if (stmt.empty()) return;
    const Scope* ctx = decl_context();
    if (ctx && ctx->kind == Scope::kFunction) {
      handle_local(stmt, stmt_line);
    } else if (ctx && ctx->kind == Scope::kClass) {
      handle_field(stmt, stmt_line, ctx->name);
    } else if (!ctx || ctx->kind == Scope::kNamespace) {
      handle_global(stmt, stmt_line);
    }
    // kEnum: enumerators, nothing to extract.
  }

  void note_float_decl(const std::string& decl) {
    if (has_token(decl, "double") || has_token(decl, "float")) {
      const std::string name = decl_name(decl);
      if (!name.empty()) idx_.float_names.push_back(name);
    }
  }

  /// Statement directly in a namespace / at file scope.
  void handle_global(const std::string& raw, int line0) {
    const std::string stmt = trim(strip_attr_macros(raw));
    if (stmt.empty()) return;
    const auto toks = ident_tokens(stmt);
    if (toks.size() < 2) return;
    if (has_any_token(stmt, {"using", "typedef", "extern", "friend",
                             "template", "static_assert", "operator",
                             "namespace", "struct", "class", "enum", "union",
                             "concept", "requires"})) {
      return;
    }
    if (has_any_token(stmt, {"const", "constexpr"})) return;
    const std::size_t eq = find_top_level(stmt, '=');
    const std::string decl =
        eq == std::string::npos ? stmt : trim(stmt.substr(0, eq));
    const std::size_t gparen = find_top_level(decl, '(');
    if (gparen != std::string::npos) {  // free-function declaration
      const auto head_toks = ident_tokens(trim(decl.substr(0, gparen)));
      if (!head_toks.empty() && !is_cpp_keyword(head_toks.back())) {
        MethodDecl md;
        md.name = head_toks.back();
        md.line = line0 + 1;
        md.hot = has_token(raw, "SIRIUS_HOT");
        md.signature = decl;
        idx_.decls.push_back(md);
      }
      return;
    }
    const std::string name = decl_name(decl);
    if (name.empty()) return;
    GlobalVar g;
    g.name = name;
    g.line = line0 + 1;
    g.function_local = false;
    g.is_thread_local = has_token(stmt, "thread_local");
    g.type_text = decl;
    idx_.globals.push_back(g);
    note_float_decl(decl);
  }

  /// Statement directly in a class body: member declarations.
  void handle_field(const std::string& raw, int line0,
                    const std::string& klass) {
    const std::string stmt = trim(strip_attr_macros(raw));
    if (stmt.empty()) return;
    if (has_any_token(stmt, {"using", "typedef", "friend", "template",
                             "static_assert", "operator", "public",
                             "private", "protected"})) {
      return;
    }
    const auto toks = ident_tokens(stmt);
    if (toks.size() < 2) return;
    if (toks.front() == "struct" || toks.front() == "class" ||
        toks.front() == "enum" || toks.front() == "union") {
      return;  // nested forward declaration
    }
    if (has_token(stmt, "static")) {
      // static data member: mutable class-wide state
      if (has_any_token(stmt, {"const", "constexpr"})) return;
      const std::size_t eq = find_top_level(stmt, '=');
      std::string decl = eq == std::string::npos ? stmt : trim(stmt.substr(0, eq));
      if (find_top_level(decl, '(') != std::string::npos) return;
      const std::string name = decl_name(decl);
      if (name.empty()) return;
      GlobalVar g;
      g.name = klass.empty() ? name : klass + "::" + name;
      g.line = line0 + 1;
      g.type_text = decl;
      idx_.globals.push_back(g);
      return;
    }
    std::size_t eq = find_top_level(stmt, '=');
    std::string decl = eq == std::string::npos ? stmt : trim(stmt.substr(0, eq));
    const std::size_t mparen = find_top_level(decl, '(');
    if (mparen != std::string::npos) {  // method declaration
      const auto head_toks = ident_tokens(trim(decl.substr(0, mparen)));
      if (!head_toks.empty() && !is_cpp_keyword(head_toks.back())) {
        MethodDecl md;
        md.klass = klass;
        md.name = head_toks.back();
        md.line = line0 + 1;
        md.hot = has_token(raw, "SIRIUS_HOT");
        md.is_virtual = has_token(decl, "virtual");
        md.is_final = has_token(decl, "final");
        md.signature = decl;
        idx_.decls.push_back(md);
      }
      return;
    }
    const std::size_t colon = find_top_level(decl, ':');
    if (colon != std::string::npos) decl = trim(decl.substr(0, colon));  // bitfield
    const std::string name = decl_name(decl);
    if (name.empty()) return;
    Field f;
    f.klass = klass;
    f.name = name;
    f.line = line0 + 1;
    const std::size_t at = decl.rfind(name);
    f.type_text = trim(at == std::string::npos ? decl : decl.substr(0, at));
    idx_.fields.push_back(f);
    note_float_decl(decl);
  }

  /// Statement inside a function body: function-local statics + float names.
  void handle_local(const std::string& raw, int line0) {
    const std::string stmt = trim(strip_attr_macros(raw));
    if (stmt.empty()) return;
    const auto toks = ident_tokens(stmt);
    if (toks.empty()) return;
    static const std::set<std::string> kStmtKeywords = {
        "return", "if",    "for",   "while", "do",   "else",
        "switch", "case",  "break", "continue", "goto", "delete",
        "throw",  "using", "typedef"};
    if (kStmtKeywords.count(toks.front()) != 0) return;
    const std::size_t eq = find_top_level(stmt, '=');
    const std::string decl =
        eq == std::string::npos ? stmt : trim(stmt.substr(0, eq));
    if (has_token(stmt, "static") || has_token(stmt, "thread_local")) {
      if (!has_any_token(stmt, {"const", "constexpr"}) &&
          find_top_level(decl, '(') == std::string::npos) {
        const std::string name = decl_name(decl);
        if (!name.empty()) {
          GlobalVar g;
          g.name = name;
          g.line = line0 + 1;
          g.function_local = true;
          g.is_thread_local = has_token(stmt, "thread_local");
          g.type_text = decl;
          idx_.globals.push_back(g);
        }
      }
    }
    if (find_top_level(decl, '(') == std::string::npos) note_float_decl(decl);
  }

  FileIndex idx_;
  std::vector<Scope> scopes_;
  std::vector<Pending> pendings_;
  int line_ = 0;
};

// ---- pass-2 helpers --------------------------------------------------------

/// True when `p` (the effective path) contains the components `src/<sub>`
/// for any listed sub, or just `src` when subs is empty.
bool under_src(const std::string& p, std::initializer_list<const char*> subs) {
  const fs::path norm = fs::path(p).lexically_normal();
  auto it = norm.begin();
  for (; it != norm.end(); ++it) {
    if (*it == "src") {
      if (subs.size() == 0) return true;
      auto next = std::next(it);
      if (next == norm.end()) return false;
      for (const char* s : subs) {
        if (*next == s) return true;
      }
      return false;
    }
  }
  return false;
}

/// True when path `full` ends with the components of `suffix`.
bool path_ends_with(const std::string& full, const std::string& suffix) {
  const fs::path f = fs::path(full).lexically_normal();
  const fs::path s = fs::path(suffix).lexically_normal();
  std::vector<std::string> fc, sc;
  for (const auto& c : f) fc.push_back(c.string());
  for (const auto& c : s) sc.push_back(c.string());
  if (sc.empty() || sc.size() > fc.size()) return false;
  return std::equal(sc.rbegin(), sc.rend(), fc.rbegin());
}

void report(std::vector<Violation>& out, const FileIndex& f, int line,
            const char* rule, const std::string& msg) {
  if (suppressed(f.comments, line - 1, rule)) return;
  out.push_back(Violation{f.path, line, rule, msg});
}

// ---- pass-2 rules ----------------------------------------------------------

void rule_mutable_global(const std::vector<FileIndex>& files,
                         std::vector<Violation>& out) {
  for (const FileIndex& f : files) {
    if (!f.kind.is_src) continue;
    for (const GlobalVar& g : f.globals) {
      std::ostringstream msg;
      if (g.function_local) {
        msg << "function-local " << (g.is_thread_local ? "thread_local" : "static")
            << " `" << g.name << "`";
      } else {
        msg << "mutable " << (g.is_thread_local ? "thread_local" : "namespace-scope")
            << " state `" << g.name << "`";
      }
      msg << " in library code: two runs in one process would share it; "
             "move it into an owning object, or allow() with a written "
             "justification and an ALLOWLIST.md entry";
      report(out, f, g.line, "no-mutable-global-state", msg.str());
    }
  }
}

/// One resolved include edge: scanned-set index of the included file plus
/// the 1-based line of the directive in the including file.
struct ResolvedInclude {
  std::size_t target = 0;
  int line = 0;
};

/// Resolves every quoted include of every scanned file against the scanned
/// set. Targets resolve against both the real and the effective path of
/// every file (suffix match on path components, then unique-basename and
/// bare-basename fallbacks). Self-edges (a file including its own name) are
/// kept only when `keep_self` — the cycle rule wants them, reachability
/// does not.
std::vector<std::vector<ResolvedInclude>> resolve_includes(
    const std::vector<FileIndex>& files, bool keep_self) {
  const std::size_t n = files.size();
  std::vector<std::vector<ResolvedInclude>> edges(n);
  std::map<std::string, std::vector<std::size_t>> by_basename;
  for (std::size_t i = 0; i < n; ++i) {
    by_basename[fs::path(files[i].path).filename().string()].push_back(i);
    by_basename[fs::path(files[i].effective_path).filename().string()]
        .push_back(i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (const IncludeEdge& inc : files[i].includes) {
      const std::string base = fs::path(inc.target).filename().string();
      const auto it = by_basename.find(base);
      if (it == by_basename.end()) continue;
      for (std::size_t j : it->second) {
        if (j == i && !keep_self) continue;
        if (path_ends_with(files[j].path, inc.target) ||
            path_ends_with(files[j].effective_path, inc.target) ||
            it->second.size() == 1 ||
            fs::path(inc.target).filename() == inc.target) {
          edges[i].push_back(ResolvedInclude{j, inc.line});
        }
      }
    }
  }
  return edges;
}

void rule_unordered_sim_state(const std::vector<FileIndex>& files,
                              std::vector<Violation>& out) {
  // Sim-reachable = transitive closure of quoted-include edges starting
  // from files under src/sim.
  const std::size_t n = files.size();
  const auto edges = resolve_includes(files, /*keep_self=*/false);
  std::vector<char> reach(n, 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < n; ++i) {
    if (under_src(files[i].effective_path, {"sim"})) {
      reach[i] = 1;
      stack.push_back(i);
    }
  }
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    for (const ResolvedInclude& e : edges[i]) {
      if (!reach[e.target]) {
        reach[e.target] = 1;
        stack.push_back(e.target);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!reach[i] || !files[i].kind.is_src) continue;
    for (const Field& fld : files[i].fields) {
      if (has_any_token(fld.type_text,
                        {"unordered_map", "unordered_set",
                         "unordered_multimap", "unordered_multiset"})) {
        report(out, files[i], fld.line, "no-unordered-sim-state",
               "field `" + fld.name + "` of sim-reachable type `" +
                   fld.klass +
                   "` uses std::unordered_*: hash iteration order would "
                   "leak into the run's results; use std::map/set or "
                   "an index-keyed vector");
      }
    }
  }
}

void rule_pointer_key_order(const std::vector<FileIndex>& files,
                            std::vector<Violation>& out) {
  static const std::regex re(
      R"(std\s*::\s*(?:multi)?(?:map|set)\s*<\s*[^<>,;=]*\*|std\s*::\s*(?:less|greater)\s*<[^<>,;]*\*\s*>)");
  for (const FileIndex& f : files) {
    if (!f.kind.is_src) continue;
    for (std::size_t li = 0; li < f.lines.size(); ++li) {
      if (std::regex_search(f.lines[li], re)) {
        report(out, f, static_cast<int>(li) + 1, "no-pointer-key-order",
               "ordered container or comparator keyed on a pointer value: "
               "addresses differ run to run, so iteration order is not "
               "reproducible; key on a stable id instead");
      }
    }
  }
}

void rule_float_reduction(const std::vector<FileIndex>& files,
                          std::vector<Violation>& out) {
  static const std::regex re(R"(\b([A-Za-z_]\w*)\s*(\[[^\]]*\]\s*)?\+=)");
  for (const FileIndex& f : files) {
    if (!under_src(f.effective_path, {"stats", "esn"})) continue;
    if (!f.kind.is_src) continue;
    const std::set<std::string> floats(f.float_names.begin(),
                                       f.float_names.end());
    for (std::size_t li = 0; li < f.lines.size(); ++li) {
      if (f.loop_depth[li] == 0) continue;
      const std::string& ln = f.lines[li];
      for (auto it = std::sregex_iterator(ln.begin(), ln.end(), re);
           it != std::sregex_iterator(); ++it) {
        if (floats.count((*it)[1].str()) != 0) {
          report(out, f, static_cast<int>(li) + 1, "float-reduction-order",
                 "floating-point accumulation `" + (*it)[1].str() +
                     " +=` in a loop: the reduction order becomes part of "
                     "the result; document why the iteration order is "
                     "deterministic via allow(float-reduction-order)");
          break;
        }
      }
    }
  }
}

void rule_telemetry_escape(const std::vector<FileIndex>& files,
                           std::vector<Violation>& out) {
  static const std::regex re(
      R"((?:\.|->)\s*metrics\s*\(\s*\)|\bHub\s*::\s*instance\b)");
  for (const FileIndex& f : files) {
    if (!f.kind.is_src || under_src(f.effective_path, {"telemetry"})) continue;
    for (std::size_t li = 0; li < f.lines.size(); ++li) {
      if (!std::regex_search(f.lines[li], re)) continue;
      const std::string& fn = f.enclosing_fn[li];
      if (f.in_ctor[li] || fn.find("bind_metrics") != std::string::npos) {
        continue;  // the bound-at-init pattern
      }
      report(out, f, static_cast<int>(li) + 1, "singleton-telemetry-escape",
             "telemetry Hub registry access outside a constructor or "
             "bind_metrics(): bind instrument pointers once at init and "
             "use those on the hot path, so the slot loop never walks the "
             "registry");
    }
  }
}

// ---- hot-path call-graph rules ---------------------------------------------

/// Names reachable from a SIRIUS_HOT function head over the conservative
/// name-keyed call graph. Call sites are identifier-followed-by-`(`
/// occurrences inside function bodies, filtered to names the scanned set
/// defines or declares; same-named functions merge, so reachability
/// over-approximates (a false positive is silenced with allow(), a miss
/// would let an allocation into the slot kernel).
struct HotClosure {
  std::set<std::string> hot;
};

HotClosure build_hot_closure(const std::vector<FileIndex>& files) {
  std::set<std::string> known;
  std::set<std::string> seeds;
  for (const FileIndex& f : files) {
    for (const FunctionDef& fn : f.fns) {
      known.insert(fn.name);
      if (fn.hot) seeds.insert(fn.name);
    }
    for (const MethodDecl& d : f.decls) {
      known.insert(d.name);
      if (d.hot) seeds.insert(d.name);
    }
  }
  static const std::regex call_re(R"(([A-Za-z_][A-Za-z0-9_]*)\s*\()");
  std::map<std::string, std::set<std::string>> edges;
  for (const FileIndex& f : files) {
    for (std::size_t li = 0; li < f.lines.size(); ++li) {
      const std::string& caller = f.enclosing_fn[li];
      if (caller.empty()) continue;
      for (auto it = std::sregex_iterator(f.lines[li].begin(),
                                          f.lines[li].end(), call_re);
           it != std::sregex_iterator(); ++it) {
        const std::string callee = (*it)[1].str();
        if (callee != caller && known.count(callee) != 0) {
          edges[caller].insert(callee);
        }
      }
    }
  }
  HotClosure hc;
  hc.hot = seeds;
  std::vector<std::string> stack(seeds.begin(), seeds.end());
  while (!stack.empty()) {
    const std::string cur = stack.back();
    stack.pop_back();
    const auto eit = edges.find(cur);
    if (eit == edges.end()) continue;
    for (const std::string& nxt : eit->second) {
      if (hc.hot.insert(nxt).second) stack.push_back(nxt);
    }
  }
  return hc;
}

bool line_is_hot(const HotClosure& hc, const FileIndex& f, std::size_t li) {
  const std::string& fn = f.enclosing_fn[li];
  return !fn.empty() && hc.hot.count(fn) != 0;
}

void rule_hot_path_alloc(const std::vector<FileIndex>& files,
                         const HotClosure& hc, std::vector<Violation>& out) {
  static const std::regex alloc_re(
      R"(\bnew\b|\b(?:malloc|calloc|realloc)\s*\(|\bmake_(?:unique|shared)\s*<)");
  static const std::regex func_re(R"(std\s*::\s*function\s*<)");
  static const std::regex grow_re(
      R"(\b([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[[^\]]*\]\s*)*\.\s*(push_back|emplace_back|push_front|emplace_front|emplace|insert|resize)\s*\()");
  static const std::regex presize_re(
      R"(\b([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[[^\]]*\]\s*)*\.\s*(?:reserve|resize|assign)\s*\()");

  // Pre-sizing sites anywhere in the scanned set exempt growth calls on the
  // same base identifier (the reserve-in-ctor pattern). A line cannot exempt
  // itself, so a bare hot-path resize still fires.
  struct Site {
    std::size_t file;
    std::size_t line;
  };
  std::map<std::string, std::vector<Site>> presized;
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (std::size_t li = 0; li < files[i].lines.size(); ++li) {
      for (auto it = std::sregex_iterator(files[i].lines[li].begin(),
                                          files[i].lines[li].end(), presize_re);
           it != std::sregex_iterator(); ++it) {
        presized[(*it)[1].str()].push_back(Site{i, li});
      }
    }
  }
  const auto exempt = [&presized](const std::string& base, std::size_t fi,
                                  std::size_t li) {
    const auto it = presized.find(base);
    if (it == presized.end()) return false;
    for (const Site& s : it->second) {
      if (s.file != fi || s.line != li) return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < files.size(); ++i) {
    const FileIndex& f = files[i];
    if (!f.kind.is_src) continue;
    for (std::size_t li = 0; li < f.lines.size(); ++li) {
      if (!line_is_hot(hc, f, li)) continue;
      const std::string& text = f.lines[li];
      const int line1 = static_cast<int>(li) + 1;
      if (std::regex_search(text, alloc_re)) {
        report(out, f, line1, "hot-path-alloc",
               "heap allocation in `" + f.enclosing_fn[li] +
                   "`, reachable from a SIRIUS_HOT entry point: the slot "
                   "kernel must be pre-sized; allocate at construction or "
                   "allow() with an ALLOWLIST.md entry");
        continue;
      }
      if (std::regex_search(text, func_re) &&
          text.find('&') == std::string::npos) {
        report(out, f, line1, "hot-path-alloc",
               "std::function construction in `" + f.enclosing_fn[li] +
                   "`, reachable from a SIRIUS_HOT entry point: capture "
                   "state at init and pass a reference, or devirtualize "
                   "the callback");
        continue;
      }
      for (auto it = std::sregex_iterator(text.begin(), text.end(), grow_re);
           it != std::sregex_iterator(); ++it) {
        const std::string base = (*it)[1].str();
        if (exempt(base, i, li)) continue;
        report(out, f, line1, "hot-path-alloc",
               "`" + base + "." + (*it)[2].str() + "()` in `" +
                   f.enclosing_fn[li] +
                   "`, reachable from a SIRIUS_HOT entry point, grows a "
                   "container with no reserve()/resize() site anywhere in "
                   "the tree: pre-size it at construction or allow() with "
                   "an ALLOWLIST.md entry");
      }
    }
  }
}

void rule_hot_path_virtual(const std::vector<FileIndex>& files,
                           const HotClosure& hc, std::vector<Violation>& out) {
  // Classes marked final anywhere in the scanned set.
  std::set<std::string> final_classes;
  for (const FileIndex& f : files) {
    for (const ClassDecl& c : f.classes) {
      if (c.is_final) final_classes.insert(c.name);
    }
  }
  // Devirtualizable = declared virtual, not a final method, not on a final
  // class. Ctors/dtors (name == class) are skipped: constructing on the hot
  // path is the alloc rule's business.
  std::map<std::string, std::string> virtuals;  // name -> Klass::name
  for (const FileIndex& f : files) {
    for (const MethodDecl& d : f.decls) {
      if (!d.is_virtual || d.is_final || d.name == d.klass) continue;
      if (final_classes.count(d.klass) != 0) continue;
      virtuals.emplace(d.name, d.klass.empty() ? d.name
                                               : d.klass + "::" + d.name);
    }
  }
  if (virtuals.empty()) return;
  static const std::regex call_re(R"(([A-Za-z_][A-Za-z0-9_]*)\s*\()");
  for (const FileIndex& f : files) {
    if (!f.kind.is_src) continue;
    for (std::size_t li = 0; li < f.lines.size(); ++li) {
      if (!line_is_hot(hc, f, li)) continue;
      for (auto it = std::sregex_iterator(f.lines[li].begin(),
                                          f.lines[li].end(), call_re);
           it != std::sregex_iterator(); ++it) {
        const auto vit = virtuals.find((*it)[1].str());
        if (vit == virtuals.end()) continue;
        report(out, f, static_cast<int>(li) + 1, "hot-path-virtual",
               "call to virtual `" + vit->second + "` in `" +
                   f.enclosing_fn[li] +
                   "`, reachable from a SIRIUS_HOT entry point: mark the "
                   "method or its class `final` so the slot kernel "
                   "dispatches statically, or allow() with an ALLOWLIST.md "
                   "entry");
        break;  // one report per line
      }
    }
  }
}

void rule_hot_path_throw(const std::vector<FileIndex>& files,
                         const HotClosure& hc, std::vector<Violation>& out) {
  static const std::regex throw_re(
      R"(\bthrow\b|\.\s*at\s*\(|\b(?:printf|fprintf|sprintf|snprintf|puts|fputs)\s*\(|std\s*::\s*(?:cout|cerr|clog)\b)");
  for (const FileIndex& f : files) {
    if (!f.kind.is_src) continue;
    for (std::size_t li = 0; li < f.lines.size(); ++li) {
      if (!line_is_hot(hc, f, li)) continue;
      if (!std::regex_search(f.lines[li], throw_re)) continue;
      report(out, f, static_cast<int>(li) + 1, "hot-path-throw",
             "throw/stdio in `" + f.enclosing_fn[li] +
                 "`, reachable from a SIRIUS_HOT entry point: the slot "
                 "kernel cannot unwind or block on I/O; report through "
                 "bound instruments or the invariant sink instead");
    }
  }
}

void rule_hot_path_copy(const std::vector<FileIndex>& files,
                        const HotClosure& hc, std::vector<Violation>& out) {
  for (const FileIndex& f : files) {
    if (!f.kind.is_src) continue;
    for (const FunctionDef& fn : f.fns) {
      if (hc.hot.count(fn.name) == 0) continue;
      const std::size_t open = fn.signature.find('(');
      if (open == std::string::npos) continue;
      // Matching close paren of the parameter list.
      int depth = 0;
      std::size_t close = std::string::npos;
      for (std::size_t k = open; k < fn.signature.size(); ++k) {
        if (fn.signature[k] == '(') ++depth;
        if (fn.signature[k] == ')' && --depth == 0) {
          close = k;
          break;
        }
      }
      if (close == std::string::npos || close <= open + 1) continue;
      const std::string params = strip_angle_contents(
          fn.signature.substr(open + 1, close - open - 1));
      // Split on top-level commas.
      std::vector<std::string> parts;
      depth = 0;
      std::size_t start = 0;
      for (std::size_t k = 0; k <= params.size(); ++k) {
        if (k == params.size() || (params[k] == ',' && depth == 0)) {
          parts.push_back(trim(params.substr(start, k - start)));
          start = k + 1;
        } else if (params[k] == '(' || params[k] == '[') {
          ++depth;
        } else if (params[k] == ')' || params[k] == ']') {
          --depth;
        }
      }
      for (const std::string& p : parts) {
        if (p.find('&') != std::string::npos ||
            p.find('*') != std::string::npos) {
          continue;
        }
        if (has_any_token(p, {"vector", "map", "set", "deque", "string",
                              "function", "unordered_map", "unordered_set",
                              "multimap", "multiset"})) {
          report(out, f, fn.line, "hot-path-copy",
                 "parameter `" + p + "` of SIRIUS_HOT-reachable `" + fn.name +
                     "` passes an indexed container by value: take it by "
                     "const reference so the slot kernel never deep-copies");
        }
      }
    }
  }
}

// ---- layering rules --------------------------------------------------------

/// The declared layer matrix (docs/ARCHITECTURE.md). An include is legal
/// iff it stays in its own directory or targets a strictly lower rank.
const std::map<std::string, int>& layer_ranks() {
  static const std::map<std::string, int> kRanks = {
      {"common", 0},    {"check", 1},    {"optical", 2},  {"fec", 2},
      {"frame", 2},     {"powercost", 2}, {"workload", 2}, {"sync", 2},
      {"telemetry", 2}, {"ckpt", 2},     {"topo", 3},     {"phy", 3},
      {"stats", 3},     {"cc", 3},       {"node", 4},     {"sched", 4},
      {"ctrl", 4},      {"sim", 5},      {"esn", 6},      {"core", 7}};
  return kRanks;
}

/// First `src/<layer>` component of an effective path, "" when not under a
/// known layer.
std::string layer_of(const std::string& p) {
  const fs::path norm = fs::path(p).lexically_normal();
  for (auto it = norm.begin(); it != norm.end(); ++it) {
    if (*it != "src") continue;
    const auto next = std::next(it);
    if (next == norm.end()) return "";
    const std::string layer = next->string();
    return layer_ranks().count(layer) != 0 ? layer : "";
  }
  return "";
}

void rule_layer_order(const std::vector<FileIndex>& files,
                      std::vector<Violation>& out) {
  const auto& ranks = layer_ranks();
  for (const FileIndex& f : files) {
    const std::string src_layer = layer_of(f.effective_path);
    if (src_layer.empty()) continue;
    const int src_rank = ranks.at(src_layer);
    for (const IncludeEdge& inc : f.includes) {
      const std::size_t slash = inc.target.find('/');
      if (slash == std::string::npos) continue;  // sibling include
      const std::string tgt_layer = inc.target.substr(0, slash);
      const auto rit = ranks.find(tgt_layer);
      if (rit == ranks.end()) continue;
      if (tgt_layer == src_layer || rit->second < src_rank) continue;
      report(out, f, inc.line, "layer-order",
             "#include \"" + inc.target + "\" makes layer `" + src_layer +
                 "` (rank " + std::to_string(src_rank) +
                 ") depend upward on `" + tgt_layer + "` (rank " +
                 std::to_string(rit->second) +
                 "): the declared matrix only allows downward includes; "
                 "invert the dependency or move the shared type down");
    }
  }
}

void rule_include_cycle(const std::vector<FileIndex>& files,
                        std::vector<Violation>& out) {
  const std::size_t n = files.size();
  const auto edges = resolve_includes(files, /*keep_self=*/true);
  // Iterative DFS; an edge into a grey node closes a cycle.
  std::vector<int> color(n, 0);  // 0 white, 1 grey, 2 black
  struct Frame {
    std::size_t node;
    std::size_t next;
  };
  for (std::size_t r = 0; r < n; ++r) {
    if (color[r] != 0) continue;
    std::vector<Frame> st{Frame{r, 0}};
    color[r] = 1;
    while (!st.empty()) {
      const std::size_t node = st.back().node;
      if (st.back().next >= edges[node].size()) {
        color[node] = 2;
        st.pop_back();
        continue;
      }
      const ResolvedInclude e = edges[node][st.back().next++];
      if (color[e.target] == 1) {
        report(out, files[node], e.line, "include-cycle",
               "#include here closes an include cycle back through `" +
                   files[e.target].path +
                   "`: break the cycle with a forward declaration or by "
                   "moving the shared type down a layer");
      } else if (color[e.target] == 0) {
        color[e.target] = 1;
        st.push_back(Frame{e.target, 0});
      }
    }
  }
}

void rule_duplicate_include(const std::vector<FileIndex>& files,
                            std::vector<Violation>& out) {
  for (const FileIndex& f : files) {
    std::map<std::string, int> first;
    for (const IncludeEdge& inc : f.includes) {
      const auto [it, fresh] = first.emplace(inc.target, inc.line);
      if (fresh) continue;
      report(out, f, inc.line, "duplicate-include",
             "duplicate #include \"" + inc.target + "\" (first at line " +
                 std::to_string(it->second) + ")");
    }
  }
}

void rule_dead_public_symbol(const std::vector<FileIndex>& files,
                             std::vector<Violation>& out) {
  // declared[name] = decl + definition-head records; seen[name] = token
  // occurrences across every scrubbed line. A symbol with no occurrence
  // beyond its own declarations has no call site in the scanned set.
  std::map<std::string, long> declared;
  for (const FileIndex& f : files) {
    for (const MethodDecl& d : f.decls) ++declared[d.name];
    for (const FunctionDef& fn : f.fns) ++declared[fn.name];
  }
  std::map<std::string, long> seen;
  static const std::regex ident_re(R"([A-Za-z_][A-Za-z0-9_]*)");
  for (const FileIndex& f : files) {
    for (const std::string& line : f.lines) {
      for (auto it = std::sregex_iterator(line.begin(), line.end(), ident_re);
           it != std::sregex_iterator(); ++it) {
        const std::string tok = it->str();
        const auto dit = declared.find(tok);
        if (dit != declared.end()) ++seen[tok];
      }
    }
  }
  for (const FileIndex& f : files) {
    if (!f.kind.is_header || !under_src(f.effective_path, {})) continue;
    for (const MethodDecl& d : f.decls) {
      if (d.name.empty() || d.name == d.klass) continue;  // ctor/dtor
      if (seen[d.name] <= declared[d.name]) {
        report(out, f, d.line, "dead-public-symbol",
               "public symbol `" +
                   (d.klass.empty() ? d.name : d.klass + "::" + d.name) +
                   "` has no call site in the scanned tree: remove it or "
                   "keep it deliberately with allow(dead-public-symbol)");
      }
    }
  }
}

// ---- allowlist sync --------------------------------------------------------

struct AllowEntry {
  std::string path;
  std::string rule;
  int line = 0;
};

void rule_allowlist_sync(const std::vector<FileIndex>& files,
                         const std::string& allowlist_path,
                         std::vector<Violation>& out) {
  std::ifstream in(allowlist_path, std::ios::binary);
  if (!in) {
    out.push_back(Violation{allowlist_path, 0, "allowlist-sync",
                            "cannot read allowlist file"});
    return;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  // Entry lines look like:  - `src/foo/bar.cpp` — rule-id: justification
  // (the separator may be an em dash or a double hyphen).
  static const std::regex entry_re(
      R"(^-\s*`([^`]+)`\s*(?:—|--)\s*([A-Za-z0-9-]+):\s*\S)");
  static const std::regex bullet_re(R"(^-\s*`)");
  std::vector<AllowEntry> entries;
  const auto lines = split_lines(ss.str());
  for (std::size_t li = 0; li < lines.size(); ++li) {
    std::smatch m;
    if (std::regex_search(lines[li], m, entry_re)) {
      entries.push_back(
          AllowEntry{m[1].str(), m[2].str(), static_cast<int>(li) + 1});
    } else if (std::regex_search(lines[li], bullet_re)) {
      out.push_back(Violation{
          allowlist_path, static_cast<int>(li) + 1, "allowlist-sync",
          "malformed allowlist entry: expected `- `path` — rule: "
          "justification`"});
    }
  }

  // Sites, deduplicated to (file, rule); remember the first line for the
  // report.
  std::map<std::pair<std::string, std::string>, int> sites;
  for (const FileIndex& f : files) {
    for (const AllowSite& a : f.allows) {
      const auto key = std::make_pair(f.path, a.rule);
      if (sites.find(key) == sites.end()) sites[key] = a.line;
    }
  }

  std::vector<char> entry_used(entries.size(), 0);
  for (const auto& [key, line] : sites) {
    const auto& [file, rule] = key;
    bool covered = false;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      if (entries[e].rule == rule && path_ends_with(file, entries[e].path)) {
        entry_used[e] = 1;
        covered = true;
      }
    }
    if (!covered) {
      out.push_back(Violation{
          file, line, "allowlist-sync",
          "suppression allow(" + rule + ") is not recorded in " +
              allowlist_path +
              ": add `- `<path>` — " + rule +
              ": <justification>`"});
    }
  }
  for (std::size_t e = 0; e < entries.size(); ++e) {
    if (!entry_used[e]) {
      out.push_back(Violation{
          allowlist_path, entries[e].line, "allowlist-sync",
          "stale allowlist entry: no allow(" + entries[e].rule +
              ") suppression found in `" + entries[e].path +
              "` among the scanned files"});
    }
  }
}

}  // namespace

// ---- public entry points ---------------------------------------------------

FileIndex index_text(const std::string& text, const std::string& reported_path,
                     const std::string& effective_path, const FileKind& kind) {
  return Scanner(text, reported_path, effective_path, kind).run();
}

std::vector<Violation> evaluate_tree(const std::vector<FileIndex>& files,
                                     const std::string& allowlist_path,
                                     const EvalOptions& opts) {
  std::vector<Violation> out;
  rule_mutable_global(files, out);
  rule_unordered_sim_state(files, out);
  rule_pointer_key_order(files, out);
  rule_float_reduction(files, out);
  rule_telemetry_escape(files, out);
  const HotClosure hc = build_hot_closure(files);
  rule_hot_path_alloc(files, hc, out);
  rule_hot_path_virtual(files, hc, out);
  rule_hot_path_throw(files, hc, out);
  rule_hot_path_copy(files, hc, out);
  rule_layer_order(files, out);
  rule_include_cycle(files, out);
  rule_duplicate_include(files, out);
  if (opts.dead_symbols) {
    rule_dead_public_symbol(files, out);
  }
  if (!allowlist_path.empty()) {
    rule_allowlist_sync(files, allowlist_path, out);
  }
  return out;
}

}  // namespace sirius::lint
