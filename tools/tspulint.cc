// tspulint v2 — the repo's custom, dependency-free semantic static-analysis
// binary.
//
// v1 was a per-line regex-grade scanner; v2 is a small analysis engine built
// from three layers, still one binary with no dependencies beyond the C++
// standard library:
//
//   1. A real C++ tokenizer. Comments, string literals (including raw
//      strings), char literals, and preprocessor directives are handled at
//      the lexer level, so a `memcpy` inside a string or comment can never
//      fire a rule, and a rule can never be hidden by line-splitting.
//   2. An include graph over src/ (quoted includes resolve against src/,
//      headers are paired with their same-stem .cc implementation files),
//      which gives cross-file *reachability*: the set of translation units
//      whose code can run on runner::shard_map / parallel_map /
//      checkpointed_map worker threads, each with a witness chain naming
//      how it got there.
//   3. A file-scope symbol index: declared namespaces, namespace-scope
//      function definitions (with body extents), and mutable namespace-scope
//      or function-local `static` / `thread_local` variables, all
//      namespace-qualified.
//
// Rules (suppress a finding with `// tspulint: allow(rule-name) reason` on
// the same line or the line directly above; a suppression that suppresses
// nothing is itself an error — see stale-allow):
//
//   raw-buffer-copy     src/{wire,tls,quic,dns}: memcpy/memmove/
//                       reinterpret_cast/const_cast are banned; codecs must
//                       use ByteReader/ByteWriter.
//   raw-buffer-index    src/{wire,tls,quic,dns}: subscripting a buffer with
//                       an integer literal bypasses bounds checking; use
//                       ByteReader accessors or ByteWriter::patch_u16/u24.
//   nondeterminism      src/{netsim,tspu} + tests/: rand(), srand(),
//                       std::random_device, std::mt19937, wall clocks
//                       (time(), clock(), std::chrono::*_clock), getenv().
//                       All randomness flows through util::Rng; all time
//                       through the virtual util::Instant clock.
//   unordered-container src/{netsim,tspu}: std::unordered_map/set iterate in
//                       hash order, which varies across libstdc++ versions —
//                       use std::map/std::set so sweeps are reproducible.
//   raw-thread          everywhere except src/runner: std::thread/jthread/
//                       async/mutex/condition_variable/future and their
//                       headers. All parallelism goes through the shard
//                       runner, whose merge step is what keeps sharded
//                       results bit-identical for any job count.
//   pragma-once         every header under src/ carries #pragma once.
//   namespace-module    every file under src/<module>/ declares the matching
//                       namespace (tspu/ maps to tspu::core).
//   nodiscard-parse     codec headers: parse*/extract_* functions returning
//                       std::optional, and *_fingerprint verdicts, must be
//                       [[nodiscard]]. v2 checks the whole declaration, not
//                       a single line, so multi-line declarations are
//                       covered too.
//   retry               src/measure/*.cc: a file that fires probe packets
//                       (send_packet/send_udp/send_raw/play as calls — v2
//                       no longer mistakes a ::play *definition* for a call)
//                       must route its inference through the retry layer
//                       (measure/retry.h: RetryPolicy / run_with_retry).
//   obs                 src/{netsim,tspu} *.cc: stats tallies must also
//                       reach the flight recorder (src/obs).
//
// New in v2 — rules the line scanner could not express:
//
//   shard-escape        Mutable namespace-scope or function-local static
//                       state in any translation unit reachable (via the
//                       include graph) from a shard_map / parallel_map /
//                       checkpointed_map call site escapes the runner's
//                       replica-per-shard isolation: it must be
//                       thread_local, and must be reset by a reset_*
//                       function wired into the begin_trial/reseed
//                       trial-isolation path. Findings carry the
//                       include-path witness from a worker call site to
//                       the offending TU. (src/runner and src/obs are
//                       exempt: the runner owns thread management and obs
//                       owns the per-shard recorder merge contract.)
//   capture-escape      Lambdas passed to parallel_map/shard_map must not
//                       use a default by-reference capture ([&]) and must
//                       not capture a namespace-scope mutable variable by
//                       reference: both smuggle shared state into workers.
//   env-confinement     getenv is process-global input; only src/obs (the
//                       flight recorder's documented read-once knobs) may
//                       call it inside src/. Checked as a symbol use, not a
//                       substring. (netsim/tspu/tests are already covered by
//                       the stricter nondeterminism rule.)
//   stale-allow         An allow() marker that suppressed zero findings in
//                       this run is itself an error: suppressions may not
//                       outlive their reason.
//   hotpath-alloc       src/netsim: the packet hot path is allocation-free
//                       by contract. std::function (and <functional>) is
//                       banned — closures go through util::InplaceFunction
//                       or the typed packet event — and a lambda must not
//                       capture a util::Bytes variable by value (that copies
//                       the payload buffer per event; capture by move or
//                       schedule a typed packet event instead).
//   hotpath-parse       src/{tspu,ispdpi}: the per-packet inspection path
//                       must decode through the zero-copy views
//                       (parse_tcp_view / parse_udp_view / find_sni_view /
//                       ClientHelloView). The owning decoders (parse_tcp,
//                       parse_udp, parse_client_hello, extract_sni*) copy
//                       payload bytes per packet; only sites that go on to
//                       mutate the copy may use them, under an allow().
//
// Output modes:
//   tspulint <root>...                   human "file:line: rule: message"
//   tspulint --json <root>...            machine-readable findings (rule,
//                                        file, line, symbol, include-path
//                                        witness)
//
// Exit status: 0 clean, 1 findings, 2 usage/IO.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

struct Tok {
  enum class Kind { kIdent, kNum, kStr, kChr, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 1;
};

struct IncludeDirective {
  std::string target;  // path between the delimiters
  int line = 1;
  bool quoted = false;  // "x.h" (true) vs <x> (false)
};

struct AllowMarker {
  int line = 1;
  std::string rule;
  std::string reason;
  bool hit = false;  // did it suppress at least one finding this run?
};

struct VarSymbol {
  std::string name;      // unqualified
  std::string symbol;    // namespace(::function)::name
  int line = 1;
  bool thread_local_ = false;
  bool keyworded = false;  // declared with static/thread_local (high signal)
  bool function_local = false;
};

struct FuncSymbol {
  std::string name;  // unqualified
  int line = 1;
  std::size_t body_begin = 0, body_end = 0;  // token index range of the body
};

struct SourceFile {
  fs::path abs;
  std::string rel;     // repo-relative, generic separators ("src/x/y.cc")
  std::string module;  // component after src/, or "" (tests etc.)
  bool is_header = false;
  bool in_tests = false;

  std::vector<Tok> toks;
  std::vector<IncludeDirective> includes;
  std::vector<AllowMarker> allows;
  bool pragma_once = false;

  std::vector<std::string> namespaces;  // fully qualified declared namespaces
  std::vector<FuncSymbol> funcs;
  std::vector<VarSymbol> vars;  // mutable statics/globals only
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Extracts every `tspulint: allow(rule) reason` marker from a comment's
/// text, attributing each to `line`.
void scan_comment_for_allows(const std::string& text, int line,
                             std::vector<AllowMarker>& out) {
  std::size_t pos = 0;
  static const std::string kNeedle = "tspulint: allow(";
  while ((pos = text.find(kNeedle, pos)) != std::string::npos) {
    pos += kNeedle.size();
    const std::size_t close = text.find(')', pos);
    if (close == std::string::npos) break;
    AllowMarker m;
    m.line = line;
    m.rule = text.substr(pos, close - pos);
    std::size_t r = close + 1;
    while (r < text.size() &&
           std::isspace(static_cast<unsigned char>(text[r]))) {
      ++r;
    }
    m.reason = text.substr(r);
    out.push_back(std::move(m));
    pos = close;
  }
}

/// Lexes `src` into f.toks / f.includes / f.allows / f.pragma_once.
/// Preprocessor directives are consumed whole (with line continuations) and
/// never reach the token stream; comments feed the allow-marker scanner.
void lex(const std::string& src, SourceFile& f) {
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;

  auto peek = [&](std::size_t off) -> char {
    return i + off < src.size() ? src[i + off] : '\0';
  };

  while (i < src.size()) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }

    // Preprocessor directive: swallow the logical line.
    if (c == '#' && at_line_start) {
      const int dir_line = line;
      std::string dir;
      while (i < src.size()) {
        if (src[i] == '\\' && peek(1) == '\n') {
          i += 2;
          ++line;
          continue;
        }
        if (src[i] == '\n') break;
        // Comments inside directives still carry allow markers.
        if (src[i] == '/' && peek(1) == '/') {
          std::string text;
          while (i < src.size() && src[i] != '\n') text += src[i++];
          scan_comment_for_allows(text, line, f.allows);
          break;
        }
        dir += src[i++];
      }
      // Parse `#include` and `#pragma once` out of the directive text.
      std::size_t p = 1;  // past '#'
      while (p < dir.size() && std::isspace(static_cast<unsigned char>(dir[p])))
        ++p;
      if (dir.compare(p, 7, "include") == 0) {
        p += 7;
        while (p < dir.size() &&
               std::isspace(static_cast<unsigned char>(dir[p])))
          ++p;
        if (p < dir.size() && (dir[p] == '"' || dir[p] == '<')) {
          const char open = dir[p];
          const char close = open == '"' ? '"' : '>';
          const std::size_t end = dir.find(close, p + 1);
          if (end != std::string::npos) {
            f.includes.push_back(IncludeDirective{
                dir.substr(p + 1, end - p - 1), dir_line, open == '"'});
          }
        }
      } else if (dir.compare(p, 6, "pragma") == 0 &&
                 dir.find("once", p + 6) != std::string::npos) {
        f.pragma_once = true;
      }
      continue;
    }
    at_line_start = false;

    // Comments.
    if (c == '/' && peek(1) == '/') {
      std::string text;
      while (i < src.size() && src[i] != '\n') text += src[i++];
      scan_comment_for_allows(text, line, f.allows);
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      i += 2;
      std::string text;
      int text_line = line;
      while (i < src.size() && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') {
          scan_comment_for_allows(text, text_line, f.allows);
          text.clear();
          ++line;
          text_line = line;
        } else {
          text += src[i];
        }
        ++i;
      }
      scan_comment_for_allows(text, text_line, f.allows);
      i += 2;
      continue;
    }

    // Identifiers (and raw-string prefixes).
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < src.size() && ident_char(src[j])) ++j;
      std::string word = src.substr(i, j - i);
      // Raw string literal: R"delim( ... )delim"
      if (j < src.size() && src[j] == '"' &&
          (word == "R" || word == "u8R" || word == "uR" || word == "LR")) {
        std::size_t k = j + 1;
        std::string delim;
        while (k < src.size() && src[k] != '(') delim += src[k++];
        const std::string terminator = ")" + delim + "\"";
        const std::size_t end = src.find(terminator, k);
        const std::size_t stop =
            end == std::string::npos ? src.size() : end + terminator.size();
        for (std::size_t t = i; t < stop; ++t) {
          if (src[t] == '\n') ++line;
        }
        f.toks.push_back(Tok{Tok::Kind::kStr, "", line});
        i = stop;
        continue;
      }
      f.toks.push_back(Tok{Tok::Kind::kIdent, std::move(word), line});
      i = j;
      continue;
    }

    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      std::size_t j = i;
      while (j < src.size() &&
             (ident_char(src[j]) || src[j] == '.' || src[j] == '\'' ||
              ((src[j] == '+' || src[j] == '-') && j > i &&
               (src[j - 1] == 'e' || src[j - 1] == 'E' || src[j - 1] == 'p' ||
                src[j - 1] == 'P')))) {
        ++j;
      }
      f.toks.push_back(Tok{Tok::Kind::kNum, src.substr(i, j - i), line});
      i = j;
      continue;
    }

    // String / char literals (content never reaches the rules).
    if (c == '"' || c == '\'') {
      const char q = c;
      ++i;
      while (i < src.size() && src[i] != q) {
        if (src[i] == '\\') ++i;
        if (i < src.size() && src[i] == '\n') ++line;
        ++i;
      }
      ++i;  // closing quote
      f.toks.push_back(
          Tok{q == '"' ? Tok::Kind::kStr : Tok::Kind::kChr, "", line});
      continue;
    }

    // Punctuation; merge the few multi-char tokens the rules care about.
    std::string p(1, c);
    if ((c == ':' && peek(1) == ':') || (c == '-' && peek(1) == '>') ||
        (c == '+' && peek(1) == '+') || (c == '-' && peek(1) == '-')) {
      p += peek(1);
      ++i;
    }
    f.toks.push_back(Tok{Tok::Kind::kPunct, std::move(p), line});
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

const Tok kNullTok{Tok::Kind::kPunct, "", 0};

const Tok& tok_at(const std::vector<Tok>& t, std::size_t i) {
  return i < t.size() ? t[i] : kNullTok;
}

bool is(const Tok& t, const char* text) { return t.text == text; }

/// Index of the token matching the opener at `open` ("(", "{", "["), or
/// toks.size() when unbalanced.
std::size_t match(const std::vector<Tok>& toks, std::size_t open) {
  const std::string& o = toks[open].text;
  const std::string c = o == "(" ? ")" : o == "{" ? "}" : "]";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == o) ++depth;
    else if (toks[i].text == c && --depth == 0) return i;
  }
  return toks.size();
}

// ---------------------------------------------------------------------------
// Symbol collection (namespaces, functions, mutable statics/globals)
// ---------------------------------------------------------------------------

const std::set<std::string> kDeclQualifiers = {
    "inline", "static", "thread_local", "extern", "constinit"};

/// Scans a declaration statement's tokens [begin,end) for constness.
bool decl_is_const(const std::vector<Tok>& toks, std::size_t begin,
                   std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (is(toks[i], "=")) break;  // `Foo x = const_expr` is still mutable
    if (is(toks[i], "const") || is(toks[i], "constexpr")) return true;
  }
  return false;
}

/// The declared variable name in [begin,end): the identifier immediately
/// before `=`, `{`, `[`, or the terminating `;`.
std::string decl_var_name(const std::vector<Tok>& toks, std::size_t begin,
                          std::size_t end) {
  std::size_t stop = end;
  int paren = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (is(toks[i], "(")) ++paren;
    else if (is(toks[i], ")")) --paren;
    if (paren > 0) continue;
    if (is(toks[i], "=") || is(toks[i], "{")) {
      stop = i;
      break;
    }
  }
  for (std::size_t i = stop; i-- > begin;) {
    if (toks[i].kind == Tok::Kind::kIdent &&
        kDeclQualifiers.count(toks[i].text) == 0) {
      return toks[i].text;
    }
    if (!is(toks[i], "[") && !is(toks[i], "]") && !is(toks[i], ";"))
      break;  // only skip back over array brackets
  }
  return {};
}

struct SymbolCollector {
  SourceFile& f;

  void run() { scope(0, f.toks.size(), ""); }

  /// Scans a function body [begin,end) for `static` / `thread_local` local
  /// declarations.
  void function_body(std::size_t begin, std::size_t end, const std::string& ns,
                     const std::string& func) {
    const std::vector<Tok>& t = f.toks;
    for (std::size_t i = begin; i < end; ++i) {
      if (!is(t[i], "static") && !is(t[i], "thread_local")) continue;
      // Find the end of the declaration statement, skipping brace inits.
      std::size_t j = i;
      bool tls = false;
      while (j < end) {
        if (is(t[j], "thread_local")) tls = true;
        if (is(t[j], "{") || is(t[j], "(")) {
          j = match(t, j);
          if (j >= end) return;
        }
        if (is(t[j], ";")) break;
        ++j;
      }
      if (j >= end) break;
      if (decl_is_const(t, i, j)) {
        i = j;
        continue;
      }
      const std::string name = decl_var_name(t, i, j);
      if (!name.empty()) {
        VarSymbol v;
        v.name = name;
        v.symbol = (ns.empty() ? "" : ns + "::") + func + "::" + name;
        v.line = t[i].line;
        v.thread_local_ = tls;
        v.keyworded = true;
        v.function_local = true;
        f.vars.push_back(std::move(v));
      }
      i = j;
    }
  }

  void scope(std::size_t begin, std::size_t end, const std::string& ns) {
    const std::vector<Tok>& t = f.toks;
    std::size_t i = begin;
    while (i < end) {
      const Tok& tk = t[i];
      if (is(tk, ";")) {
        ++i;
        continue;
      }
      if (is(tk, "namespace")) {
        std::size_t j = i + 1;
        std::string name;
        while (j < end && (t[j].kind == Tok::Kind::kIdent || is(t[j], "::"))) {
          name += t[j].text;
          ++j;
        }
        if (j < end && is(t[j], "=")) {  // namespace alias
          while (j < end && !is(t[j], ";")) ++j;
          i = j + 1;
          continue;
        }
        if (j < end && is(t[j], "{")) {
          const std::size_t close = match(t, j);
          std::string inner = ns;
          if (!name.empty()) {
            inner = ns.empty() ? name : ns + "::" + name;
            f.namespaces.push_back(inner);
          }
          scope(j + 1, close, inner);
          i = close + 1;
          continue;
        }
        ++i;
        continue;
      }
      if (is(tk, "using") || is(tk, "typedef")) {
        while (i < end && !is(t[i], ";")) {
          if (is(t[i], "{") || is(t[i], "(")) i = match(t, i);
          ++i;
        }
        continue;
      }
      if (is(tk, "template")) {  // skip the parameter list, keep the decl
        std::size_t j = i + 1;
        if (j < end && is(t[j], "<")) {
          int depth = 0;
          while (j < end) {
            if (is(t[j], "<")) ++depth;
            else if (is(t[j], ">") && --depth == 0) break;
            ++j;
          }
        }
        i = j + 1;
        continue;
      }
      if (is(tk, "class") || is(tk, "struct") || is(tk, "union") ||
          is(tk, "enum")) {
        // Type definition or forward declaration: skip the body and the
        // declarator tail up to ';' (member statics are out of scope —
        // static data members live in the class's own contract).
        std::size_t j = i + 1;
        while (j < end && !is(t[j], "{") && !is(t[j], ";") && !is(t[j], "("))
          ++j;
        if (j < end && is(t[j], "{")) j = match(t, j);
        while (j < end && !is(t[j], ";")) ++j;
        i = j + 1;
        continue;
      }
      if (is(tk, "extern")) {
        // extern "C" { ... } re-opens the enclosing scope.
        if (tok_at(t, i + 1).kind == Tok::Kind::kStr &&
            is(tok_at(t, i + 2), "{")) {
          const std::size_t close = match(t, i + 2);
          scope(i + 3, close, ns);
          i = close + 1;
          continue;
        }
      }
      if (is(tk, "{")) {  // stray block
        i = match(t, i) + 1;
        continue;
      }

      // Generic statement: variable declaration, function prototype, or
      // function definition.
      statement(i, end, ns);
    }
  }

  /// Parses one namespace-scope statement starting at `i`; advances `i`
  /// past it.
  void statement(std::size_t& i, std::size_t end, const std::string& ns) {
    const std::vector<Tok>& t = f.toks;
    const std::size_t start = i;
    bool seen_assign = false;
    bool tls = false, keyworded = false;
    std::size_t paren_open = t.size(), paren_close = t.size();
    std::size_t j = i;
    while (j < end) {
      const Tok& tk = t[j];
      if (is(tk, "thread_local")) tls = keyworded = true;
      else if (is(tk, "static")) keyworded = true;
      else if (is(tk, "=")) seen_assign = true;
      else if (is(tk, "(")) {
        const std::size_t close = match(t, j);
        if (!seen_assign) {
          paren_open = j;
          paren_close = close;
        }
        j = close;
      } else if (is(tk, "{")) {
        // Function body iff a top-level paren group preceded it with no `=`
        // in between; otherwise it is a brace initializer.
        if (paren_open < t.size() && !seen_assign) {
          const std::size_t body_end = match(t, j);
          FuncSymbol fn;
          const Tok& name = tok_at(t, paren_open - 1);
          fn.name = name.kind == Tok::Kind::kIdent ? name.text : "";
          fn.line = name.line;
          fn.body_begin = j + 1;
          fn.body_end = body_end;
          function_body(fn.body_begin, fn.body_end, ns, fn.name);
          f.funcs.push_back(std::move(fn));
          i = body_end + 1;
          return;
        }
        j = match(t, j);
      } else if (is(tk, ";")) {
        break;
      }
      ++j;
    }
    // Declaration statement [start, j). A top-level paren group means a
    // function prototype (or a constructor-style initializer, which this
    // collector deliberately does not model) — not a variable.
    if (paren_open == t.size() && j > start &&
        !decl_is_const(t, start, j)) {
      const std::string name = decl_var_name(t, start, j);
      if (!name.empty()) {
        VarSymbol v;
        v.name = name;
        v.symbol = (ns.empty() ? "" : ns + "::") + name;
        v.line = t[start].line;
        v.thread_local_ = tls;
        v.keyworded = keyworded;
        v.function_local = false;
        f.vars.push_back(std::move(v));
      }
    }
    (void)paren_close;
    i = j + 1;
  }
};

// ---------------------------------------------------------------------------
// Findings and suppression
// ---------------------------------------------------------------------------

struct Finding {
  std::string rel;
  int line = 0;
  std::string rule;
  std::string message;
  std::string symbol;                // qualified symbol, when applicable
  std::vector<std::string> witness;  // include chain, when applicable
};

struct Linter {
  std::map<std::string, SourceFile>* files = nullptr;
  std::vector<Finding> findings;

  /// Reports unless an allow(rule) marker on `line` or the line above
  /// covers it; covering markers are flagged as hit either way.
  void report(SourceFile& f, int line, const std::string& rule,
              const std::string& message, std::string symbol = {},
              std::vector<std::string> witness = {}) {
    bool suppressed = false;
    for (AllowMarker& m : f.allows) {
      if (m.rule == rule && (m.line == line || m.line + 1 == line)) {
        m.hit = true;
        suppressed = true;
      }
    }
    if (suppressed) return;
    findings.push_back(Finding{f.rel, line, rule, message, std::move(symbol),
                               std::move(witness)});
  }
};

// ---------------------------------------------------------------------------
// Rule tables (unchanged policy from v1, reused by the token engine)
// ---------------------------------------------------------------------------

const std::set<std::string> kCopyBanned = {"memcpy", "memmove",
                                           "reinterpret_cast", "const_cast"};

const std::set<std::string> kNondetTypes = {
    "random_device", "mt19937",      "mt19937_64",
    "default_random_engine",         "system_clock",
    "steady_clock",  "high_resolution_clock",
};
const std::set<std::string> kNondetCalls = {"rand", "srand", "clock", "time",
                                            "getenv"};

const std::set<std::string> kThreadTypes = {
    "thread",         "jthread",
    "async",          "mutex",
    "recursive_mutex", "shared_mutex",
    "timed_mutex",    "condition_variable",
    "condition_variable_any",
    "future",         "shared_future",
    "promise",        "packaged_task",
    "lock_guard",     "unique_lock",
    "scoped_lock",
};
const std::set<std::string> kThreadHeaders = {
    "thread", "mutex", "future", "condition_variable",
    "shared_mutex", "stop_token", "semaphore", "latch", "barrier",
};

const std::map<std::string, std::string> kNamespaceOf = {
    {"util", "util"},     {"wire", "wire"},       {"tls", "tls"},
    {"quic", "quic"},     {"dns", "dns"},         {"netsim", "netsim"},
    {"tspu", "core"},     {"ispdpi", "ispdpi"},   {"topo", "topo"},
    {"measure", "measure"}, {"circumvent", "circumvent"}, {"fuzz", "fuzz"},
    {"runner", "runner"},   {"obs", "obs"},
};

const std::set<std::string> kCodecDirs = {"wire", "tls", "quic", "dns"};
const std::set<std::string> kDeterministicDirs = {"netsim", "tspu"};
const std::set<std::string> kProbeSends = {"send_packet", "send_udp",
                                           "send_raw", "play"};
// Owning decoders shadowed by a zero-copy view twin (wire/tcp.h, wire/udp.h,
// tls/clienthello.h). On the per-packet inspection path the view is the
// contract; the owning form copies payload bytes per packet.
const std::set<std::string> kOwningParsers = {
    "parse_tcp", "parse_udp", "parse_client_hello", "extract_sni",
    "extract_sni_multi_record"};
// Worker entry points: a file using any of these tokens can put code on
// shard worker threads.
const std::set<std::string> kWorkerEntry = {"shard_map", "parallel_map",
                                            "checkpointed_map"};

// ---------------------------------------------------------------------------
// Per-file rules (the nine v1 rules + obs, ported onto the token stream)
// ---------------------------------------------------------------------------

bool file_has_ident(const SourceFile& f, const char* name) {
  for (const Tok& t : f.toks) {
    if (t.kind == Tok::Kind::kIdent && t.text == name) return true;
  }
  return false;
}

void lint_file_tokens(Linter& lint, SourceFile& f) {
  const std::vector<Tok>& t = f.toks;
  const bool codec = kCodecDirs.count(f.module) != 0;
  // The allocation-free packet hot path (typed event queue + pooled payload
  // buffers) lives in src/netsim; both patterns hotpath-alloc bans would
  // silently reintroduce a per-event heap allocation there.
  const bool hot_path = f.module == "netsim";
  const bool deterministic =
      kDeterministicDirs.count(f.module) != 0 || f.in_tests;
  const bool measure_impl = f.module == "measure" && !f.is_header;
  const bool stats_impl =
      kDeterministicDirs.count(f.module) != 0 && !f.is_header;
  // The per-packet inspection path: every packet a simulated hop delivers
  // runs through src/tspu (device chain) or src/ispdpi (ISP-local DPI).
  const bool inspect_path = f.module == "tspu" || f.module == "ispdpi";

  const bool has_retry_ref =
      measure_impl && (file_has_ident(f, "RetryPolicy") ||
                       file_has_ident(f, "run_with_retry"));
  bool has_obs_ref = false;
  if (stats_impl) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if ((is(t[i], "obs") && is(tok_at(t, i + 1), "::")) ||
          is(t[i], "TSPU_OBS_COUNT") || is(t[i], "TSPU_OBS_COUNT_N")) {
        has_obs_ref = true;
        break;
      }
    }
  }

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Tok& tk = t[i];
    const Tok& prev = i > 0 ? t[i - 1] : kNullTok;
    const Tok& next = tok_at(t, i + 1);

    if (codec && tk.kind == Tok::Kind::kIdent && kCopyBanned.count(tk.text)) {
      lint.report(f, tk.line, "raw-buffer-copy",
                  "'" + tk.text +
                      "' on packet buffers is banned in wire codecs; use "
                      "util::ByteReader/ByteWriter");
    }

    // raw-buffer-index: ident/`)`/`]` followed by `[ <integer> ]`, unless it
    // is a declaration (`Type name[4]` — another identifier directly before
    // the subscripted name).
    if (codec && is(tk, "[") && next.kind == Tok::Kind::kNum &&
        is(tok_at(t, i + 2), "]")) {
      const bool subscripts_value =
          prev.kind == Tok::Kind::kIdent || is(prev, ")") || is(prev, "]");
      const Tok& before = i >= 2 ? t[i - 2] : kNullTok;
      // `Type name[4]` is a declaration (identifier before the declared
      // name), unless that identifier is a statement keyword as in
      // `return buf[3]`.
      static const std::set<std::string> kStmtKeywords = {
          "return", "throw", "case", "else",      "do",
          "new",    "delete", "sizeof", "co_return", "goto"};
      const bool declaration =
          prev.kind == Tok::Kind::kIdent &&
          (is(before, ">") || (before.kind == Tok::Kind::kIdent &&
                               kStmtKeywords.count(before.text) == 0));
      if (subscripts_value && !declaration) {
        lint.report(f, tk.line, "raw-buffer-index",
                    "integer-literal subscript bypasses bounds checking; use "
                    "ByteReader accessors or ByteWriter::patch_u16/u24");
      }
    }

    if (deterministic && tk.kind == Tok::Kind::kIdent) {
      const bool banned_type = kNondetTypes.count(tk.text) != 0;
      const bool banned_call = kNondetCalls.count(tk.text) != 0 &&
                               is(next, "(") && !is(prev, ".") &&
                               !is(prev, "->");
      if (banned_type || banned_call) {
        lint.report(f, tk.line, "nondeterminism",
                    "'" + tk.text +
                        "' breaks bit-for-bit reproducibility; use util::Rng "
                        "(seeded) and the virtual util::Instant clock");
      }
    }

    if (f.module != "runner") {
      if (tk.kind == Tok::Kind::kIdent && kThreadTypes.count(tk.text) != 0 &&
          is(prev, "::") && i >= 2 && is(t[i - 2], "std")) {
        lint.report(f, tk.line, "raw-thread",
                    "'std::" + tk.text +
                        "' outside src/runner bypasses the shard runner's "
                        "deterministic-merge contract; use "
                        "runner::shard_map / parallel_map");
      }
    }

    if (hot_path && tk.kind == Tok::Kind::kIdent && tk.text == "function" &&
        is(prev, "::") && i >= 2 && is(t[i - 2], "std")) {
      lint.report(f, tk.line, "hotpath-alloc",
                  "std::function heap-allocates its closure on the packet "
                  "hot path; use util::InplaceFunction (e.g. "
                  "netsim::Simulator::Callback) or a typed packet event");
    }

    if (kDeterministicDirs.count(f.module) != 0 &&
        tk.kind == Tok::Kind::kIdent &&
        (tk.text == "unordered_map" || tk.text == "unordered_set")) {
      lint.report(f, tk.line, "unordered-container",
                  "hash-order iteration varies across standard libraries; "
                  "use std::map/std::set in netsim/tspu state");
    }

    // retry: probe sends as calls. A `Class::play(` *definition* is not a
    // call (v1 false positive); a `flow.play(` member call is.
    if (measure_impl && !has_retry_ref && tk.kind == Tok::Kind::kIdent &&
        kProbeSends.count(tk.text) != 0 && is(next, "(") && !is(prev, "::")) {
      lint.report(f, tk.line, "retry",
                  "'" + tk.text +
                      "' fires a probe in a file with no RetryPolicy/"
                      "run_with_retry reference — single-shot probes turn "
                      "loss into wrong verdicts (measure/retry.h)");
    }

    // hotpath-parse: the per-packet inspection path (src/tspu, src/ispdpi)
    // must decode through the zero-copy views; the owning decoders copy the
    // payload (or the SNI) per packet. The view decoders carry the same
    // parse-failure semantics, so the only sanctioned owning uses are sites
    // that go on to MUTATE bytes — mark those with an allow().
    if (inspect_path && tk.kind == Tok::Kind::kIdent &&
        kOwningParsers.count(tk.text) != 0 && is(next, "(") &&
        !is(prev, ".") && !is(prev, "->")) {
      lint.report(f, tk.line, "hotpath-parse",
                  "owning '" + tk.text +
                      "' on the per-packet inspection path copies buffers "
                      "the verdict only reads; use the zero-copy view "
                      "decoder (" + tk.text + "_view / find_sni_view)");
    }

    // env-confinement: getenv is a process-global input channel; inside
    // src/ only the flight recorder's documented knobs may read it.
    // netsim/tspu (and tests) are already covered by nondeterminism above.
    if (!f.in_tests && !f.module.empty() && f.module != "obs" &&
        kDeterministicDirs.count(f.module) == 0 &&
        tk.kind == Tok::Kind::kIdent && tk.text == "getenv" &&
        is(next, "(") && !is(prev, ".") && !is(prev, "->")) {
      lint.report(f, tk.line, "env-confinement",
                  "getenv outside src/obs smuggles process-global state into "
                  "the pipeline; read knobs through src/obs (or bench/ "
                  "harness code, which is not linted)");
    }
  }

  // obs: a netsim/tspu implementation file that bumps a stats tally must
  // also reference the flight recorder. Line-granular like v1.
  if (stats_impl && !has_obs_ref) {
    std::map<int, std::pair<bool, bool>> by_line;  // line -> (has ++, stats)
    for (const Tok& tk : t) {
      auto& [inc, stats] = by_line[tk.line];
      if (is(tk, "++")) inc = true;
      if (tk.kind == Tok::Kind::kIdent &&
          tk.text.find("stats") != std::string::npos) {
        stats = true;
      }
    }
    for (const auto& [ln, flags] : by_line) {
      if (flags.first && flags.second) {
        lint.report(f, ln, "obs",
                    "stats tally in a file with no obs:: / TSPU_OBS_COUNT "
                    "reference — verdict/discard decisions must also reach "
                    "the flight recorder (src/obs/obs.h)");
      }
    }
  }

  // hotpath-alloc, by-value Bytes captures: collect every name declared (or
  // taken as a parameter) with type Bytes / util::Bytes, then flag plain
  // by-value captures of those names in lambda introducers. Init-captures
  // (`p = std::move(pkt)`) and by-reference captures are the sanctioned
  // forms and are skipped.
  if (hot_path) {
    std::set<std::string> bytes_vars;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != Tok::Kind::kIdent || t[i].text != "Bytes") continue;
      std::size_t j = i + 1;
      while (j < t.size() &&
             (is(t[j], "&") || is(t[j], "*") ||
              (t[j].kind == Tok::Kind::kIdent && t[j].text == "const"))) {
        ++j;
      }
      // `util::Bytes take()` declares a function, not a Bytes variable.
      if (j < t.size() && t[j].kind == Tok::Kind::kIdent &&
          !is(tok_at(t, j + 1), "(")) {
        bytes_vars.insert(t[j].text);
      }
    }
    for (std::size_t i = 0; i < t.size() && !bytes_vars.empty(); ++i) {
      if (!is(t[i], "[")) continue;
      // Lambda introducer vs subscript: a subscript follows a value.
      const Tok& before = i > 0 ? t[i - 1] : kNullTok;
      if (before.kind == Tok::Kind::kIdent ||
          before.kind == Tok::Kind::kNum || before.kind == Tok::Kind::kStr ||
          is(before, ")") || is(before, "]")) {
        continue;
      }
      const std::size_t cap_end = match(t, i);
      const Tok& after = tok_at(t, cap_end + 1);
      if (!is(after, "(") && !is(after, "{") && !is(after, "mutable")) {
        i = cap_end;
        continue;
      }
      for (std::size_t k = i + 1; k < cap_end; ++k) {
        if (is(t[k], "&")) {
          while (k < cap_end && !is(t[k], ",")) ++k;  // by-reference capture
          continue;
        }
        if (t[k].kind != Tok::Kind::kIdent) continue;
        const Tok& nx = tok_at(t, k + 1);
        // Plain capture only: `name,` or `name]`. `name = ...` is an
        // init-capture and chooses its own copy/move semantics explicitly.
        if ((is(nx, ",") || is(nx, "]")) && bytes_vars.count(t[k].text) != 0) {
          lint.report(f, t[k].line, "hotpath-alloc",
                      "lambda captures util::Bytes '" + t[k].text +
                          "' by value — that copies the payload buffer per "
                          "event; capture by move (p = std::move(" +
                          t[k].text + ")) or schedule a typed packet event",
                      t[k].text);
        }
        while (k < cap_end && !is(t[k], ",")) ++k;
      }
      i = cap_end;
    }
  }

  // Include-directive rules.
  for (const IncludeDirective& inc : f.includes) {
    if (hot_path && !inc.quoted && inc.target == "functional") {
      lint.report(f, inc.line, "hotpath-alloc",
                  "<functional> in src/netsim signals std::function on the "
                  "packet hot path; use util/inplace_function.h");
    }
    if (f.module != "runner" && !inc.quoted &&
        kThreadHeaders.count(inc.target) != 0) {
      lint.report(f, inc.line, "raw-thread",
                  "threading header <" + inc.target +
                      "> is reserved for src/runner; shard work through "
                      "runner::shard_map instead");
    }
    if (kDeterministicDirs.count(f.module) != 0 &&
        inc.target.find("unordered") != std::string::npos) {
      lint.report(f, inc.line, "unordered-container",
                  "hash-order iteration varies across standard libraries; "
                  "use std::map/std::set in netsim/tspu state");
    }
  }

  // pragma-once.
  if (f.is_header && !f.module.empty() && !f.pragma_once) {
    lint.report(f, 1, "pragma-once", "header is missing #pragma once");
  }

  // namespace-module, from the declared-namespace index instead of a
  // substring (so `namespace tspu { namespace wire {` counts too).
  if (!f.module.empty()) {
    auto ns = kNamespaceOf.find(f.module);
    if (ns != kNamespaceOf.end()) {
      const std::string want = "tspu::" + ns->second;
      const bool has_ns = std::any_of(
          f.namespaces.begin(), f.namespaces.end(), [&](const std::string& n) {
            return n == want || n.rfind(want + "::", 0) == 0;
          });
      if (!has_ns) {
        lint.report(f, 1, "namespace-module",
                    "file must declare namespace " + want +
                        " (module directory fixes the namespace)");
      }
    }
  }

  // nodiscard-parse, declaration-extent-aware: walk back from the function
  // name to the start of its declaration, so multi-line declarations and
  // attribute placement on the preceding line both work.
  if (codec && f.is_header) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Tok::Kind::kIdent || !is(tok_at(t, i + 1), "(")) {
        continue;
      }
      const std::string& name = t[i].text;
      const bool parser =
          name.rfind("parse", 0) == 0 || name.rfind("extract_", 0) == 0;
      const bool verdict = name.size() > 12 &&
                           name.rfind("_fingerprint") == name.size() - 12;
      if (!parser && !verdict) continue;
      std::size_t begin = i;
      while (begin > 0 && !is(t[begin - 1], ";") && !is(t[begin - 1], "{") &&
             !is(t[begin - 1], "}")) {
        --begin;
      }
      bool has_optional = false, has_bool = false, has_nodiscard = false;
      for (std::size_t j = begin; j < i; ++j) {
        if (t[j].kind != Tok::Kind::kIdent) continue;
        if (t[j].text == "optional") has_optional = true;
        if (t[j].text == "bool") has_bool = true;
        if (t[j].text == "nodiscard") has_nodiscard = true;
      }
      if (parser && has_optional && !has_nodiscard) {
        lint.report(f, t[i].line, "nodiscard-parse",
                    "parse/extract functions returning std::optional must be "
                    "[[nodiscard]] — a dropped verdict hides parser bugs",
                    name);
      } else if (verdict && has_bool && !has_nodiscard) {
        lint.report(f, t[i].line, "nodiscard-parse",
                    "fingerprint verdicts must be [[nodiscard]]", name);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// capture-escape: lambdas handed to the shard runner
// ---------------------------------------------------------------------------

void lint_captures(Linter& lint, SourceFile& f,
                   const std::set<std::string>& global_mutables) {
  if (f.module == "runner") return;
  const std::vector<Tok>& t = f.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const bool named_entry = t[i].kind == Tok::Kind::kIdent &&
                             (t[i].text == "shard_map" ||
                              t[i].text == "parallel_map");
    if (!named_entry || !is(tok_at(t, i + 1), "(")) continue;

    const std::size_t open = i + 1;
    const std::size_t close = match(t, open);
    for (std::size_t j = open + 1; j < close; ++j) {
      if (!is(t[j], "[")) continue;
      // Lambda introducer vs subscript: a subscript follows a value.
      const Tok& before = t[j - 1];
      if (before.kind == Tok::Kind::kIdent || before.kind == Tok::Kind::kNum ||
          before.kind == Tok::Kind::kStr || is(before, ")") ||
          is(before, "]")) {
        continue;
      }
      const std::size_t cap_end = match(t, j);
      for (std::size_t k = j + 1; k < cap_end; ++k) {
        if (!is(t[k], "&")) continue;
        const Tok& nx = tok_at(t, k + 1);
        if (is(nx, "]") || is(nx, ",")) {
          lint.report(f, t[k].line, "capture-escape",
                      "default by-reference capture [&] in a lambda passed "
                      "to the shard runner — name the captures so shared "
                      "state cannot sneak onto worker threads");
        } else if (nx.kind == Tok::Kind::kIdent &&
                   global_mutables.count(nx.text) != 0 &&
                   !is(tok_at(t, k + 2), "=")) {
          lint.report(f, nx.line, "capture-escape",
                      "lambda passed to the shard runner captures mutable "
                      "namespace-scope '" + nx.text +
                          "' by reference — workers would share it; pass "
                          "per-item state instead",
                      nx.text);
        }
      }
      j = cap_end;
    }
    i = close;
  }
}

// ---------------------------------------------------------------------------
// shard-escape: include-graph reachability from worker call sites
// ---------------------------------------------------------------------------

/// rel path of the same-stem .cc next to a header, e.g. src/a/b.h -> src/a/b.cc
std::string sibling_cc(const std::string& rel) {
  if (rel.size() < 2 || rel.compare(rel.size() - 2, 2, ".h") != 0) return {};
  return rel.substr(0, rel.size() - 2) + ".cc";
}

struct Reachability {
  // file rel -> predecessor rel on a shortest chain from a worker call site
  // ("" for the call-site files themselves).
  std::map<std::string, std::string> parent;

  bool reachable(const std::string& rel) const { return parent.count(rel); }

  std::vector<std::string> witness(const std::string& rel) const {
    std::vector<std::string> chain;
    auto it = parent.find(rel);
    std::string cur = rel;
    while (it != parent.end()) {
      chain.push_back(cur);
      if (it->second.empty()) break;
      cur = it->second;
      it = parent.find(cur);
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
  }
};

Reachability compute_reachability(
    const std::map<std::string, SourceFile>& files) {
  Reachability r;
  std::vector<std::string> queue;
  for (const auto& [rel, f] : files) {
    if (f.module == "runner") continue;
    bool entry = false;
    for (const Tok& t : f.toks) {
      if (t.kind == Tok::Kind::kIdent && kWorkerEntry.count(t.text) != 0) {
        entry = true;
        break;
      }
    }
    if (entry) {
      r.parent.emplace(rel, "");
      queue.push_back(rel);
    }
  }
  // BFS over (a) quoted includes resolved against src/ and (b) the
  // header -> implementation pairing: calling a function declared in a
  // reachable header executes its .cc on the worker thread.
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::string cur = queue[head];
    const SourceFile& f = files.at(cur);
    std::vector<std::string> nexts;
    for (const IncludeDirective& inc : f.includes) {
      if (!inc.quoted) continue;
      const std::string target = "src/" + inc.target;
      if (files.count(target)) nexts.push_back(target);
    }
    const std::string impl = sibling_cc(cur);
    if (!impl.empty() && files.count(impl)) nexts.push_back(impl);
    for (const std::string& n : nexts) {
      if (r.parent.emplace(n, cur).second) queue.push_back(n);
    }
  }
  return r;
}

void lint_shard_escape(Linter& lint, std::map<std::string, SourceFile>& files,
                       const Reachability& reach) {
  for (auto& [rel, f] : files) {
    if (rel.rfind("src/", 0) != 0) continue;  // tests own their statics
    if (f.module == "runner" || f.module == "obs") continue;
    if (!reach.reachable(rel)) continue;
    for (const VarSymbol& v : f.vars) {
      if (!v.keyworded) continue;  // plain globals: capture-escape territory
      if (!v.thread_local_) {
        lint.report(
            f, v.line, "shard-escape",
            "mutable static '" + v.name +
                "' is shared by every shard worker reachable from "
                "runner::parallel_map/shard_map — make it thread_local and "
                "reset it in the begin_trial/reseed trial-isolation path",
            v.symbol, reach.witness(rel));
        continue;
      }
      // thread_local: require a reset_* function in this TU that touches it,
      // wired into a file that drives the trial-isolation path.
      std::vector<std::string> resetters;
      for (const FuncSymbol& fn : f.funcs) {
        if (fn.name.find("reset") == std::string::npos) continue;
        for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
          if (f.toks[i].kind == Tok::Kind::kIdent &&
              f.toks[i].text == v.name) {
            resetters.push_back(fn.name);
            break;
          }
        }
      }
      bool wired = false;
      for (const std::string& fn : resetters) {
        for (const auto& [orel, other] : files) {
          // The defining file mentions the resetter by definition; wiring
          // must come from a *caller* that drives the trial-isolation path.
          if (orel == rel) continue;
          bool calls_resetter = false, in_trial_path = false;
          for (const Tok& t : other.toks) {
            if (t.kind != Tok::Kind::kIdent) continue;
            if (t.text == fn) calls_resetter = true;
            if (t.text == "begin_trial" || t.text.rfind("reseed", 0) == 0)
              in_trial_path = true;
          }
          if (calls_resetter && in_trial_path) {
            wired = true;
            break;
          }
        }
        if (wired) break;
      }
      if (!wired) {
        lint.report(
            f, v.line, "shard-escape",
            "thread_local '" + v.name +
                "' persists across the items a shard runs, so results depend "
                "on item history — add a reset_* function and call it from "
                "the begin_trial/reseed trial-isolation path",
            v.symbol, reach.witness(rel));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// stale-allow
// ---------------------------------------------------------------------------

void lint_stale_allows(Linter& lint, std::map<std::string, SourceFile>& files) {
  for (auto& [rel, f] : files) {
    for (const AllowMarker& m : f.allows) {
      if (m.hit) continue;
      // Reported unconditionally: a stale suppression cannot be suppressed.
      lint.findings.push_back(Finding{
          f.rel, m.line, "stale-allow",
          "allow(" + m.rule +
              ") suppresses nothing — the violation it excused is gone, so "
              "delete the marker (suppressions must not outlive their reason)",
          m.rule,
          {}});
    }
  }
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

std::string module_of_rel(const std::string& rel) {
  if (rel.rfind("src/", 0) != 0) return {};
  const std::size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return {};
  return rel.substr(4, slash - 4);
}

bool load_tree(const fs::path& root, std::map<std::string, SourceFile>& files) {
  bool any = false;
  for (const char* sub : {"src", "tests"}) {
    const fs::path top = root / sub;
    if (!fs::exists(top)) continue;
    for (auto it = fs::recursive_directory_iterator(top);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() &&
          it->path().filename() == "lint_fixtures") {
        it.disable_recursion_pending();  // fixture trees are linted on demand
        continue;
      }
      if (!it->is_regular_file()) continue;
      const fs::path& p = it->path();
      if (p.extension() != ".h" && p.extension() != ".cc") continue;
      SourceFile f;
      f.abs = p;
      f.rel = fs::relative(p, root).generic_string();
      f.module = module_of_rel(f.rel);
      f.is_header = p.extension() == ".h";
      f.in_tests = f.rel.rfind("tests/", 0) == 0;
      std::ifstream in(p, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      lex(buf.str(), f);
      SymbolCollector{f}.run();
      files.emplace(f.rel, std::move(f));
      any = true;
    }
  }
  return any;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_json(std::ostream& os, const std::vector<Finding>& findings,
                std::size_t files_checked) {
  os << "{\n  \"version\": 2,\n  \"files_checked\": " << files_checked
     << ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i ? ",\n" : "\n");
    os << "    {\"rule\": \"" << json_escape(f.rule) << "\", \"file\": \""
       << json_escape(f.rel) << "\", \"line\": " << f.line
       << ", \"symbol\": \"" << json_escape(f.symbol) << "\", \"message\": \""
       << json_escape(f.message) << "\", \"witness\": [";
    for (std::size_t w = 0; w < f.witness.size(); ++w) {
      os << (w ? ", " : "") << "\"" << json_escape(f.witness[w]) << "\"";
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<fs::path> roots;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "tspulint: unknown flag " << arg << "\n";
      return 2;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << "usage: tspulint [--json] <repo-root> [more roots...]\n";
    return 2;
  }

  std::map<std::string, SourceFile> files;
  bool any = false;
  for (const fs::path& root : roots) any |= load_tree(root, files);
  if (!any) {
    std::cerr << "tspulint: no src/ or tests/ sources found under the given "
                 "roots (wrong directory?)\n";
    return 2;
  }

  // Namespace-scope mutable variables anywhere in the tree: the set a
  // by-reference lambda capture must not name.
  std::set<std::string> global_mutables;
  for (const auto& [rel, f] : files) {
    for (const VarSymbol& v : f.vars) {
      if (!v.function_local) global_mutables.insert(v.name);
    }
  }

  Linter lint;
  lint.files = &files;
  for (auto& [rel, f] : files) {
    lint_file_tokens(lint, f);
    lint_captures(lint, f, global_mutables);
  }
  const Reachability reach = compute_reachability(files);
  lint_shard_escape(lint, files, reach);
  lint_stale_allows(lint, files);

  std::sort(lint.findings.begin(), lint.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.rel, a.line, a.rule, a.message) <
                     std::tie(b.rel, b.line, b.rule, b.message);
            });

  if (json) {
    write_json(std::cout, lint.findings, files.size());
    return lint.findings.empty() ? 0 : 1;
  }

  for (const Finding& f : lint.findings) {
    std::cout << f.rel << ":" << f.line << ": " << f.rule << ": " << f.message;
    if (!f.witness.empty()) {
      std::cout << " [reached via";
      for (const std::string& w : f.witness) std::cout << " " << w;
      std::cout << "]";
    }
    std::cout << "\n";
  }
  if (!lint.findings.empty()) {
    std::cout << "tspulint: " << lint.findings.size() << " violation"
              << (lint.findings.size() == 1 ? "" : "s") << " in "
              << files.size() << " files\n";
    return 1;
  }
  std::cout << "tspulint: OK (" << files.size() << " files checked)\n";
  return 0;
}
