// Drives the tspulint binary (tools/tspulint.cc) over the fixture trees in
// tests/lint_fixtures/: the bad/ tree holds at least one positive case per
// rule (the nine v1 rules plus shard-escape, capture-escape,
// env-confinement, stale-allow) and the good/ tree holds the matching
// negatives — near-miss code that must lint completely clean, including the
// false-positive classes the v1 line scanner suffered from (idents in
// comments/strings, ::play definitions, multi-line declarations).
//
// TSPULINT_BIN and LINT_FIXTURES_DIR are injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_lint(const std::string& args) {
  const std::string cmd = std::string(TSPULINT_BIN) + " " + args + " 2>&1";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return r;
  char buf[4096];
  std::size_t n;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) r.output.append(buf, n);
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::string fixtures(const char* tree) {
  return std::string(LINT_FIXTURES_DIR) + "/" + tree;
}

/// Parses "file:line: rule: message" lines into (rule, file) -> count.
std::map<std::pair<std::string, std::string>, int> tally(
    const std::string& output) {
  std::map<std::pair<std::string, std::string>, int> counts;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t c1 = line.find(':');
    if (c1 == std::string::npos) continue;
    const std::size_t c2 = line.find(':', c1 + 1);
    if (c2 == std::string::npos) continue;
    const std::size_t c3 = line.find(':', c2 + 1);
    if (c3 == std::string::npos) continue;
    const std::string file = line.substr(0, c1);
    if (file.rfind("src/", 0) != 0 && file.rfind("tests/", 0) != 0) continue;
    std::string rule = line.substr(c2 + 1, c3 - c2 - 1);
    while (!rule.empty() && rule.front() == ' ') rule.erase(rule.begin());
    ++counts[{rule, file}];
  }
  return counts;
}

TEST(Tspulint, BadTreeFiresEveryRuleExactly) {
  const RunResult r = run_lint(fixtures("bad"));
  ASSERT_EQ(r.exit_code, 1) << r.output;

  const std::map<std::pair<std::string, std::string>, int> expected = {
      {{"shard-escape", "src/alpha/state.cc"}, 3},
      {{"nodiscard-parse", "src/dns/nodiscardbad.h"}, 2},
      {{"capture-escape", "src/measure/capturebad.cc"}, 2},
      {{"hotpath-alloc", "src/netsim/hotpathbad.cc"}, 3},
      {{"namespace-module", "src/measure/nonamespace.cc"}, 1},
      {{"retry", "src/measure/retrybad.cc"}, 1},
      {{"obs", "src/netsim/obsbad.cc"}, 1},
      {{"nondeterminism", "src/netsim/rngbad.cc"}, 2},
      {{"unordered-container", "src/netsim/unorderedbad.cc"}, 2},
      {{"env-confinement", "src/topo/envbad.cc"}, 1},
      {{"pragma-once", "src/topo/noguard.h"}, 1},
      {{"raw-thread", "src/tspu/threadbad.cc"}, 2},
      {{"hotpath-parse", "src/tspu/parsebad.cc"}, 2},
      {{"hotpath-parse", "src/ispdpi/parsebad.cc"}, 1},
      {{"raw-buffer-copy", "src/wire/copybad.cc"}, 1},
      {{"raw-buffer-index", "src/wire/indexbad.cc"}, 2},
      {{"stale-allow", "src/wire/staleallow.cc"}, 1},
  };
  EXPECT_EQ(tally(r.output), expected) << r.output;
}

TEST(Tspulint, GoodTreeIsCompletelyClean) {
  const RunResult r = run_lint(fixtures("good"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("tspulint: OK"), std::string::npos) << r.output;
}

TEST(Tspulint, ShardEscapeFindingCarriesIncludePathWitness) {
  const RunResult r = run_lint(fixtures("bad"));
  ASSERT_EQ(r.exit_code, 1) << r.output;
  // The chain must name the worker call site, the header, and the TU.
  EXPECT_NE(
      r.output.find(
          "[reached via src/measure/drive.cc src/alpha/state.h "
          "src/alpha/state.cc]"),
      std::string::npos)
      << r.output;
}

TEST(Tspulint, JsonOutputHasSchemaAndSymbols) {
  const RunResult r = run_lint("--json " + fixtures("bad"));
  ASSERT_EQ(r.exit_code, 1) << r.output;
  const std::string& j = r.output;

  // Minimal well-formedness: balanced braces/brackets, no trailing junk.
  long braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < j.size(); ++i) {
    const char c = j[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0) << j;
  EXPECT_EQ(brackets, 0) << j;
  EXPECT_FALSE(in_string) << j;

  // Envelope and required keys.
  EXPECT_NE(j.find("\"version\": 2"), std::string::npos) << j;
  EXPECT_NE(j.find("\"files_checked\":"), std::string::npos) << j;
  for (const char* key :
       {"\"rule\":", "\"file\":", "\"line\":", "\"symbol\":", "\"message\":",
        "\"witness\":"}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key;
  }

  // The seed-class finding: namespace-qualified symbol plus witness chain.
  EXPECT_NE(j.find("\"rule\": \"shard-escape\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"symbol\": \"tspu::alpha::g_hits\""), std::string::npos)
      << j;
  EXPECT_NE(j.find("\"symbol\": \"tspu::alpha::local_bump::calls\""),
            std::string::npos)
      << j;
  EXPECT_NE(j.find("\"witness\": [\"src/measure/drive.cc\", "
                   "\"src/alpha/state.h\", \"src/alpha/state.cc\"]"),
            std::string::npos)
      << j;
}

TEST(Tspulint, JsonOutputOnCleanTreeIsEmptyFindings) {
  const RunResult r = run_lint("--json " + fixtures("good"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"findings\": [\n  ]"), std::string::npos)
      << r.output;
}

TEST(Tspulint, UsageErrorsExitTwo) {
  EXPECT_EQ(run_lint("").exit_code, 2);
  EXPECT_EQ(run_lint("--bogus-flag x").exit_code, 2);
}

}  // namespace
