// Coverage for the dagonlint determinism-audit tool itself: each rule
// fires on its seeded fixture with the exact rule id, path, and line;
// a justified allow() suppresses; a bare allow() is itself a finding;
// and the real src/ tree stays at zero unsuppressed findings.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct LintResult {
  int exit_code = -1;
  std::string output;
};

/// Runs dagonlint with `args`, capturing stdout+stderr and exit code.
LintResult run_lint(const std::string& args) {
  const std::string cmd = std::string(DAGONLINT_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to launch " << cmd;
  LintResult r;
  if (!pipe) return r;
  std::array<char, 4096> buf;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe)) {
    r.output += buf.data();
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixture(const std::string& name) {
  return std::string(LINT_FIXTURES_DIR) + "/" + name;
}

/// The exact finding prefix dagonlint prints: `path:line: [rule]`.
std::string finding(const std::string& file, int line,
                    const std::string& rule) {
  return fixture(file) + ":" + std::to_string(line) + ": [" + rule + "]";
}

TEST(Lint, UnorderedIterFixtureFiresWithExactLocation) {
  const LintResult r = run_lint(fixture("unordered_iter.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(finding("unordered_iter.cpp", 5,
                                  "unordered-iter")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, NondetSourceFixtureFiresWithExactLocation) {
  const LintResult r = run_lint(fixture("nondet_source.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(
      r.output.find(finding("nondet_source.cpp", 7, "nondet-source")),
      std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, PtrOrderFixtureFiresWithExactLocation) {
  const LintResult r = run_lint(fixture("ptr_order.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(finding("ptr_order.cpp", 7, "ptr-order")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, RawUnitDeclFixtureFiresWithExactLocation) {
  const LintResult r = run_lint(fixture("raw_unit_decl.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(finding("raw_unit_decl.cpp", 5, "raw-unit-decl")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, NarrowingCastFixtureFiresWithExactLocation) {
  const LintResult r = run_lint(fixture("narrowing_cast.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(finding("narrowing_cast.cpp", 6,
                                  "narrowing-cast")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, NarrowingCastEvidenceIsScopedToItsFunction) {
  // The `double x` of one function flags its own cast (line 12) and no
  // cast of the integer `x` declared before or after it (lines 8, 17).
  const LintResult r = run_lint(fixture("narrowing_cast_scoped.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(finding("narrowing_cast_scoped.cpp", 12,
                                  "narrowing-cast")),
            std::string::npos)
      << r.output;
  for (const int line : {8, 17}) {
    EXPECT_EQ(r.output.find(finding("narrowing_cast_scoped.cpp", line,
                                    "narrowing-cast")),
              std::string::npos)
        << r.output;
  }
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, MagicUnitConstantFixtureFiresWithExactLocation) {
  const LintResult r = run_lint(fixture("magic_unit_constant.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(finding("magic_unit_constant.cpp", 4,
                                  "magic-unit-constant")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, OverflowMulFixtureFiresWithExactLocation) {
  const LintResult r = run_lint(fixture("overflow_mul.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(finding("overflow_mul.cpp", 6, "overflow-mul")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, UnguardedGlobalFixtureFiresWithExactLocation) {
  const LintResult r = run_lint(fixture("unguarded_global.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(finding("unguarded_global.cpp", 5,
                                  "unguarded-global")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, UnguardedCaptureFixtureFiresAtSubmitSite) {
  const LintResult r = run_lint(fixture("unguarded_capture.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(finding("unguarded_capture.cpp", 14,
                                  "unguarded-capture")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'total'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

// The archproj mini-tree exercises the graph pass end-to-end: a
// manifest, an include cycle, an upward include, and a dead include —
// one finding each, at exact locations.
TEST(Lint, ArchprojGraphPassFindsCycleUpwardAndDeadInclude) {
  const LintResult r =
      run_lint("--layers=" + fixture("archproj/layers.toml") + " " +
               fixture("archproj"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(finding("archproj/src/base/cycle_b.hpp", 3,
                                  "layering-cycle")),
            std::string::npos)
      << r.output;
  // The cycle message names the full chain, so the finding is
  // actionable without re-running anything.
  EXPECT_NE(r.output.find("base/cycle_a.hpp -> base/cycle_b.hpp -> "
                          "base/cycle_a.hpp"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(finding("archproj/src/mid/widget.hpp", 5,
                                  "upward-include")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("(mid -> top)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(finding("archproj/src/top/app.cpp", 3,
                                  "dead-include")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("3 finding(s)"), std::string::npos) << r.output;
}

// Without a manifest the layering rules stay off, but dead-include is
// manifest-free and still fires on the archproj tree.
TEST(Lint, DeadIncludeFiresWithoutManifest) {
  const LintResult r = run_lint(fixture("archproj"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(finding("archproj/src/top/app.cpp", 3,
                                  "dead-include")),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("[layering-cycle]"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("[upward-include]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, DocDriftFixtureFiresForFlagPresetAndRuleTable) {
  const LintResult r =
      run_lint("--docs-root=" + fixture("docdrift") + " " +
               fixture("docdrift"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(finding("docdrift/dagonsim.cpp", 9, "doc-drift")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'--undocumented'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(finding("docdrift/dagonsim.cpp", 15, "doc-drift")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("preset 'beta'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(finding("docdrift/DESIGN.md", 1, "doc-drift")),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("`doc-drift`"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("3 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, DocDriftNeedsDocsRootAndMissingDocsExitTwo) {
  // Without --docs-root the rule is inert even on the drifting fixture.
  const LintResult off = run_lint(fixture("docdrift/dagonsim.cpp"));
  EXPECT_EQ(off.exit_code, 0) << off.output;
  // With a docs root that has no README/DESIGN it is a usage error.
  const LintResult bad = run_lint("--docs-root=" + fixture("archproj") +
                                  " " + fixture("docdrift/dagonsim.cpp"));
  EXPECT_EQ(bad.exit_code, 2) << bad.output;
}

TEST(Lint, GraphDotPrintsClusteredIncludeGraph) {
  const LintResult r =
      run_lint("--layers=" + fixture("archproj/layers.toml") +
               " --graph-dot " + fixture("archproj"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("digraph include_graph {"), std::string::npos)
      << r.output;
  // Clusters follow the manifest order bottom-up.
  const std::size_t base = r.output.find("subgraph \"cluster_base\"");
  const std::size_t mid = r.output.find("subgraph \"cluster_mid\"");
  const std::size_t top = r.output.find("subgraph \"cluster_top\"");
  EXPECT_NE(base, std::string::npos) << r.output;
  EXPECT_NE(mid, std::string::npos) << r.output;
  EXPECT_NE(top, std::string::npos) << r.output;
  EXPECT_LT(base, mid);
  EXPECT_LT(mid, top);
  // Node names are src/-relative, so the output is independent of the
  // invocation path; edges carry the resolved include relation.
  EXPECT_NE(r.output.find("\"mid/widget.hpp\" -> \"base/util.hpp\";"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"top/app.cpp\" -> \"mid/widget.hpp\";"),
            std::string::npos)
      << r.output;
}

TEST(Lint, AllowOnIncludeLineSuppressesLayeringRules) {
  // The `layering` alias must cover an upward include when the allow
  // rides on the include line itself (include lines tokenize to
  // nothing, so allow anchoring needs the explicit code-line merge).
  const std::string dir = fixture("archproj");
  const LintResult ok =
      run_lint("--layers=" + fixture("archproj/layers.toml") + " " + dir +
               "/src/mid/allowed.hpp " + dir + "/src/top/app_defs.hpp");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("0 finding(s)"), std::string::npos) << ok.output;
  // The identical include without an allow still fires — guards that
  // the clean run above is the allow's doing, not a scoping accident.
  const LintResult fires =
      run_lint("--layers=" + fixture("archproj/layers.toml") + " " + dir +
               "/src/mid/widget.hpp " + dir + "/src/base/util.hpp " + dir +
               "/src/top/app_defs.hpp");
  EXPECT_EQ(fires.exit_code, 1) << fires.output;
  EXPECT_NE(fires.output.find("[upward-include]"), std::string::npos)
      << fires.output;
}

TEST(Lint, GithubFormatEmitsErrorAnnotations) {
  const LintResult r =
      run_lint("--format=github " + fixture("unordered_iter.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("::error file=" + fixture("unordered_iter.cpp") +
                          ",line=5,title=dagonlint unordered-iter::"),
            std::string::npos)
      << r.output;
  // Annotations only — no plain-text footer in this format.
  EXPECT_EQ(r.output.find("finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, SarifFormatEmitsResultWithRuleAndLine) {
  const LintResult r =
      run_lint("--format=sarif " + fixture("unordered_iter.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("\"version\":\"2.1.0\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"ruleId\":\"unordered-iter\""),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"startLine\":5"), std::string::npos) << r.output;
}

TEST(Lint, SarifFormatOnCleanFileHasEmptyResults) {
  const LintResult r = run_lint("--format=sarif " + fixture("suppressed.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"results\":[]"), std::string::npos) << r.output;
}

TEST(Lint, UnknownFormatExitsTwo) {
  const LintResult r =
      run_lint("--format=xml " + fixture("unordered_iter.cpp"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// The scan pass fans out across a thread pool; findings are sorted
// (path, line, rule) before printing, so output must be byte-identical
// to a serial run regardless of worker count — graph and doc passes
// included.
TEST(Lint, ParallelScanOutputMatchesSerial) {
  const std::string args = "--layers=" + fixture("archproj/layers.toml") +
                           " --docs-root=" + fixture("docdrift") + " " +
                           std::string(LINT_FIXTURES_DIR);
  const LintResult serial = run_lint("--jobs=1 " + args);
  const LintResult parallel = run_lint("--jobs=8 " + args);
  EXPECT_EQ(serial.exit_code, parallel.exit_code);
  EXPECT_EQ(serial.output, parallel.output);
}

// --jobs now defaults to hardware_concurrency(); the default must be
// byte-identical to an explicit serial run, not merely equivalent.
TEST(Lint, DefaultJobsOutputMatchesSerial) {
  const std::string args = "--layers=" + fixture("archproj/layers.toml") +
                           " --docs-root=" + fixture("docdrift") + " " +
                           std::string(LINT_FIXTURES_DIR);
  const LintResult serial = run_lint("--jobs=1 " + args);
  const LintResult def = run_lint(args);
  EXPECT_EQ(serial.exit_code, def.exit_code);
  EXPECT_EQ(serial.output, def.output);
}

TEST(Lint, JustifiedAllowSuppressesAndExitsZero) {
  const LintResult r = run_lint(fixture("suppressed.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, BareAllowIsItselfAFinding) {
  const LintResult r = run_lint(fixture("bare_allow.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The suppression still applies (no unordered-iter report), but the
  // missing justification is reported at the directive's line.
  EXPECT_NE(r.output.find(finding("bare_allow.cpp", 10, "bare-allow")),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("[unordered-iter]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, WholeFixtureDirReportsEveryRuleOnce) {
  const LintResult r =
      run_lint("--layers=" + fixture("archproj/layers.toml") +
               " --docs-root=" + fixture("docdrift") + " " +
               std::string(LINT_FIXTURES_DIR));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const char* rule :
       {"unordered-iter", "nondet-source", "ptr-order", "bare-allow",
        "raw-unit-decl", "narrowing-cast", "magic-unit-constant",
        "overflow-mul", "layering-cycle", "upward-include", "dead-include",
        "unguarded-global", "unguarded-capture", "doc-drift"}) {
    EXPECT_NE(r.output.find(std::string("[") + rule + "]"),
              std::string::npos)
        << "missing " << rule << " in:\n"
        << r.output;
  }
  EXPECT_NE(r.output.find("17 finding(s)"), std::string::npos) << r.output;
}

TEST(Lint, ListRulesNamesEveryRule) {
  const LintResult r = run_lint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule :
       {"unordered-iter", "nondet-source", "ptr-order", "bare-allow",
        "raw-unit-decl", "narrowing-cast", "magic-unit-constant",
        "overflow-mul", "layering-cycle", "upward-include", "dead-include",
        "unguarded-global", "unguarded-capture", "doc-drift"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos) << r.output;
  }
  // One line per rule, and no others.
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 14)
      << r.output;
}

TEST(Lint, MissingPathExitsTwo) {
  const LintResult r = run_lint(fixture("no_such_file.cpp"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// The acceptance gate, enforced continuously: the real source tree has
// zero unsuppressed findings with every pass active — layering against
// the checked-in manifest and doc-drift against the repo root. If this
// fails, either fix the new hazard (or doc gap) or add an audited
// `// dagonlint: allow(<rule>): <why>` annotation.
TEST(Lint, RepoSourceTreeIsClean) {
  const LintResult r =
      run_lint("--layers=" + std::string(DAGON_ROOT_DIR) +
               "/tools/dagonlint/layers.toml --docs-root=" + DAGON_ROOT_DIR +
               " " + DAGON_SRC_DIR + " " + DAGON_TOOLS_DIR + " " +
               DAGON_BENCH_DIR);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
}

// The checked-in include-graph render must match what the tool emits
// for the current tree; CI diffs the same pair.
TEST(Lint, CheckedInIncludeGraphDotIsCurrent) {
  const LintResult r =
      run_lint("--layers=" + std::string(DAGON_ROOT_DIR) +
               "/tools/dagonlint/layers.toml --graph-dot " + DAGON_SRC_DIR);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(std::string(DAGON_ROOT_DIR) +
                   "/docs/arch/include_graph.dot");
  ASSERT_TRUE(in.good());
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(r.output, golden.str());
}

}  // namespace
