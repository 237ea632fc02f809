// Golden-fixture tests for every lint rule, plus lexer/suppression unit
// tests. Per-file rules get three fixtures each under testdata/rules/<id>/:
// fire.cpp (must produce the finding), pass.cpp (must not), suppressed.cpp
// (fires without its annotation, silenced by a reasoned allow). Cross-file
// rules get a complete mini-tree (testdata/coverage/ok) plus seeded
// violations (testdata/coverage/variants/*) overlaid on it — including the
// canonical regression: a RecordInvalidation with the buffer append removed.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace gvfs::lint {
namespace {

namespace fs = std::filesystem;

const fs::path kTestdata = LINT_TESTDATA_DIR;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

/// Lints one fixture file as if it lived in the most restrictive scope
/// (src/gvfs/ is inside src/ and inside the protocol dirs, so every
/// per-file rule applies there).
std::vector<Finding> LintFixture(const fs::path& file) {
  Tree tree;
  FileUnit unit = MakeUnit("src/gvfs/fixture.cpp", ReadFile(file));
  tree.emplace(unit.rel_path, std::move(unit));
  return LintTree(tree);
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(Lexer, SkipsCommentsAndStrings) {
  const Lexed lex = Lex(
      "int a; // time(nullptr) in a comment\n"
      "/* rand() in a block\n   comment */\n"
      "const char* s = \"gettimeofday()\";\n"
      "const char* r = R\"(std::mt19937 gen;)\";\n");
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "time");
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "gettimeofday");
    EXPECT_NE(t.text, "mt19937");
  }
  ASSERT_EQ(lex.comments.size(), 2u);
  EXPECT_EQ(lex.comments[0].line, 1);
  EXPECT_EQ(lex.comments[1].line, 2);
}

TEST(Lexer, WholeIdentifiersOnly) {
  const Lexed lex = Lex("void ObserveMtime(int mtime);\n");
  bool saw_observe = false;
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "time");
    if (t.text == "ObserveMtime") saw_observe = true;
  }
  EXPECT_TRUE(saw_observe);
}

TEST(Lexer, RecordsIncludesAndLines) {
  const Lexed lex = Lex(
      "#include <chrono>\n"
      "#include \"common/rng.h\"\n"
      "int x;\n");
  ASSERT_EQ(lex.includes.size(), 2u);
  EXPECT_EQ(lex.includes[0].header, "chrono");
  EXPECT_TRUE(lex.includes[0].angled);
  EXPECT_EQ(lex.includes[0].line, 1);
  EXPECT_EQ(lex.includes[1].header, "common/rng.h");
  EXPECT_FALSE(lex.includes[1].angled);
  ASSERT_FALSE(lex.tokens.empty());
  EXPECT_EQ(lex.tokens.front().line, 3);
}

TEST(Lexer, TokenizesMacroBodies) {
  const Lexed lex = Lex("#define NOW() time(nullptr)\n");
  bool saw_time = false;
  for (const Token& t : lex.tokens) {
    if (t.text == "time") saw_time = true;
  }
  EXPECT_TRUE(saw_time);
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

TEST(Suppressions, ParsesRulesAndReason) {
  const Lexed lex =
      Lex("// gvfs-lint: allow(wall-clock, unordered-container): benchmarking "
          "harness, order never escapes\n");
  const auto sups = ParseSuppressions(lex);
  ASSERT_EQ(sups.size(), 1u);
  EXPECT_EQ(sups[0].rules,
            (std::vector<std::string>{"wall-clock", "unordered-container"}));
  EXPECT_FALSE(sups[0].reason.empty());
}

TEST(Suppressions, CoversSameAndNextLine) {
  Tree tree;
  FileUnit unit = MakeUnit(
      "src/gvfs/fixture.cpp",
      "// gvfs-lint: allow(wall-clock): fixture exercises next-line scope\n"
      "long a = time(nullptr);\n"
      "long b = time(nullptr);  // gvfs-lint: allow(wall-clock): same line\n"
      "long c = time(nullptr);\n");
  tree.emplace(unit.rel_path, std::move(unit));
  const auto findings = LintTree(tree);
  ASSERT_EQ(CountRule(findings, "wall-clock"), 1);
  // Only the uncovered line 4 survives.
  for (const Finding& f : findings) {
    if (f.rule == "wall-clock") {
      EXPECT_EQ(f.line, 4);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-file rules, golden fixtures
// ---------------------------------------------------------------------------

struct RuleFixture {
  const char* rule;
  bool has_suppressed;  // bad-suppression cannot suppress itself
};

constexpr RuleFixture kRuleFixtures[] = {
    {"wall-clock", true},
    {"ambient-randomness", true},
    {"banned-include", true},
    {"unordered-container", true},
    {"pointer-order", true},
    {"throw-in-protocol", true},
    {"try-in-protocol", true},
    {"discarded-expected", true},
    {"bad-suppression", false},
    {"use-after-suspend", true},
    {"iter-after-suspend", true},
    {"lock-across-suspend", true},
    {"detached-task", true},
};

TEST(RuleFixtures, FirePassSuppressed) {
  for (const RuleFixture& rf : kRuleFixtures) {
    SCOPED_TRACE(rf.rule);
    const fs::path dir = kTestdata / "rules" / rf.rule;

    const auto fire = LintFixture(dir / "fire.cpp");
    EXPECT_GE(CountRule(fire, rf.rule), 1) << "fire.cpp did not fire";

    const auto pass = LintFixture(dir / "pass.cpp");
    EXPECT_EQ(pass.size(), 0u) << "pass.cpp is not clean: "
                               << FormatText(pass);

    if (rf.has_suppressed) {
      const auto suppressed = LintFixture(dir / "suppressed.cpp");
      EXPECT_EQ(suppressed.size(), 0u)
          << "suppressed.cpp is not clean: " << FormatText(suppressed);
      // The annotation, not the code, is what keeps it clean: the same file
      // with comments stripped must fire.
      std::string body = ReadFile(dir / "suppressed.cpp");
      Tree tree;
      Lexed lex = Lex(body);
      FileUnit unit;
      unit.rel_path = "src/gvfs/fixture.cpp";
      unit.disk_path = unit.rel_path;
      unit.lex = std::move(lex);
      // suppressions intentionally left unparsed
      tree.emplace(unit.rel_path, std::move(unit));
      EXPECT_GE(CountRule(LintTree(tree), rf.rule), 1)
          << "suppressed.cpp would not fire even without its annotation";
    }
  }
}

// hot-path-type scopes to src/sim, src/rpc and the per-operation caches
// (src/kclient, src/memfs, src/gvfs/disk_cache.*), narrower than the shared
// fixture harness's src/gvfs/ path, so it gets its own fire/pass/suppressed
// pass at in-scope paths plus an out-of-scope check.
TEST(RuleFixtures, HotPathTypeFirePassSuppressedScoped) {
  const fs::path dir = kTestdata / "rules" / "hot-path-type";
  auto lint_at = [&](const char* rel_path, const fs::path& file) {
    Tree tree;
    FileUnit unit = MakeUnit(rel_path, ReadFile(file));
    tree.emplace(unit.rel_path, std::move(unit));
    return LintTree(tree);
  };

  const auto fire = lint_at("src/sim/fixture.cpp", dir / "fire.cpp");
  EXPECT_EQ(CountRule(fire, "hot-path-type"), 2)
      << "expected one std::function and one std::map finding";
  const auto fire_rpc = lint_at("src/rpc/fixture.cpp", dir / "fire.cpp");
  EXPECT_EQ(CountRule(fire_rpc, "hot-path-type"), 2);
  for (const char* cache_path :
       {"src/kclient/fixture.cpp", "src/memfs/fixture.h",
        "src/gvfs/disk_cache.h", "src/gvfs/disk_cache.cpp"}) {
    EXPECT_EQ(CountRule(lint_at(cache_path, dir / "fire.cpp"), "hot-path-type"), 2)
        << cache_path;
    EXPECT_EQ(lint_at(cache_path, dir / "suppressed.cpp").size(), 0u) << cache_path;
  }

  const auto pass = lint_at("src/sim/fixture.cpp", dir / "pass.cpp");
  EXPECT_EQ(pass.size(), 0u) << "pass.cpp is not clean: " << FormatText(pass);

  const auto suppressed =
      lint_at("src/sim/fixture.cpp", dir / "suppressed.cpp");
  EXPECT_EQ(suppressed.size(), 0u)
      << "suppressed.cpp is not clean: " << FormatText(suppressed);

  // Outside the two hot-path directories the rule must stay silent: the
  // flexibility of std::function/std::map is fine where packets don't flow.
  const auto out_of_scope = lint_at("src/gvfs/fixture.cpp", dir / "fire.cpp");
  EXPECT_EQ(CountRule(out_of_scope, "hot-path-type"), 0);
}

TEST(Rules, PlainVariableDiscardIsAllowed) {
  Tree tree;
  FileUnit unit = MakeUnit("src/gvfs/fixture.cpp",
                           "void F(int body) { (void)body; }\n");
  tree.emplace(unit.rel_path, std::move(unit));
  EXPECT_EQ(CountRule(LintTree(tree), "discarded-expected"), 0);
}

TEST(Rules, ProtocolRulesScopedToProtocolDirs) {
  // The same throw outside src/{gvfs,rpc,nfs3,sim} is not a finding: tests
  // and workloads may use exceptions.
  Tree tree;
  FileUnit unit = MakeUnit("tests/fixture.cpp",
                           "void F() { throw 1; }\n");
  tree.emplace(unit.rel_path, std::move(unit));
  EXPECT_EQ(CountRule(LintTree(tree), "throw-in-protocol"), 0);
}

// ---------------------------------------------------------------------------
// Cross-file coverage rules
// ---------------------------------------------------------------------------

class CoverageTest : public ::testing::Test {
 protected:
  /// Copies the ok-tree into a temp dir, overlaying one seeded-violation
  /// variant if given, and lints the result.
  std::vector<Finding> LintVariant(const std::string& variant) {
    const fs::path temp =
        fs::path(::testing::TempDir()) / "gvfs_lint_cov" /
        (variant.empty() ? "ok" : variant);
    fs::remove_all(temp);
    fs::create_directories(temp);
    fs::copy(kTestdata / "coverage" / "ok", temp,
             fs::copy_options::recursive | fs::copy_options::overwrite_existing);
    if (!variant.empty()) {
      fs::copy(kTestdata / "coverage" / "variants" / variant, temp,
               fs::copy_options::recursive |
                 fs::copy_options::overwrite_existing);
    }
    std::string error;
    LintOptions opts;
    opts.dirs = {"src", "tools"};
    auto findings = LintRoot(temp.string(), opts, &error);
    EXPECT_EQ(error, "");
    return findings;
  }
};

TEST_F(CoverageTest, OkTreeIsClean) {
  const auto findings = LintVariant("");
  EXPECT_EQ(findings.size(), 0u) << FormatText(findings);
}

TEST_F(CoverageTest, MissingInvalidationAppendIsCaught) {
  // RecordInvalidation still exists but no longer appends to the log.
  const auto findings = LintVariant("missing_append");
  EXPECT_GE(CountRule(findings, "inv-coverage"), 1) << FormatText(findings);
}

TEST_F(CoverageTest, MissingLogStoreIsCaught) {
  // InvLog::Append still traces every client it reaches but stores nothing:
  // both the proxy server's and the tier's clients lose peer writes.
  const auto findings = LintVariant("missing_log_store");
  EXPECT_GE(CountRule(findings, "inv-coverage"), 1) << FormatText(findings);
}

TEST_F(CoverageTest, UnmarkedMutatingProcIsCaught) {
  const auto findings = LintVariant("missing_mutating");
  EXPECT_GE(CountRule(findings, "inv-coverage"), 1) << FormatText(findings);
}

TEST_F(CoverageTest, UnregisteredProcIsCaught) {
  const auto findings = LintVariant("missing_handler");
  EXPECT_GE(CountRule(findings, "proc-coverage"), 1) << FormatText(findings);
}

TEST_F(CoverageTest, UnregisteredGvfsProcIsCaught) {
  const auto findings = LintVariant("missing_gvfs_handler");
  EXPECT_GE(CountRule(findings, "proc-coverage"), 1) << FormatText(findings);
}

TEST_F(CoverageTest, MissingProcNameIsCaught) {
  const auto findings = LintVariant("missing_name");
  EXPECT_GE(CountRule(findings, "stats-name-coverage"), 1)
      << FormatText(findings);
}

TEST_F(CoverageTest, UntracedAppendIsCaught) {
  const auto findings = LintVariant("missing_trace");
  EXPECT_GE(CountRule(findings, "trace-coverage"), 1) << FormatText(findings);
}

TEST_F(CoverageTest, MissingAggregatorAppendIsCaught) {
  // The tier-level twin of missing_append: Ingest() still stamps its marker
  // but no longer appends to the tier's log.
  const auto findings = LintVariant("missing_agg_append");
  EXPECT_GE(CountRule(findings, "inv-coverage"), 1) << FormatText(findings);
}

TEST_F(CoverageTest, UntracedAggregatorFanoutIsCaught) {
  // Appends are intact but kAggIngest (Ingest) and kAggFanout
  // (InvLog::Append) are gone: one trace-coverage finding per untraced hop
  // across the tier.
  const auto findings = LintVariant("missing_agg_trace");
  EXPECT_GE(CountRule(findings, "trace-coverage"), 2) << FormatText(findings);
}

TEST_F(CoverageTest, MissingMigrateDrainIsCaught) {
  // HandleMigrate() still recalls conflicts but skipped the InvLog drain:
  // the exact bug TraceChecker invariant 6 observes at runtime, caught here
  // at lint time.
  const auto findings = LintVariant("missing_drain");
  EXPECT_GE(CountRule(findings, "migrate-coverage"), 1)
      << FormatText(findings);
}

TEST_F(CoverageTest, MissingMigrateFlushIsCaught) {
  // Client-side twin: MigrateMode() drops the delegation without flushing.
  const auto findings = LintVariant("missing_migrate_flush");
  EXPECT_GE(CountRule(findings, "migrate-coverage"), 1)
      << FormatText(findings);
}

TEST_F(CoverageTest, MissingEventTypeNameIsCaught) {
  const auto findings = LintVariant("missing_event_name");
  EXPECT_GE(CountRule(findings, "trace-coverage"), 1) << FormatText(findings);
}

TEST_F(CoverageTest, MissingDetectorRegistrationIsCaught) {
  // An AnomalyKind dropped from kDetectors loses its observatory counter
  // and its dump rendering while the rest of the pipeline still compiles.
  const auto findings = LintVariant("missing_detector");
  EXPECT_GE(CountRule(findings, "anomaly-coverage"), 1)
      << FormatText(findings);
}

TEST_F(CoverageTest, MissingAnomalyNameIsCaught) {
  // A kind without an AnomalyKindName case serialises as "?" in dumps, so
  // the doctor can no longer round-trip it.
  const auto findings = LintVariant("missing_anomaly_name");
  EXPECT_GE(CountRule(findings, "anomaly-coverage"), 1)
      << FormatText(findings);
}

TEST_F(CoverageTest, MissingVerdictIsCaught) {
  // The doctor's remedy table is part of the detector contract: a kind the
  // post-mortem cannot advise on is a finding, caught at lint time.
  const auto findings = LintVariant("missing_verdict");
  EXPECT_GE(CountRule(findings, "anomaly-coverage"), 1)
      << FormatText(findings);
}

// ---------------------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------------------

TEST(Output, FormatsCarryEveryFinding) {
  const std::vector<Finding> findings = {
      {"wall-clock", "src/a.cpp", 3, "uses \"time\""},
      {"inv-coverage", "src/b.cpp", 7, "no append"},
  };
  const std::string text = FormatText(findings);
  EXPECT_NE(text.find("src/a.cpp:3: [wall-clock]"), std::string::npos);
  EXPECT_NE(text.find("src/b.cpp:7: [inv-coverage]"), std::string::npos);

  const std::string json = FormatJson(findings);
  EXPECT_NE(json.find("\"rule\":\"wall-clock\""), std::string::npos);
  EXPECT_NE(json.find("\\\"time\\\""), std::string::npos);  // escaping

  const std::string sarif = FormatSarif(findings);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"inv-coverage\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":7"), std::string::npos);
  // Rule metadata is embedded for the SARIF viewer.
  EXPECT_NE(sarif.find("\"id\":\"unordered-container\""), std::string::npos);
}

TEST(Registry, AtLeastEightRules) {
  EXPECT_GE(AllRules().size(), 8u);
  EXPECT_TRUE(IsKnownRule("inv-coverage"));
  EXPECT_FALSE(IsKnownRule("made-up-rule"));
}

}  // namespace
}  // namespace gvfs::lint
