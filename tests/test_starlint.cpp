// starlint's own tests: the scrubber, the layers.toml parser and its DAG
// validation, one fixture per rule (each must fire exactly once), the clean
// negative, the baseline ratchet, and the SARIF shape.
//
// Fixtures live in tests/lint_fixtures/ and are presented to the rules
// under synthetic src/<subsys>/ paths — the layering rule derives the
// including subsystem from the path, not from the filesystem.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "config.hpp"
#include "rules.hpp"
#include "sarif.hpp"
#include "source_file.hpp"

namespace starlint {
namespace {

#ifndef STARLAB_LINT_FIXTURES
#error "STARLAB_LINT_FIXTURES must point at tests/lint_fixtures"
#endif

const std::string kFixtures = STARLAB_LINT_FIXTURES;

/// A miniature declared architecture covering the fixture subsystems.
LayersConfig test_config() {
  return parse_layers_config(R"(
[layers]
time = []
check = []
io = []
geo = ["time"]
tle = ["time"]
ground = ["check", "geo", "time"]
core = ["geo", "ground", "time", "tle"]

[starlint]
interface_headers = ["src/io/parse_report.hpp"]
getenv_allowlist = ["src/check/env_seam.cpp"]
)");
}

/// Findings for one on-disk fixture presented under `as_path`.
std::vector<Finding> lint_fixture(const std::string& name,
                                  const std::string& as_path) {
  const SourceFile file = SourceFile::load(kFixtures + "/" + name, as_path);
  return run_rules(file, test_config());
}

// --- scrubber ---------------------------------------------------------------

TEST(SourceFileTest, ScrubBlanksCommentsAndStrings) {
  const SourceFile f("src/time/x.cpp",
                     "int a; // rand()\n"
                     "const char* s = \"random_device\";\n"
                     "/* getenv */ int b;\n");
  EXPECT_EQ(f.scrubbed().find("rand"), std::string::npos);
  EXPECT_EQ(f.scrubbed().find("getenv"), std::string::npos);
  EXPECT_NE(f.scrubbed().find("int b;"), std::string::npos);
  // Newlines survive, so positions map to the same lines.
  EXPECT_EQ(f.line_of(f.scrubbed().find("int b;")), 3u);
}

TEST(SourceFileTest, ScrubHandlesRawStringsAndEscapes) {
  const SourceFile f("src/time/x.cpp",
                     "auto r = R\"(srand inside raw)\";\n"
                     "auto e = \"escaped \\\" srand\";\n"
                     "int after = 1;\n");
  EXPECT_EQ(f.scrubbed().find("srand"), std::string::npos);
  EXPECT_NE(f.scrubbed().find("int after"), std::string::npos);
}

TEST(SourceFileTest, AllowCommentCoversOwnAndNextLine) {
  const SourceFile f("src/time/x.cpp",
                     "// starlint:allow(det-rand)\n"
                     "int a;\n"
                     "int b;\n");
  EXPECT_TRUE(f.allowed("det-rand", 1));
  EXPECT_TRUE(f.allowed("det-rand", 2));
  EXPECT_FALSE(f.allowed("det-rand", 3));
  EXPECT_FALSE(f.allowed("det-getenv", 2));
}

// --- layers.toml ------------------------------------------------------------

TEST(LayersConfigTest, ParsesDepsAndAllowlists) {
  const LayersConfig c = test_config();
  EXPECT_TRUE(c.deps.at("time").empty());
  EXPECT_EQ(c.deps.at("core").count("tle"), 1u);
  EXPECT_EQ(c.interface_headers.count("src/io/parse_report.hpp"), 1u);
  EXPECT_EQ(c.getenv_allowlist.count("src/check/env_seam.cpp"), 1u);
}

TEST(LayersConfigTest, RejectsCycle) {
  EXPECT_THROW(parse_layers_config("[layers]\n"
                                   "a = [\"b\"]\n"
                                   "b = [\"a\"]\n"),
               std::runtime_error);
}

TEST(LayersConfigTest, RejectsUndeclaredDependency) {
  EXPECT_THROW(parse_layers_config("[layers]\na = [\"ghost\"]\n"),
               std::runtime_error);
}

TEST(LayersConfigTest, RejectsMalformedSyntax) {
  EXPECT_THROW(parse_layers_config("[layers]\na = 25\n"), std::runtime_error);
  EXPECT_THROW(parse_layers_config("[mystery]\nx = [\"y\"]\n"),
               std::runtime_error);
}

// --- one fixture per rule ---------------------------------------------------

void expect_single(const std::vector<Finding>& findings,
                   const std::string& rule) {
  ASSERT_EQ(findings.size(), 1u) << "rule " << rule;
  EXPECT_EQ(findings[0].rule, rule);
  EXPECT_GT(findings[0].line, 0u);
}

TEST(RulesTest, LayeringFixtureFiresOnce) {
  expect_single(lint_fixture("layering_bad.hpp", "src/tle/layering_bad.hpp"),
                "layering");
}

TEST(RulesTest, RandFixtureFiresOnce) {
  expect_single(lint_fixture("det_rand.cpp", "src/core/det_rand.cpp"),
                "det-rand");
}

TEST(RulesTest, RandomDeviceFixtureFiresOnce) {
  expect_single(
      lint_fixture("det_random_device.cpp", "src/core/det_random_device.cpp"),
      "det-random-device");
}

TEST(RulesTest, WallclockFixtureFiresOnce) {
  expect_single(
      lint_fixture("det_wallclock.cpp", "src/core/det_wallclock.cpp"),
      "det-wallclock");
}

TEST(RulesTest, GetenvFixtureFiresOnce) {
  expect_single(lint_fixture("det_getenv.cpp", "src/core/det_getenv.cpp"),
                "det-getenv");
}

TEST(RulesTest, GetenvAllowedInSanctionedSeam) {
  const SourceFile seam("src/check/env_seam.cpp",
                        "#include <cstdlib>\n"
                        "const char* v() { return std::getenv(\"X\"); }\n");
  EXPECT_TRUE(run_rules(seam, test_config()).empty());
}

TEST(RulesTest, UnorderedIterFixtureFiresOnce) {
  expect_single(
      lint_fixture("det_unordered_iter.cpp", "src/core/det_unordered_iter.cpp"),
      "det-unordered-iter");
}

TEST(RulesTest, RawUnitDoubleFixtureFiresOnce) {
  expect_single(
      lint_fixture("raw_unit_double.hpp", "src/core/raw_unit_double.hpp"),
      "raw-unit-double");
}

TEST(RulesTest, NodiscardLoaderFixtureFiresOnce) {
  expect_single(
      lint_fixture("nodiscard_loader.hpp", "src/core/nodiscard_loader.hpp"),
      "nodiscard-loader");
}

TEST(RulesTest, CleanFixtureIsClean) {
  EXPECT_TRUE(lint_fixture("clean.hpp", "src/ground/clean.hpp").empty());
}

// --- baseline ratchet -------------------------------------------------------

TEST(BaselineTest, RoundTripsThroughJson) {
  Baseline b;
  b["raw-unit-double"]["src/a.hpp"] = 3;
  b["det-rand"]["src/b.cpp"] = 1;
  EXPECT_EQ(parse_baseline(format_baseline(b)), b);
  EXPECT_EQ(parse_baseline("{}"), Baseline{});
}

TEST(BaselineTest, NewFindingIsARegression) {
  const std::vector<Finding> findings = {
      {"det-rand", "src/b.cpp", 10, "m"},
      {"det-rand", "src/b.cpp", 20, "m"},
  };
  Baseline b;
  b["det-rand"]["src/b.cpp"] = 1;
  const BaselineCheck check = check_against_baseline(findings, b);
  EXPECT_FALSE(check.ok());
  ASSERT_EQ(check.regressions.size(), 1u);
  EXPECT_TRUE(check.stale.empty());
}

TEST(BaselineTest, FixedFindingMakesBaselineStale) {
  Baseline b;
  b["det-rand"]["src/b.cpp"] = 2;
  const BaselineCheck check =
      check_against_baseline({{"det-rand", "src/b.cpp", 10, "m"}}, b);
  EXPECT_FALSE(check.ok());
  EXPECT_TRUE(check.regressions.empty());
  ASSERT_EQ(check.stale.size(), 1u);
}

TEST(BaselineTest, ExactMatchIsClean) {
  Baseline b;
  b["det-rand"]["src/b.cpp"] = 1;
  EXPECT_TRUE(
      check_against_baseline({{"det-rand", "src/b.cpp", 10, "m"}}, b).ok());
  EXPECT_TRUE(check_against_baseline({}, {}).ok());
}

// --- SARIF ------------------------------------------------------------------

TEST(SarifTest, EmitsRuleAndLocation) {
  const std::string sarif =
      format_sarif({{"det-rand", "src/b.cpp", 42, "say \"no\" to rand"}});
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"det-rand\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 42"), std::string::npos);
  // Quotes in messages must be escaped.
  EXPECT_NE(sarif.find("say \\\"no\\\" to rand"), std::string::npos);
}

TEST(SarifTest, EveryRuleShipsADescription) {
  for (const std::string& rule : all_rule_ids()) {
    EXPECT_FALSE(rule_description(rule).empty()) << rule;
  }
  EXPECT_NE(std::find(all_rule_ids().begin(), all_rule_ids().end(),
                      "option-reachability"),
            all_rule_ids().end());
}

}  // namespace
}  // namespace starlint
