// Tests for starlint's call-graph layer: the function/mutex indexer
// (extents, qualified names, lambdas, markers), the hot-path purity rules
// over the fixtures in tests/lint_fixtures/, suppression and allowlist
// edge cases, call resolution (receiver and enclosing-scope narrowing,
// immediately invoked lambdas), the lock-order cycle detector, and the
// reachability and option-reachability rules (multi-file fixtures, one
// `// === path` section per file).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "callgraph.hpp"
#include "config.hpp"
#include "functions.hpp"
#include "source_file.hpp"

namespace starlint {
namespace {

#ifndef STARLAB_LINT_FIXTURES
#error "STARLAB_LINT_FIXTURES must point at tests/lint_fixtures"
#endif

const std::string kFixtures = STARLAB_LINT_FIXTURES;

HotpathConfig test_hotpath_config() {
  return parse_hotpath_config(R"(
[hotpath]
allow = ["vetted", "runtime_error"]
macros = []
)");
}

std::vector<Finding> graph_fixture(const std::string& name,
                                   const std::string& as_path,
                                   const HotpathConfig& config) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::load(kFixtures + "/" + name, as_path));
  return run_graph_rules(files, config);
}

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const Finding& f : findings) rules.push_back(f.rule);
  std::sort(rules.begin(), rules.end());
  return rules;
}

// --- function indexer -------------------------------------------------------

TEST(FunctionIndexTest, QualifiedNamesAndExtents) {
  const SourceFile f("src/geo/x.cpp",
                     "namespace outer::inner {\n"
                     "class Widget {\n"
                     " public:\n"
                     "  int get() const { return v_; }\n"
                     " private:\n"
                     "  int v_ = 0;\n"
                     "};\n"
                     "double area(double r) {\n"
                     "  return 3.14 * r * r;\n"
                     "}\n"
                     "}  // namespace outer::inner\n");
  const FileIndex index = index_file(f, 0);
  ASSERT_EQ(index.functions.size(), 2u);
  EXPECT_EQ(index.functions[0].qualified, "outer::inner::Widget::get");
  EXPECT_EQ(index.functions[0].line, 4u);
  EXPECT_EQ(index.functions[1].qualified, "outer::inner::area");
  // Extents: [body_begin, body_end) covers exactly `{ ... }`.
  const std::string& text = f.scrubbed();
  EXPECT_EQ(text[index.functions[1].body_begin], '{');
  EXPECT_EQ(text[index.functions[1].body_end - 1], '}');
  EXPECT_LT(index.functions[0].body_end, index.functions[1].body_begin);
}

TEST(FunctionIndexTest, OutOfClassDefinitionKeepsClassQualifier) {
  const SourceFile f("src/geo/x.cpp",
                     "namespace ns {\n"
                     "double Widget::area(double r) const {\n"
                     "  return r * r;\n"
                     "}\n"
                     "}\n");
  const FileIndex index = index_file(f, 0);
  ASSERT_EQ(index.functions.size(), 1u);
  EXPECT_EQ(index.functions[0].qualified, "ns::Widget::area");
  EXPECT_EQ(index.functions[0].name, "area");
}

TEST(FunctionIndexTest, ControlFlowBracesAreNotFunctions) {
  const SourceFile f("src/geo/x.cpp",
                     "void f(int n) {\n"
                     "  if (n > 0) {\n"
                     "    for (int i = 0; i < n; ++i) {\n"
                     "      n += i;\n"
                     "    }\n"
                     "  }\n"
                     "  switch (n) {\n"
                     "    default: break;\n"
                     "  }\n"
                     "}\n");
  const FileIndex index = index_file(f, 0);
  ASSERT_EQ(index.functions.size(), 1u);
  EXPECT_EQ(index.functions[0].name, "f");
}

TEST(FunctionIndexTest, LambdaGetsSyntheticNameAndMarkerMakesItHot) {
  const SourceFile f("src/geo/x.cpp",
                     "void run() {\n"
                     "  // starlint:hotpath\n"
                     "  auto marked = [](int x) {\n"
                     "    return x + 1;\n"
                     "  };\n"
                     "  auto plain = [](int x) { return x; };\n"
                     "  (void)marked; (void)plain;\n"
                     "}\n");
  const FileIndex index = index_file(f, 0);
  ASSERT_EQ(index.functions.size(), 3u);
  EXPECT_EQ(index.functions[1].qualified, "run::<lambda@3>");
  EXPECT_TRUE(index.functions[1].is_lambda);
  EXPECT_TRUE(index.functions[1].hotpath);
  EXPECT_FALSE(index.functions[2].hotpath);
}

TEST(FunctionIndexTest, HotpathMacroInHeadMarksDefinition) {
  const SourceFile f("src/geo/x.cpp",
                     "STARLAB_HOTPATH double fast(double x) {\n"
                     "  return x;\n"
                     "}\n"
                     "double slow(double x) { return x; }\n");
  const FileIndex index = index_file(f, 0);
  ASSERT_EQ(index.functions.size(), 2u);
  EXPECT_TRUE(index.functions[0].hotpath);
  EXPECT_FALSE(index.functions[1].hotpath);
}

TEST(FunctionIndexTest, MutexDeclarationRecordsOwningScope) {
  const SourceFile f("src/exec/x.hpp",
                     "namespace ns {\n"
                     "class Pool {\n"
                     "  check::Mutex mu_;\n"
                     "};\n"
                     "check::Mutex g_mu;\n"
                     "}\n");
  const FileIndex index = index_file(f, 0);
  ASSERT_EQ(index.mutexes.size(), 2u);
  EXPECT_EQ(index.mutexes[0].owner, "ns::Pool");
  EXPECT_EQ(index.mutexes[0].name, "mu_");
  EXPECT_EQ(index.mutexes[1].owner, "ns");
  EXPECT_EQ(index.mutexes[1].name, "g_mu");
}

TEST(FunctionIndexTest, PreprocessorBracesDoNotDerailScopes) {
  const SourceFile f("src/geo/x.cpp",
                     "#define WEIRD { (\n"
                     "double ok() {\n"
                     "  return 1.0;\n"
                     "}\n");
  const FileIndex index = index_file(f, 0);
  ASSERT_EQ(index.functions.size(), 1u);
  EXPECT_EQ(index.functions[0].name, "ok");
}

// --- hot-path purity over fixtures ------------------------------------------

TEST(HotpathRuleTest, AllocationTwoHopsAway) {
  const std::vector<Finding> findings = graph_fixture(
      "hotpath_alloc_two_hops.cpp", "src/match/f.cpp", test_hotpath_config());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hotpath-alloc");
  // Reported at the root's definition, with the chain in the message.
  EXPECT_EQ(findings[0].line, 14u);
  EXPECT_NE(findings[0].message.find("fix::middle"), std::string::npos);
  EXPECT_NE(findings[0].message.find("push_back"), std::string::npos);
}

TEST(HotpathRuleTest, UnknownCalleeUnlessVetted) {
  const std::vector<Finding> findings = graph_fixture(
      "hotpath_unknown.cpp", "src/match/f.cpp", test_hotpath_config());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hotpath-unknown");
  EXPECT_NE(findings[0].message.find("mystery"), std::string::npos);
  EXPECT_EQ(findings[0].message.find("vetted"), std::string::npos);
}

TEST(HotpathRuleTest, MarkedLambdaIsRootUnmarkedIsNot) {
  const std::vector<Finding> findings = graph_fixture(
      "hotpath_lambda.cpp", "src/match/f.cpp", test_hotpath_config());
  // Only the marked lambda's throw fires; the unmarked lambda's push_back
  // never becomes a finding (runtime_error's constructor is vetted).
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hotpath-throw");
  EXPECT_NE(findings[0].message.find("<lambda@"), std::string::npos);
}

TEST(HotpathRuleTest, CleanFixtureStaysClean) {
  const std::vector<Finding> findings = graph_fixture(
      "hotpath_clean.cpp", "src/match/f.cpp", test_hotpath_config());
  EXPECT_TRUE(findings.empty()) << findings[0].rule << ": "
                                << findings[0].message;
}

TEST(HotpathRuleTest, DefLineAllowSuppresses) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile(
      "src/match/f.cpp",
      "// starlint:allow(hotpath-alloc)\n"
      "STARLAB_HOTPATH void hot(std::vector<int>& v) {\n"
      "  v.push_back(1);\n"
      "}\n"));
  EXPECT_TRUE(run_graph_rules(files, test_hotpath_config()).empty());
}

TEST(HotpathRuleTest, SinkSiteAllowSuppressesForEveryRoot) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile(
      "src/match/f.cpp",
      "void grow(std::vector<int>& v) {\n"
      "  v.resize(8);  // starlint:allow(hotpath-alloc)\n"
      "}\n"
      "STARLAB_HOTPATH void hot(std::vector<int>& v) {\n"
      "  grow(v);\n"
      "}\n"));
  EXPECT_TRUE(run_graph_rules(files, test_hotpath_config()).empty());
}

TEST(HotpathRuleTest, ContractMacroArgumentsAreSkipped) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile(
      "src/match/f.cpp",
      "STARLAB_HOTPATH double hot(double x) {\n"
      "  STARLAB_ENSURE(x >= 0.0, \"bad: \" + std::to_string(x));\n"
      "  return x;\n"
      "}\n"));
  EXPECT_TRUE(run_graph_rules(files, test_hotpath_config()).empty());
}

TEST(HotpathRuleTest, CrossFileResolution) {
  // The allocation lives in another translation unit: the graph still
  // connects hot() -> helper() across files.
  std::vector<SourceFile> files;
  files.push_back(SourceFile("src/match/a.cpp",
                             "namespace m {\n"
                             "void helper(std::vector<int>& v) {\n"
                             "  v.push_back(1);\n"
                             "}\n"
                             "}\n"));
  files.push_back(SourceFile("src/match/b.cpp",
                             "namespace m {\n"
                             "STARLAB_HOTPATH void hot(std::vector<int>& v) {\n"
                             "  helper(v);\n"
                             "}\n"
                             "}\n"));
  const std::vector<Finding> findings =
      run_graph_rules(files, test_hotpath_config());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hotpath-alloc");
  EXPECT_EQ(findings[0].file, "src/match/b.cpp");
}

TEST(HotpathRuleTest, StreamObjectIsIo) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile("src/match/f.cpp",
                             "STARLAB_HOTPATH void hot() {\n"
                             "  std::cerr << \"x\";\n"
                             "}\n"));
  const std::vector<Finding> findings =
      run_graph_rules(files, test_hotpath_config());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hotpath-io");
}

// --- call resolution --------------------------------------------------------

/// Hot-path findings of one file: `Bar::apply` allocates, `Foo::apply` does
/// not, and the hot `caller(params)` runs `body`.
std::vector<Finding> resolution_fixture(const std::string& params,
                                        const std::string& body) {
  std::vector<SourceFile> files;
  files.emplace_back("src/geo/x.cpp",
                     "namespace g {\n"
                     "struct Foo { int apply(int x) const; };\n"
                     "struct Bar { int apply(int x) const; };\n"
                     "int Foo::apply(int x) const { return x; }\n"
                     "int Bar::apply(int x) const {\n"
                     "  std::vector<int> v;\n"
                     "  v.push_back(x);\n"
                     "  return x;\n"
                     "}\n"
                     "int load(int i) { return Bar{}.apply(i); }\n"
                     "struct A {\n"
                     "  int load(int i) const;\n"
                     "  int f(int i) const;\n"
                     "};\n"
                     "int A::load(int i) const { return i; }\n"
                     "STARLAB_HOTPATH int caller(" + params + ") {\n" + body +
                         "\n}\n"
                     "}\n");
  return run_graph_rules(files, test_hotpath_config());
}

TEST(ResolutionTest, ReceiverDeclarationNarrowsMemberCall) {
  // `Foo rot` (a local), `const Foo& rot` and `Foo* rot` (parameters) pin
  // `rot.apply` to Foo::apply, so Bar::apply's allocation is not reached.
  EXPECT_TRUE(resolution_fixture("int x", "Foo rot; return rot.apply(x);")
                  .empty());
  EXPECT_TRUE(resolution_fixture("const Foo& rot", "return rot.apply(1);")
                  .empty());
  EXPECT_TRUE(resolution_fixture("Foo* rot", "return rot->apply(1);").empty());
  // Undeclared, or declared `std::span<const Foo> rot` — the type read is
  // the name in front of the template arguments, `span` — the call is the
  // union of both `apply`s.
  for (const std::string params : {"int rot", "std::span<const Foo> rot"}) {
    const std::vector<Finding> union_of =
        resolution_fixture(params, "return rot.apply(1);");
    ASSERT_EQ(union_of.size(), 1u) << params;
    EXPECT_EQ(union_of[0].rule, "hotpath-alloc");
    EXPECT_NE(union_of[0].message.find("g::Bar::apply"), std::string::npos);
  }
}

TEST(ResolutionTest, UnqualifiedCallPrefersTheEnclosingScope) {
  // `load(i)` inside A::f is A::load, not the free `load` that allocates.
  EXPECT_TRUE(resolution_fixture("int i", "return i; }\n"
                                          "STARLAB_HOTPATH int A::f(int i) "
                                          "const { return load(i);")
                  .empty());
  EXPECT_EQ(rules_of(resolution_fixture("int i", "return load(i);")),
            std::vector<std::string>{"hotpath-alloc"});
}

TEST(ResolutionTest, ImmediatelyInvokedLambdaIsACallEdge) {
  const std::string lambda = "[] { std::vector<int> v; v.push_back(1); }";
  const std::vector<Finding> invoked =
      resolution_fixture("", "  " + lambda + "();\n  return 0;");
  ASSERT_EQ(invoked.size(), 1u);
  EXPECT_EQ(invoked[0].rule, "hotpath-alloc");
  EXPECT_NE(invoked[0].message.find("caller::<lambda@"), std::string::npos);
  // Stored and never called: not an edge.
  EXPECT_TRUE(resolution_fixture("", "  const auto later = " + lambda +
                                         ";\n  (void)later;\n  return 0;")
                  .empty());
}

// --- lock order -------------------------------------------------------------

TEST(LockOrderTest, AbbaCycleIsReported) {
  const std::vector<Finding> findings = graph_fixture(
      "lock_cycle.cpp", "src/exec/f.cpp", test_hotpath_config());
  const std::vector<std::string> rules = rules_of(findings);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "lock-order"), rules.end());
  bool mentions_cycle = false;
  for (const Finding& f : findings) {
    if (f.rule == "lock-order" &&
        f.message.find("Pair::a") != std::string::npos &&
        f.message.find("Pair::b") != std::string::npos) {
      mentions_cycle = true;
    }
  }
  EXPECT_TRUE(mentions_cycle);
}

TEST(LockOrderTest, ConsistentOrderAcrossCallsIsClean) {
  const std::vector<Finding> findings = graph_fixture(
      "lock_chain_clean.cpp", "src/exec/f.cpp", test_hotpath_config());
  for (const Finding& f : findings) {
    EXPECT_NE(f.rule, "lock-order") << f.message;
  }
}

TEST(LockOrderTest, ScopeExitReleasesHeldSet) {
  // The guard's block ends before the second acquisition: no edge, no
  // cycle, even though the two orders would conflict if held together.
  std::vector<SourceFile> files;
  files.push_back(SourceFile("src/exec/f.cpp",
                             "struct S { check::Mutex a; check::Mutex b; };\n"
                             "void one(S& s) {\n"
                             "  { check::MutexLock la(s.a); }\n"
                             "  check::MutexLock lb(s.b);\n"
                             "}\n"
                             "void two(S& s) {\n"
                             "  { check::MutexLock lb(s.b); }\n"
                             "  check::MutexLock la(s.a);\n"
                             "}\n"));
  const std::vector<Finding> findings =
      run_graph_rules(files, test_hotpath_config());
  for (const Finding& f : findings) {
    EXPECT_NE(f.rule, "lock-order") << f.message;
  }
}

TEST(LockOrderTest, SameNameMutexesOfUnrelatedClassesStayDistinct) {
  // Both classes name their member `mu`; the owner-qualified identity keeps
  // A::mu -> B::mu from aliasing into a self-edge or a bogus cycle.
  std::vector<SourceFile> files;
  files.push_back(SourceFile("src/exec/f.cpp",
                             "struct A { check::Mutex mu; };\n"
                             "struct B { check::Mutex mu; };\n"
                             "void f(A& a, B& b) {\n"
                             "  check::MutexLock la(a.mu);\n"
                             "  check::MutexLock lb(b.mu);\n"
                             "}\n"));
  const std::vector<Finding> findings =
      run_graph_rules(files, test_hotpath_config());
  for (const Finding& f : findings) {
    EXPECT_NE(f.rule, "lock-order") << f.message;
  }
}

// --- reachability -----------------------------------------------------------

/// Qualified names of the src/ functions the reachability rule flags.
std::vector<std::string> unreached(const std::vector<SourceFile>& files) {
  const CallGraph graph(files, test_hotpath_config());
  std::vector<std::string> names;
  for (const Finding& f : graph.reachability_findings()) {
    EXPECT_EQ(f.rule, "reachability");
    const std::size_t open = f.message.find('\'');
    names.push_back(f.message.substr(
        open + 1, f.message.find('\'', open + 1) - open - 1));
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(ReachabilityTest, CalledOnlyFromTestsIsFlagged) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile("src/geo/x.cpp",
                             "namespace g {\n"
                             "double helper() { return 1.0; }\n"
                             "}\n"));
  files.push_back(SourceFile("tests/x.cpp",
                             "void test_body() { (void)g::helper(); }\n"));
  EXPECT_EQ(unreached(files), std::vector<std::string>{"g::helper"});
}

TEST(ReachabilityTest, BenchRootKeepsCalleeAndTransitiveCallee) {
  // Calls from a constructor's init list and from a lambda in a reached
  // body count too.
  std::vector<SourceFile> files;
  files.push_back(SourceFile("src/geo/x.hpp",
                             "namespace g {\n"
                             "double leaf() { return 2.0; }\n"
                             "double init_value() { return 3.0; }\n"
                             "struct Box {\n"
                             "  Box() : v_(init_value()) {}\n"
                             "  double v_;\n"
                             "};\n"
                             "double middle() {\n"
                             "  const auto f = [] { return leaf(); };\n"
                             "  return f() + 1.0;\n"
                             "}\n"
                             "}\n"));
  files.push_back(SourceFile("bench/x.cpp",
                             "int main() { return g::middle() > 0.0; }\n"));
  EXPECT_TRUE(unreached(files).empty());
}

TEST(ReachabilityTest, PerfbenchDriverIsARoot) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile("src/core/x.cpp",
                             "namespace c {\n"
                             "void replay() {}\n"
                             "void orphan() {}\n"
                             "}\n"));
  files.push_back(SourceFile("perfbench/driver.cpp",
                             "int main() { c::replay(); }\n"));
  EXPECT_EQ(unreached(files), std::vector<std::string>{"c::orphan"});
}

TEST(ReachabilityTest, FunctionPassedByNameIsUsed) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile("src/check/x.cpp",
                             "namespace k {\n"
                             "void init_mode_from_env() {}\n"
                             "void on_event(int) {}\n"
                             "void mode() {\n"
                             "  std::call_once(g_once, init_mode_from_env);\n"
                             "  subscribe(&on_event);\n"
                             "}\n"
                             "}\n"));
  files.push_back(SourceFile("tools/x.cpp", "int main() { k::mode(); }\n"));
  EXPECT_TRUE(unreached(files).empty());
}

TEST(ReachabilityTest, NamespaceScopeInitializerIsARoot) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile("src/sgp4/x.cpp",
                             "namespace s {\n"
                             "double compute_table() { return 4.0; }\n"
                             "const double kTable = compute_table();\n"
                             "}\n"));
  EXPECT_TRUE(unreached(files).empty());
}

TEST(ReachabilityTest, AllowCommentSuppressesAndKeepsCallees) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile(
      "src/sun/x.cpp",
      "namespace s {\n"
      "double direction() { return 1.0; }\n"
      "// starlint:allow(reachability): reference oracle for tests\n"
      "bool oracle() { return direction() > 0.0; }\n"
      "}\n"));
  EXPECT_TRUE(unreached(files).empty());
}

TEST(ReachabilityTest, DeadAnonHelperOfDeadFunctionIsFlagged) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile("src/obs/x.cpp",
                             "namespace o {\n"
                             "namespace {\n"
                             "int escape(int c) { return c + 1; }\n"
                             "}\n"
                             "int exposition() { return escape(1); }\n"
                             "int live() { return 0; }\n"
                             "}\n"));
  files.push_back(SourceFile("examples/x.cpp", "int main() { o::live(); }\n"));
  EXPECT_EQ(unreached(files),
            (std::vector<std::string>{"o::(anon)::escape", "o::exposition"}));
}

/// A fixture of several files: each `// === <path>` line starts the next
/// one, reported under that path.
std::vector<SourceFile> sectioned_fixture(const std::string& name) {
  const std::string text =
      SourceFile::load(kFixtures + "/" + name, name).raw();
  const std::string marker = "// === ";
  std::vector<SourceFile> files;
  for (std::size_t at = text.find(marker); at != std::string::npos;) {
    const std::size_t eol = text.find('\n', at);
    const std::size_t next = text.find(marker, eol);
    const std::size_t body_end =
        next == std::string::npos ? text.size() : next;
    files.emplace_back(
        text.substr(at + marker.size(), eol - at - marker.size()),
        text.substr(eol + 1, body_end - eol - 1));
    at = next;
  }
  return files;
}

TEST(ReachabilityTest, SameNamedParameterOrLocalIsNotAUse) {
  EXPECT_EQ(unreached(sectioned_fixture("reach_param_name.cpp")),
            (std::vector<std::string>{"fix::Sink::flush",
                                      "fix::Token::cancel"}));
}

// --- option-reachability ----------------------------------------------------

/// `Owner::member` of every member the option-reachability rule flags.
std::vector<std::string> constant_members(const std::string& fixture) {
  const std::vector<SourceFile> files = sectioned_fixture(fixture);
  const CallGraph graph(files, test_hotpath_config());
  std::vector<std::string> names;
  for (const Finding& f : graph.option_reachability_findings()) {
    EXPECT_EQ(f.rule, "option-reachability");
    const std::size_t open = f.message.find('\'');
    names.push_back(f.message.substr(
        open + 1, f.message.find('\'', open + 1) - open - 1));
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(OptionReachabilityTest, SetOnlyFromTestsIsFlagged) {
  EXPECT_EQ(constant_members("option_set_in_tests.cpp"),
            std::vector<std::string>{"fix::Options::verbose"});
}

TEST(OptionReachabilityTest, DesignatedInitializerWritesItsMember) {
  EXPECT_EQ(constant_members("option_designated.cpp"),
            std::vector<std::string>{"fix::DtwConfig::window"});
}

TEST(OptionReachabilityTest, PositionalAggregateWritesLeadingMembers) {
  EXPECT_EQ(constant_members("option_positional.cpp"),
            std::vector<std::string>{"fix::Config::trace"});
}

TEST(OptionReachabilityTest, ConstructorInitListWrites) {
  EXPECT_EQ(constant_members("option_init_list.cpp"),
            std::vector<std::string>{"fix::Pool::spare_"});
}

TEST(OptionReachabilityTest, NestedMemberWriteWritesTheOuterMember) {
  EXPECT_EQ(constant_members("option_nested.cpp"),
            std::vector<std::string>{"fix::Ablation::label"});
}

TEST(OptionReachabilityTest, MutatingMemberCallWrites) {
  EXPECT_EQ(constant_members("option_push_back.cpp"),
            std::vector<std::string>{"fix::Scenario::sites"});
}

TEST(OptionReachabilityTest, StreamExtractionWrites) {
  EXPECT_EQ(constant_members("option_extraction.cpp"),
            std::vector<std::string>{"fix::Row::weight"});
}

TEST(OptionReachabilityTest, AllowNeedsAReason) {
  const auto findings = [](const std::string& allow) {
    std::vector<SourceFile> files;
    files.emplace_back("src/resilience/x.hpp",
                       "namespace r {\n"
                       "struct Config {\n"
                       "  " + allow + "\n"
                       "  int kill_point = -1;\n"
                       "};\n"
                       "}\n");
    const CallGraph graph(files, test_hotpath_config());
    return graph.option_reachability_findings();
  };
  EXPECT_TRUE(
      findings("// starlint:allow(option-reachability): crash-test seam")
          .empty());
  const std::vector<Finding> bare =
      findings("// starlint:allow(option-reachability)");
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_NE(bare[0].message.find("gives no reason"), std::string::npos);
}

// --- CallGraph object surface -----------------------------------------------

TEST(CallGraphTest, FunctionsAccessorExposesIndex) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile("src/geo/x.cpp",
                             "namespace g {\n"
                             "double one() { return 1.0; }\n"
                             "double two() { return one() + 1.0; }\n"
                             "}\n"));
  const CallGraph graph(files, test_hotpath_config());
  ASSERT_EQ(graph.functions().size(), 2u);
  EXPECT_EQ(graph.functions()[0].qualified, "g::one");
  const std::string dump = graph.dump();
  EXPECT_NE(dump.find("g::two"), std::string::npos);
  EXPECT_NE(dump.find("call one"), std::string::npos);
}

}  // namespace
}  // namespace starlint
