// Golden snapshot enforcement: the committed plans for the benchmark suite,
// and every counter of the simulated runs behind Figs. 4-7, must match what
// the pipeline and the simulator produce today. A legitimate change
// re-blesses via `tools/check.sh verify --bless`; anything else that shifts
// a plan or a counter is a regression these tests catch.
#include "verify/golden.hh"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sim/config.hh"

#ifndef RE_SOURCE_DIR
#error "RE_SOURCE_DIR must point at the repository root"
#endif

namespace re::verify {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " — bless with tools/check.sh verify --bless";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(GoldenPlans, SuitePlansMatchCommittedSnapshot) {
  const sim::MachineConfig machine = sim::amd_phenom_ii();
  const std::string actual =
      render_golden(compute_suite_plans(machine), machine.name);
  const std::string expected = read_file(
      std::string(RE_SOURCE_DIR) + "/tests/golden/" +
      golden_filename(machine.name));
  EXPECT_EQ(diff_golden(expected, actual), "")
      << "plans drifted from tests/golden/" << golden_filename(machine.name)
      << " — if intentional, re-bless with tools/check.sh verify --bless";
}

TEST(GoldenPlans, FilenameIsSlugged) {
  EXPECT_EQ(golden_filename("AMD Phenom II"), "plans_amd_phenom_ii.golden");
  EXPECT_EQ(golden_filename("Intel i7-2600K"),
            "plans_intel_i7_2600k.golden");
  EXPECT_EQ(runs_golden_filename("Intel i7-2600K"),
            "runs_intel_i7_2600k.golden");
}

void expect_runs_match_snapshot(const sim::MachineConfig& machine) {
  const std::string file = runs_golden_filename(machine.name);
  const std::string expected =
      read_file(std::string(RE_SOURCE_DIR) + "/tests/golden/" + file);
  EXPECT_EQ(diff_golden(expected, render_runs_golden(machine)), "")
      << "simulated counters drifted from tests/golden/" << file
      << " — if intentional, re-bless with tools/check.sh verify --bless";
}

TEST(GoldenRuns, AmdRunsMatchCommittedSnapshot) {
  expect_runs_match_snapshot(sim::amd_phenom_ii());
}

TEST(GoldenRuns, IntelRunsMatchCommittedSnapshot) {
  expect_runs_match_snapshot(sim::intel_sandybridge());
}

TEST(GoldenPlans, DiffIgnoresCommentsAndWhitespace) {
  const std::string a = "# header\nbenchmark x\n  pc1 prefetcht0 +64\n";
  const std::string b =
      "# different header\r\nbenchmark x  \n  pc1 prefetcht0 +64\n";
  EXPECT_EQ(diff_golden(a, b), "");
}

TEST(GoldenPlans, DiffReportsChangesBothWays) {
  const std::string expected = "benchmark x\n  pc1 prefetcht0 +64\n";
  const std::string actual = "benchmark x\n  pc1 prefetchnta +128\n";
  const std::string diff = diff_golden(expected, actual);
  EXPECT_NE(diff.find("-  pc1 prefetcht0 +64"), std::string::npos);
  EXPECT_NE(diff.find("+  pc1 prefetchnta +128"), std::string::npos);
  // Extra and missing trailing lines are both reported.
  EXPECT_NE(diff_golden(expected, expected + "  pc2 prefetcht0 +64\n"), "");
  EXPECT_NE(diff_golden(expected + "  pc2 prefetcht0 +64\n", expected), "");
}

TEST(GoldenPlans, RenderEmitsEveryBenchmark) {
  const std::vector<GoldenEntry> entries = {
      {"alpha", {core::PrefetchPlan{7, 128, workloads::PrefetchHint::T0}}},
      {"beta", {}},
  };
  const std::string text = render_golden(entries, "Test Machine");
  EXPECT_NE(text.find("machine=Test Machine"), std::string::npos);
  EXPECT_NE(text.find("benchmark alpha\n  pc7 prefetcht0 +128\n"),
            std::string::npos);
  EXPECT_NE(text.find("benchmark beta\n  none\n"), std::string::npos);
}

}  // namespace
}  // namespace re::verify
