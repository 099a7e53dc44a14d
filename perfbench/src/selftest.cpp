// Tests of the benchmark's own output checks, and a tiny-size pass of
// every workload. Run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include "checks.hpp"
#include "core/baselines.hpp"
#include "stats.hpp"
#include "topo/generator.hpp"
#include "workloads.hpp"

namespace {

using perfbench::ServedVerdict;

/// A plan that adds nothing leaves the preset's existing capacity (a
/// quarter of a reference plan), which cannot carry the demand.
std::vector<int> empty_plan(const np::topo::Topology& topology) {
  return std::vector<int>(topology.num_links(), 0);
}

TEST(PerfbenchChecks, InfeasiblePlanIsAFailedOperation) {
  const np::topo::Topology topology = np::topo::make_preset('A', 7);
  const np::core::PlanResult greedy = np::core::solve_greedy(topology);
  ASSERT_TRUE(perfbench::plan_is_feasible(topology, greedy.added_units));
  ASSERT_FALSE(perfbench::plan_is_feasible(topology, empty_plan(topology)));

  EXPECT_EQ(perfbench::check_trained_plan(topology, true, greedy.added_units), "");
  EXPECT_NE(perfbench::check_trained_plan(topology, true, empty_plan(topology)), "");
  EXPECT_NE(perfbench::check_trained_plan(topology, false, greedy.added_units), "");

  np::core::PlanResult result = greedy;
  EXPECT_EQ(perfbench::check_stage2(topology, result, greedy.cost), "");
  result.added_units = empty_plan(topology);
  result.cost = 0.0;
  EXPECT_NE(perfbench::check_stage2(topology, result, greedy.cost), "");
}

TEST(PerfbenchChecks, Stage2LimitsAndCostAreFailures) {
  const np::topo::Topology topology = np::topo::make_preset('A', 7);
  const np::core::PlanResult greedy = np::core::solve_greedy(topology);
  np::core::PlanResult timed_out = greedy;
  timed_out.timed_out = true;
  EXPECT_NE(perfbench::check_stage2(topology, timed_out, greedy.cost), "");
  np::core::PlanResult limited = greedy;
  limited.detail = "lazy: round limit reached";
  EXPECT_NE(perfbench::check_stage2(topology, limited, greedy.cost), "");
  // Feasible but dearer than the plan stage 2 was seeded with.
  EXPECT_NE(perfbench::check_stage2(topology, greedy, 0.5 * greedy.cost), "");
}

TEST(PerfbenchChecks, FlippedServeVerdictIsCounted) {
  const np::topo::Topology topology = np::topo::make_preset('A', 7);
  const std::vector<int> feasible = np::core::solve_greedy(topology).added_units;
  std::vector<ServedVerdict> sample = {{0, feasible, true},
                                       {1, empty_plan(topology), false}};
  EXPECT_EQ(perfbench::count_wrong_verdicts(topology, sample), 0);
  sample[1].feasible = true;
  EXPECT_EQ(perfbench::count_wrong_verdicts(topology, sample), 1);
  sample[0].feasible = false;
  EXPECT_EQ(perfbench::count_wrong_verdicts(topology, sample), 2);
}

TEST(PerfbenchChecks, ShortRolloutIsAFailedOperation) {
  std::vector<np::rl::WorkerRollout> rollouts(2);
  rollouts[0].records.resize(3);
  rollouts[1].records.resize(2);
  EXPECT_EQ(perfbench::check_rollout(rollouts, 5, 2), "");
  rollouts[1].records.pop_back();
  EXPECT_NE(perfbench::check_rollout(rollouts, 5, 2), "");
  EXPECT_NE(perfbench::check_rollout(rollouts, 4, 2), "");  // split is 2 + 2
  rollouts.pop_back();
  EXPECT_NE(perfbench::check_rollout(rollouts, 3, 2), "");
}

TEST(PerfbenchStats, QuantilesInterpolate) {
  EXPECT_DOUBLE_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::quantile({0.0, 10.0}, 0.95), 9.5);
  EXPECT_DOUBLE_EQ(perfbench::quantile({}, 0.5), 0.0);
}

class PerfbenchTinyPass : public ::testing::TestWithParam<std::string> {};

TEST_P(PerfbenchTinyPass, RunsCleanAndRepeatsItsOutputs) {
  perfbench::RunOptions options;
  options.workload = GetParam();
  options.seed = 11;
  options.seconds = 0.01;
  options.tiny = true;
  const perfbench::RunReport first = perfbench::run_workload(options);
  EXPECT_GE(first.attempted, 1);
  EXPECT_EQ(first.failed, 0) << (first.failure_reasons.empty()
                                     ? std::string()
                                     : first.failure_reasons.front());
  EXPECT_FALSE(first.timed.job_seconds.empty());
  EXPECT_FALSE(first.timed.request_ms.empty());
  EXPECT_GT(first.timed.work_units, 0.0);
  EXPECT_FALSE(first.setup_seconds.empty());
  EXPECT_EQ(first.digest.size(), 16u);
  const perfbench::RunReport second = perfbench::run_workload(options);
  EXPECT_EQ(second.digest, first.digest);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerfbenchTinyPass,
                         ::testing::ValuesIn(perfbench::workload_names()));

TEST(PerfbenchWorkloads, UnknownNameThrows) {
  perfbench::RunOptions options;
  options.workload = "nope";
  EXPECT_THROW(perfbench::run_workload(options), std::invalid_argument);
}

}  // namespace
