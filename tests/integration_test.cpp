// Cross-module integration and property sweeps:
//  * evaluator <-> formulation equivalence (a plan passes the evaluator
//    iff the planning MILP with all capacities fixed to it is feasible),
//  * generator parameter sweeps (every generated instance is valid and
//    plannable),
//  * environment/evaluator consistency over random policies,
//  * umbrella header compiles and exposes the advertised API.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "neuroplan.hpp"
#include "util/rng.hpp"

namespace np {
namespace {

// ---- evaluator <-> formulation equivalence ----

class EvaluatorFormulationEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(EvaluatorFormulationEquivalence, VerdictsAgree) {
  topo::Topology t = topo::make_preset('A', 50 + GetParam());
  Rng rng(GetParam() * 97 + 3);
  // Random plan, spread over links.
  std::vector<int> added(t.num_links(), 0);
  for (int l = 0; l < t.num_links(); ++l) {
    const int cap = t.link_max_units(l) - t.link(l).initial_units;
    added[l] = static_cast<int>(rng.uniform_index(std::max(1, cap / 3)));
  }
  std::vector<int> total = t.initial_units();
  for (int l = 0; l < t.num_links(); ++l) total[l] += added[l];

  plan::PlanEvaluator evaluator(t, plan::EvaluatorMode::kSourceAggregation);
  const bool evaluator_verdict = evaluator.check(total).feasible;

  // MILP with every capacity fixed to the plan: feasible iff the plan
  // satisfies every scenario.
  plan::FormulationOptions options;
  options.min_added_units = added;
  options.max_added_units = added;
  plan::PlanningMilp milp(t, options);
  milp::MilpOptions milp_options;
  milp_options.deadline = util::Deadline::after_seconds(60.0);
  const milp::MilpResult solved = milp::solve(milp.model(), milp_options);
  const bool milp_verdict = solved.status == milp::MilpStatus::kOptimal;
  EXPECT_EQ(evaluator_verdict, milp_verdict) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorFormulationEquivalence,
                         ::testing::Range(0u, 8u));

// ---- generator parameter sweep ----

struct GeneratorCase {
  int regions;
  int sites;
  double parallel;
  int flows;
  double silver;
  int sources;
};

// ctest names a value-parameterized test after both its gtest name and
// gtest's print of GetParam(); without these two, both would spell out
// the struct's bytes, indeterminate padding included, and the names
// would change from build to build.
std::string case_name(const GeneratorCase& c) {
  return "regions" + std::to_string(c.regions) + "_sites" +
         std::to_string(c.sites) + "_parallel" +
         std::to_string(std::lround(100.0 * c.parallel)) + "_flows" +
         std::to_string(c.flows) + "_silver" +
         std::to_string(std::lround(100.0 * c.silver)) + "_sources" +
         std::to_string(c.sources);
}

void PrintTo(const GeneratorCase& c, std::ostream* os) {
  *os << '{' << c.regions << ", " << c.sites << ", " << c.parallel << ", "
      << c.flows << ", " << c.silver << ", " << c.sources << '}';
}

class GeneratorSweep : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(GeneratorSweep, GeneratesValidPlannableInstances) {
  const GeneratorCase& param = GetParam();
  topo::GeneratorParams p;
  p.regions = param.regions;
  p.sites_per_region = param.sites;
  p.parallel_link_fraction = param.parallel;
  p.num_flows = param.flows;
  p.silver_fraction = param.silver;
  p.max_flow_sources = param.sources;
  p.single_fiber_failures = 6;
  p.site_failures = 1;
  p.seed = 11;
  topo::Topology t = topo::generate(p);
  EXPECT_NO_THROW(t.validate());
  // Saturating everything must satisfy the demand (plannability).
  std::vector<int> saturated(t.num_links());
  for (int l = 0; l < t.num_links(); ++l) saturated[l] = t.link_max_units(l);
  plan::PlanEvaluator evaluator(t, plan::EvaluatorMode::kSourceAggregation);
  EXPECT_TRUE(evaluator.check(saturated).feasible);
  // Round trip through the text format.
  EXPECT_EQ(topo::to_text(t), topo::to_text(topo::from_text(topo::to_text(t))));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GeneratorSweep,
    ::testing::Values(GeneratorCase{1, 4, 0.0, 4, 0.0, 0},
                      GeneratorCase{2, 3, 0.5, 6, 0.5, 3},
                      GeneratorCase{2, 5, 0.2, 12, 0.3, 4},
                      GeneratorCase{3, 3, 0.3, 10, 0.2, 5},
                      GeneratorCase{4, 4, 0.4, 20, 0.3, 6}),
    [](const ::testing::TestParamInfo<GeneratorCase>& info) {
      return case_name(info.param);
    });

// ---- environment / evaluator consistency under random policies ----

class RandomPolicySweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomPolicySweep, EnvironmentTerminatesConsistently) {
  topo::Topology t = topo::make_preset('A');
  rl::EnvConfig config;
  config.max_units_per_step = 4;
  config.max_trajectory_steps = 4000;
  rl::PlanningEnv env(t, config);
  Rng rng(GetParam() * 13 + 1);
  rl::StepResult last;
  while (!env.done()) {
    const auto mask = env.action_mask();
    std::vector<int> valid;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) valid.push_back(static_cast<int>(i));
    }
    ASSERT_FALSE(valid.empty());
    last = env.step(valid[rng.uniform_index(valid.size())]);
  }
  ASSERT_TRUE(last.feasible) << "random policy must reach feasibility on A";
  // The final plan passes an independent evaluator and costs what the
  // topology says it costs.
  std::vector<int> total = t.initial_units();
  const auto added = env.added_units();
  for (int l = 0; l < t.num_links(); ++l) {
    total[l] += added[l];
    EXPECT_GE(added[l], 0);
  }
  plan::PlanEvaluator evaluator(t, plan::EvaluatorMode::kVanilla);
  EXPECT_TRUE(evaluator.check(total).feasible);
  EXPECT_NEAR(env.added_cost(), t.plan_cost(added), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPolicySweep, ::testing::Range(0u, 5u));

// ---- umbrella header API availability ----

TEST(UmbrellaHeader, ExposesAdvertisedApi) {
  topo::Topology t = topo::make_preset('A');
  EXPECT_GT(t.num_links(), 0);
  const core::PlanResult greedy = core::solve_greedy(t);
  EXPECT_TRUE(greedy.feasible);
  const plan::PlanReport report = plan::analyze_plan(t, greedy.added_units);
  EXPECT_TRUE(report.feasible);
  // Types from every module are visible.
  lp::Model model;
  (void)model;
  nn::NetworkConfig net_config;
  (void)net_config;
  rl::TrainConfig train_config;
  (void)train_config;
  ad::AdamConfig adam_config;
  (void)adam_config;
}

// ---- end-to-end: serialization of a planned topology survives ----

TEST(Integration, PlanThenPersistThenReplan) {
  topo::Topology t = topo::make_preset('A');
  const core::PlanResult plan = core::solve_greedy(t);
  ASSERT_TRUE(plan.feasible);
  // Install the plan as the new baseline capacity.
  topo::Topology upgraded = t;
  for (int l = 0; l < t.num_links(); ++l) {
    upgraded.set_link_initial_units(
        l, t.link(l).initial_units + plan.added_units[l]);
  }
  const topo::Topology reloaded = topo::from_text(topo::to_text(upgraded));
  // The upgraded network needs nothing further.
  plan::PlanEvaluator evaluator(reloaded);
  EXPECT_TRUE(evaluator.check(reloaded.initial_units()).feasible);
  const core::PlanResult replan = core::solve_greedy(reloaded);
  ASSERT_TRUE(replan.feasible);
  EXPECT_NEAR(replan.cost, 0.0, 1e-9);  // nothing to add
}

}  // namespace
}  // namespace np
