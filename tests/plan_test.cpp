// Plan evaluator (three modes) and planning-MILP formulation tests,
// including cross-mode agreement properties and end-to-end solves on
// the Figure 1 example and generator presets.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "milp/branch_and_bound.hpp"
#include "plan/evaluator.hpp"
#include "plan/formulation.hpp"
#include "plan/scenario_lp.hpp"
#include "topo/generator.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace np::plan {
namespace {

/// Figure 1(a): A-B-C-D and A-E-F-D IP links, 100G flow A->D, failures
/// cutting A-E and B-C.
topo::Topology figure1() {
  topo::Topology t;
  t.set_name("figure1");
  t.set_capacity_unit_gbps(100.0);
  t.set_cost_model({0.01, 0.0});
  for (const char* name : {"A", "B", "C", "D", "E", "F"}) t.add_site({name, 0, 0, 0});
  auto fiber = [&](int a, int b, const char* name) {
    topo::Fiber f;
    f.site_a = a; f.site_b = b; f.length_km = 100.0; f.spectrum_ghz = 4800.0;
    f.build_cost = 0.0; f.name = name;
    return t.add_fiber(f);
  };
  const int ab = fiber(0, 1, "A-B"), bc = fiber(1, 2, "B-C"), cd = fiber(2, 3, "C-D");
  const int ae = fiber(0, 4, "A-E"), ef = fiber(4, 5, "E-F"), fd = fiber(5, 3, "F-D");
  auto link = [&](std::vector<int> path, const char* name) {
    topo::IpLink l;
    l.site_a = 0; l.site_b = 3;
    l.fiber_path = std::move(path);
    l.spectrum_per_unit_ghz = 37.5;
    l.name = name;
    return t.add_ip_link(std::move(l));
  };
  link({ab, bc, cd}, "link1");
  link({ae, ef, fd}, "link2");
  t.add_flow({0, 3, 100.0, topo::CoS::kGold});
  t.add_failure({{ae}, {}, "cut-A-E"});
  t.add_failure({{bc}, {}, "cut-B-C"});
  return t;
}

TEST(ScenarioLp, HealthyScenarioFeasibleWithEnoughCapacity) {
  topo::Topology t = figure1();
  ScenarioLp lp = build_scenario_lp(t, kHealthyScenario, true);
  set_plan_capacities(lp, t, {1, 0});
  ScenarioCheck check = solve_scenario(lp, {}, false);
  EXPECT_TRUE(check.feasible);
  EXPECT_NEAR(check.unserved_gbps, 0.0, 1e-6);
}

TEST(ScenarioLp, ZeroCapacityLeavesAllDemandUnserved) {
  topo::Topology t = figure1();
  ScenarioLp lp = build_scenario_lp(t, kHealthyScenario, true);
  set_plan_capacities(lp, t, {0, 0});
  ScenarioCheck check = solve_scenario(lp, {}, false);
  EXPECT_FALSE(check.feasible);
  EXPECT_NEAR(check.unserved_gbps, 100.0, 1e-6);
}

TEST(ScenarioLp, FailureScenarioDropsDeadLink) {
  topo::Topology t = figure1();
  // Scenario 1 = cut A-E: link2 dead, link1 must carry everything.
  ScenarioLp lp = build_scenario_lp(t, 1, true);
  set_plan_capacities(lp, t, {0, 5});  // capacity only on the dead link
  ScenarioCheck check = solve_scenario(lp, {}, false);
  EXPECT_FALSE(check.feasible);
  set_plan_capacities(lp, t, {1, 0});
  check = solve_scenario(lp, {}, true);
  EXPECT_TRUE(check.feasible);
}

TEST(ScenarioLp, WarmStartAfterCapacityIncreaseIsCheap) {
  topo::Topology t = figure1();
  ScenarioLp lp = build_scenario_lp(t, kHealthyScenario, true);
  set_plan_capacities(lp, t, {0, 0});
  (void)solve_scenario(lp, {}, false);
  ASSERT_FALSE(lp.basis.empty());
  set_plan_capacities(lp, t, {1, 1});
  ScenarioCheck warm = solve_scenario(lp, {}, true);
  EXPECT_TRUE(warm.feasible);

  ScenarioLp cold_lp = build_scenario_lp(t, kHealthyScenario, true);
  set_plan_capacities(cold_lp, t, {1, 1});
  ScenarioCheck cold = solve_scenario(cold_lp, {}, false);
  EXPECT_TRUE(cold.feasible);
  // The slack-crash cold start makes tiny LPs near-free to solve cold,
  // so "warm <= cold" can be off by a pivot or two at these scales; the
  // property that matters is that the warm solve stays O(1) cheap.
  EXPECT_LE(warm.lp_iterations, cold.lp_iterations + 2);
  EXPECT_LE(warm.lp_iterations, 8);
}

TEST(ScenarioLp, ModelIsSizedExactly) {
  // The cached evaluators keep every scenario LP resident, so the model
  // holds its matrix once, in the compressed column store, and no
  // vector growth slack: variables, row bounds and both column-store
  // arrays are allocated at their final size, and no row-major
  // coefficients remain. Figure 1 has sites with no link (rows
  // skipped); B and D have link and site failures.
  for (const topo::Topology& t :
       {figure1(), topo::make_preset('B'), topo::make_preset('D')}) {
    for (const bool aggregate : {true, false}) {
      for (int scenario = 0; scenario <= t.num_failures(); ++scenario) {
        const ScenarioLp lp = build_scenario_lp(t, scenario, aggregate);
        SCOPED_TRACE(::testing::Message() << t.name() << " scenario " << scenario
                                          << (aggregate ? " aggregated" : " per-flow"));
        ASSERT_TRUE(lp.model.compressed());
        EXPECT_EQ(lp.model.variables().capacity(), lp.model.variables().size());
        EXPECT_EQ(lp.model.rows().capacity(), lp.model.rows().size());
        const lp::SparseLines& columns = lp.model.columns();
        EXPECT_EQ(columns.entries.capacity(), columns.entries.size());
        EXPECT_EQ(columns.start.capacity(), columns.start.size());
        EXPECT_EQ(columns.start.size(),
                  static_cast<std::size_t>(lp.model.num_variables()) + 1);
        EXPECT_EQ(lp.model.row_coefficients().entries.capacity(), 0u);
        EXPECT_EQ(lp.model.row_coefficients().start.capacity(), 0u);
      }
    }
  }
}

TEST(ScenarioLp, RejectsBadScenarioIndex) {
  topo::Topology t = figure1();
  EXPECT_THROW(build_scenario_lp(t, -1, true), std::invalid_argument);
  EXPECT_THROW(build_scenario_lp(t, 3, true), std::invalid_argument);
}

TEST(Evaluator, Figure1Semantics) {
  topo::Topology t = figure1();
  for (EvaluatorMode mode : {EvaluatorMode::kVanilla,
                             EvaluatorMode::kSourceAggregation,
                             EvaluatorMode::kStateful}) {
    PlanEvaluator eval(t, mode);
    EXPECT_EQ(eval.num_scenarios(), 3);
    // Both links at 1 unit (100G): feasible under both failures.
    EXPECT_TRUE(eval.check({1, 1}).feasible) << to_string(mode);
    // Only link1: dies when B-C is cut (scenario index 2).
    CheckResult r = eval.check({1, 0});
    EXPECT_FALSE(r.feasible) << to_string(mode);
    EXPECT_EQ(r.violated_scenario, 2) << to_string(mode);
    // Nothing: fails immediately at the healthy scenario.
    r = eval.check({0, 0});
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(r.violated_scenario, kHealthyScenario);
  }
}

TEST(Evaluator, StatefulSkipsSurvivedScenarios) {
  topo::Topology t = figure1();
  PlanEvaluator eval(t, EvaluatorMode::kStateful);
  CheckResult first = eval.check({1, 0});
  EXPECT_FALSE(first.feasible);
  EXPECT_EQ(first.violated_scenario, 2);
  EXPECT_EQ(first.scenarios_checked, 3);  // healthy, failure1 pass; failure2 fails
  // Monotone increment: only the previously-violated scenario is rechecked.
  CheckResult second = eval.check({1, 1});
  EXPECT_TRUE(second.feasible);
  EXPECT_EQ(second.scenarios_checked, 1);
}

TEST(Evaluator, ResetRestartsScenarioProgress) {
  // A new trajectory needs no reset: a plan that does not dominate the
  // previous one is checked from the healthy scenario again.
  topo::Topology t = figure1();
  PlanEvaluator eval(t, EvaluatorMode::kStateful);
  EXPECT_TRUE(eval.check({1, 1}).feasible);
  CheckResult r = eval.check({0, 0});
  EXPECT_EQ(r.violated_scenario, kHealthyScenario);
}

TEST(Evaluator, StatefulSurvivesResetWithLowerCapacities) {
  // The next check may carry SMALLER capacities (a new trajectory); the
  // cached models + dual repair must still be correct.
  topo::Topology t = figure1();
  PlanEvaluator eval(t, EvaluatorMode::kStateful);
  EXPECT_TRUE(eval.check({3, 3}).feasible);
  CheckResult r = eval.check({0, 0});
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.violated_scenario, kHealthyScenario);
  EXPECT_TRUE(eval.check({1, 1}).feasible);
}

TEST(Evaluator, SmallerPlanRestartsTheSkip) {
  // A plan with fewer units on some link than the previous one is
  // checked from scenario 0: what {3,3} survived, {0,0} need not. The
  // cached models and dual repair must stay correct on the way down
  // and back up.
  topo::Topology t = figure1();
  PlanEvaluator eval(t, EvaluatorMode::kStateful);
  EXPECT_TRUE(eval.check({3, 3}).feasible);
  CheckResult r = eval.check({0, 0});
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.violated_scenario, kHealthyScenario);
  EXPECT_TRUE(eval.check({1, 1}).feasible);
  r = eval.check({0, 0});
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.violated_scenario, kHealthyScenario);
  // {0,1} dominates {0,0} and resumes where {0,0} failed, at 0.
  r = eval.check({0, 1});
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.violated_scenario, 1);
  EXPECT_EQ(r.scenarios_checked, 2);
  // {1,0} grows link1 but shrinks link2: no dominating step, so it
  // starts over instead of resuming at scenario 1.
  r = eval.check({1, 0});
  EXPECT_EQ(r.violated_scenario, 2);
  EXPECT_EQ(r.scenarios_checked, 3);
}

TEST(Evaluator, SkipNeverPassesAQuarantinedScenario) {
  topo::Topology t = figure1();
  PlanEvaluator eval(t, EvaluatorMode::kStateful);
  eval.set_quarantined({1});
  // {1,0} fails the B-C cut (scenario 2), after skipping scenario 1.
  CheckResult r = eval.check({1, 0});
  EXPECT_EQ(r.verdict, Verdict::kInfeasible);
  EXPECT_EQ(r.violated_scenario, 2);
  EXPECT_EQ(r.quarantined_skipped, 1);
  // {1,1} dominates {1,0}, but scenario 1 was never proven: the resume
  // point stayed at it, so it is skipped again and the verdict is
  // unknown, not feasible.
  r = eval.check({1, 1});
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.quarantined_skipped, 1);
  EXPECT_EQ(r.scenarios_checked, 1);
  // Lifting the quarantine proves it.
  eval.set_quarantined({});
  r = eval.check({1, 1});
  EXPECT_EQ(r.verdict, Verdict::kFeasible);
  EXPECT_EQ(r.scenarios_checked, 2);
}

TEST(Evaluator, RejectsBadPlans) {
  topo::Topology t = figure1();
  PlanEvaluator eval(t);
  EXPECT_THROW(eval.check({1}), std::invalid_argument);
  EXPECT_THROW(eval.check({1, -2}), std::invalid_argument);
}

TEST(Evaluator, ModeToString) {
  EXPECT_STREQ(to_string(EvaluatorMode::kVanilla), "vanilla");
  EXPECT_STREQ(to_string(EvaluatorMode::kSourceAggregation), "source-aggregation");
  EXPECT_STREQ(to_string(EvaluatorMode::kStateful), "stateful");
}

// Property: the three modes agree on feasibility verdicts for random
// monotone plan sequences on generator presets.
class ModeAgreement : public ::testing::TestWithParam<unsigned> {};

TEST_P(ModeAgreement, VerdictsAgreeAcrossModes) {
  topo::Topology t = topo::make_preset('A');
  PlanEvaluator vanilla(t, EvaluatorMode::kVanilla);
  PlanEvaluator sa(t, EvaluatorMode::kSourceAggregation);
  PlanEvaluator stateful(t, EvaluatorMode::kStateful);
  Rng rng(GetParam() * 31 + 5);
  std::vector<int> units = t.initial_units();
  for (int step = 0; step < 6; ++step) {
    const CheckResult v = vanilla.check(units);
    const CheckResult s = sa.check(units);
    const CheckResult st = stateful.check(units);
    EXPECT_EQ(v.feasible, s.feasible) << "step " << step;
    EXPECT_EQ(s.feasible, st.feasible) << "step " << step;
    if (!v.feasible) {
      EXPECT_EQ(v.violated_scenario, s.violated_scenario);
      EXPECT_EQ(s.violated_scenario, st.violated_scenario);
    }
    // Monotone growth: every stateful check after the first skips.
    const int link = static_cast<int>(rng.uniform_index(t.num_links()));
    units[link] += 1 + static_cast<int>(rng.uniform_index(4));
    units[link] = std::min(units[link], t.link_max_units(link));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeAgreement, ::testing::Range(0u, 6u));

// Property: feasibility is monotone in capacity.
TEST(Evaluator, FeasibilityIsMonotoneInCapacity) {
  topo::Topology t = topo::make_preset('A');
  PlanEvaluator eval(t, EvaluatorMode::kSourceAggregation);
  std::vector<int> units(t.num_links(), 0);
  bool was_feasible = false;
  for (int step = 0; step < 40; ++step) {
    const bool feasible = eval.check(units).feasible;
    if (was_feasible) {
      EXPECT_TRUE(feasible) << "monotonicity violated at " << step;
    }
    was_feasible = feasible;
    for (int l = 0; l < t.num_links(); ++l) {
      units[l] = std::min(units[l] + 2, t.link_max_units(l));
    }
  }
  EXPECT_TRUE(was_feasible);  // saturating everything must be feasible
}

// ---- planning MILP ----

TEST(Formulation, Figure1OptimalPlan) {
  topo::Topology t = figure1();
  PlanningMilp milp(t, {});
  milp::MilpResult r = milp::solve(milp.model());
  ASSERT_EQ(r.status, milp::MilpStatus::kOptimal);
  const std::vector<int> added = milp.extract_added_units(r.x);
  // Figure 1(a): both 100G links are needed -> 1 unit each.
  EXPECT_EQ(added, (std::vector<int>{1, 1}));
  // Cost = 2 links * 1 unit * (100 Gbps * 0.01 * 300 km) = 600.
  EXPECT_NEAR(r.objective, 600.0, 1e-6);
  // The MILP plan must pass the evaluator.
  PlanEvaluator eval(t);
  std::vector<int> total = t.initial_units();
  for (int l = 0; l < t.num_links(); ++l) total[l] += added[l];
  EXPECT_TRUE(eval.check(total).feasible);
}

TEST(Formulation, PrunedBoundsRestrictSolution) {
  topo::Topology t = figure1();
  FormulationOptions options;
  options.max_added_units = {1, 0};  // forbid capacity on link2
  PlanningMilp milp(t, options);
  // Without link2, the cut of B-C cannot be survived -> infeasible.
  EXPECT_EQ(milp::solve(milp.model()).status, milp::MilpStatus::kInfeasible);
}

TEST(Formulation, FailureSubsetRelaxesProblem) {
  topo::Topology t = figure1();
  FormulationOptions options;
  options.failures = std::vector<int>{0};  // only the A-E cut
  PlanningMilp milp(t, options);
  milp::MilpResult r = milp::solve(milp.model());
  ASSERT_EQ(r.status, milp::MilpStatus::kOptimal);
  const std::vector<int> added = milp.extract_added_units(r.x);
  // Only link1 is needed when B-C never fails.
  EXPECT_EQ(added, (std::vector<int>{1, 0}));
}

TEST(Formulation, UnitMultiplierCoarsensPlan) {
  topo::Topology t = figure1();
  // Demand 150G: base unit needs 2 units (200G); multiplier 4 forces 4.
  topo::Topology t2 = figure1();
  (void)t2;
  topo::Topology big = figure1();
  // Rebuild with a bigger flow by adding a second flow A->D of 50G.
  big.add_flow({0, 3, 50.0, topo::CoS::kGold});
  FormulationOptions base;
  PlanningMilp exact(big, base);
  milp::MilpResult exact_r = milp::solve(exact.model());
  ASSERT_EQ(exact_r.status, milp::MilpStatus::kOptimal);

  FormulationOptions coarse;
  coarse.unit_multiplier = 4;
  PlanningMilp heur(big, coarse);
  milp::MilpResult heur_r = milp::solve(heur.model());
  ASSERT_EQ(heur_r.status, milp::MilpStatus::kOptimal);
  // Coarser units can only cost more (or equal).
  EXPECT_GE(heur_r.objective + 1e-9, exact_r.objective);
  // And the extracted plan is in multiples of 4 units.
  for (int units : heur.extract_added_units(heur_r.x)) {
    EXPECT_EQ(units % 4, 0);
  }
}

TEST(Formulation, MinAddedUnitsEnforced) {
  topo::Topology t = figure1();
  FormulationOptions options;
  options.min_added_units = {2, 1};  // force over-provisioning
  PlanningMilp milp(t, options);
  milp::MilpResult r = milp::solve(milp.model());
  ASSERT_EQ(r.status, milp::MilpStatus::kOptimal);
  const std::vector<int> added = milp.extract_added_units(r.x);
  EXPECT_GE(added[0], 2);
  EXPECT_GE(added[1], 1);
}

TEST(Formulation, CostCutoffExcludesExpensivePlans) {
  topo::Topology t = figure1();
  // The optimum costs 600; a cutoff below that makes the MILP infeasible.
  FormulationOptions options;
  options.max_total_cost = 500.0;
  PlanningMilp milp(t, options);
  EXPECT_EQ(milp::solve(milp.model()).status, milp::MilpStatus::kInfeasible);
  // A cutoff at the optimum keeps it reachable.
  options.max_total_cost = 600.0 + 1e-6;
  PlanningMilp ok(t, options);
  milp::MilpResult r = milp::solve(ok.model());
  ASSERT_EQ(r.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 600.0, 1e-6);
}

TEST(Formulation, MinAddedUnitsSizeValidated) {
  topo::Topology t = figure1();
  FormulationOptions options;
  options.min_added_units = {1};
  EXPECT_THROW(PlanningMilp(t, options), std::invalid_argument);
}

TEST(Formulation, OptionValidation) {
  topo::Topology t = figure1();
  FormulationOptions options;
  options.unit_multiplier = 0;
  EXPECT_THROW(PlanningMilp(t, options), std::invalid_argument);
  options = {};
  options.max_added_units = {1};
  EXPECT_THROW(PlanningMilp(t, options), std::invalid_argument);
  options = {};
  options.failures = std::vector<int>{99};
  EXPECT_THROW(PlanningMilp(t, options), std::invalid_argument);
  options.failures = std::vector<int>{-1};
  EXPECT_THROW(PlanningMilp(t, options), std::invalid_argument);
}

TEST(Formulation, PresetAIsSolvableAndEvaluatorConsistent) {
  topo::Topology t = topo::make_preset('A');
  PlanningMilp milp(t, {});
  milp::MilpOptions options;
  options.deadline = util::Deadline::after_seconds(60.0);
  milp::MilpResult r = milp::solve(milp.model(), options);
  ASSERT_TRUE(r.has_incumbent);
  const std::vector<int> added = milp.extract_added_units(r.x);
  std::vector<int> total = t.initial_units();
  for (int l = 0; l < t.num_links(); ++l) total[l] += added[l];
  PlanEvaluator eval(t);
  EXPECT_TRUE(eval.check(total).feasible);
  // Objective matches the topology cost model on the added units.
  EXPECT_NEAR(r.objective, t.plan_cost(added), 1e-6);
}

/// FNV-1a over the bit patterns of `values`, folded into `hash`.
void fnv1a_bits(std::initializer_list<double> values, std::uint64_t& hash) {
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3u;
    }
  }
}

/// Folds everything a solver reads of `model` into `hash`: variable
/// bounds, objective and integrality, row bounds, and the compressed
/// columns (row index and coefficient of every entry).
void fnv1a_model(lp::Model model, std::uint64_t& hash) {
  model.compress();
  for (const lp::Variable& v : model.variables()) {
    fnv1a_bits({v.lower, v.upper, v.objective, v.is_integer ? 1.0 : 0.0}, hash);
  }
  for (const lp::Row& row : model.rows()) fnv1a_bits({row.lower, row.upper}, hash);
  for (int j = 0; j < model.num_variables(); ++j) {
    fnv1a_bits({static_cast<double>(j)}, hash);
    for (const auto& [row, value] : model.columns().line(j)) {
      fnv1a_bits({static_cast<double>(row), value}, hash);
    }
  }
}

TEST(Formulation, ModelsAreBitStable) {
  // Pins the models the planners solve, bit for bit: the planning MILP
  // on A-C under default options, a failure subset, coarse units with
  // bounds and a cost cutoff, and a floor on the additions; then every
  // scenario LP of B and C in both aggregations. A change to variable
  // or row order, a coefficient or a bound moves the hash.
  std::uint64_t hash = 0xcbf29ce484222325u;
  for (const char id : {'A', 'B', 'C'}) {
    const topo::Topology t = topo::make_preset(id);
    const int links = t.num_links();
    fnv1a_model(PlanningMilp(t, {}).model(), hash);

    FormulationOptions subset;
    subset.failures.emplace();
    for (int k = 0; k < t.num_failures(); k += 3) subset.failures->push_back(k);
    fnv1a_model(PlanningMilp(t, subset).model(), hash);

    FormulationOptions coarse;
    coarse.unit_multiplier = 4;
    coarse.max_added_units.resize(links);
    for (int l = 0; l < links; ++l) coarse.max_added_units[l] = 3 + 2 * (l % 5);
    coarse.max_total_cost = 1e5;
    fnv1a_model(PlanningMilp(t, coarse).model(), hash);

    FormulationOptions top_up;
    top_up.min_added_units.resize(links);
    for (int l = 0; l < links; ++l) top_up.min_added_units[l] = l % 3;
    fnv1a_model(PlanningMilp(t, top_up).model(), hash);

    if (id == 'A') continue;
    for (const bool aggregate : {true, false}) {
      for (int scenario = 0; scenario <= t.num_failures(); ++scenario) {
        fnv1a_model(build_scenario_lp(t, scenario, aggregate).model, hash);
      }
    }
  }
  EXPECT_EQ(hash, 0xf26f0fe80c8bde90u) << "hash 0x" << std::hex << hash;
}

// Any plan sequence gets the verdicts of fresh models: random plans
// that mix dominating steps (the §5 skip applies) with arbitrary jumps
// (it must not) against resident warm-started models.
TEST(Evaluator, StatefulMatchesFreshModelsOnNonMonotonePlans) {
  topo::Topology t = topo::make_preset('A');
  // The reference rebuilds every scenario LP on each call, so its
  // verdicts carry no state from earlier plans.
  PlanEvaluator fresh(t, EvaluatorMode::kSourceAggregation);
  PlanEvaluator stateful(t, EvaluatorMode::kStateful);
  // Find a uniform per-link addition that makes the plan feasible so
  // the random trials straddle the feasibility boundary.
  const std::vector<int> initial = t.initial_units();
  int scale = 1;
  for (; scale <= 64; ++scale) {
    std::vector<int> units = initial;
    for (auto& u : units) u += scale;
    if (fresh.check(units).feasible) break;
  }
  ASSERT_LE(scale, 64) << "preset A should be plannable";
  Rng rng(71);
  int feasible_seen = 0, infeasible_seen = 0, skipping_steps = 0, jumps = 0;
  std::vector<int> units = initial;
  std::vector<int> previous;
  for (int trial = 0; trial < 80; ++trial) {
    if (trial == 0) {
      // keep initial units: known infeasible (the agent must add capacity)
    } else if (trial == 1) {
      for (auto& u : units) u += scale;  // known feasible
    } else if (rng.uniform() < 0.5) {
      // Dominating step: a few links gain a unit each.
      for (int k = 0; k < 3; ++k) {
        const int l = static_cast<int>(rng.uniform_index(t.num_links()));
        units[l] = std::min(units[l] + 1, t.link_max_units(l));
      }
    } else {
      units = initial;
      for (auto& u : units) u += static_cast<int>(rng.uniform_int(0, scale + 2));
    }
    bool dominating = !previous.empty();
    for (std::size_t l = 0; dominating && l < units.size(); ++l) {
      dominating = units[l] >= previous[l];
    }
    previous = units;
    const CheckResult want = fresh.check(units);
    const CheckResult got = stateful.check(units);
    EXPECT_EQ(got.feasible, want.feasible) << "trial " << trial;
    EXPECT_EQ(got.verdict, want.verdict) << "trial " << trial;
    EXPECT_EQ(got.violated_scenario, want.violated_scenario)
        << "trial " << trial;
    if (dominating) {
      EXPECT_LE(got.scenarios_checked, want.scenarios_checked) << "trial " << trial;
      if (got.scenarios_checked < want.scenarios_checked) ++skipping_steps;
    } else {
      // A jump is checked from scenario 0, like the fresh reference.
      EXPECT_EQ(got.scenarios_checked, want.scenarios_checked) << "trial " << trial;
      ++jumps;
    }
    if (want.feasible) {
      ++feasible_seen;
    } else {
      ++infeasible_seen;
      EXPECT_GT(got.unserved_gbps, 0.0);
    }
  }
  // The random plans must exercise both verdicts, skips and restarts.
  EXPECT_GT(feasible_seen, 0);
  EXPECT_GT(infeasible_seen, 0);
  EXPECT_GT(skipping_steps, 0);
  EXPECT_GT(jumps, 1);
}

TEST(ScenarioLp, DeadlineHitReportsUnknownVerdict) {
  topo::Topology t = figure1();
  ScenarioLp lp = build_scenario_lp(t, kHealthyScenario, true);
  set_plan_capacities(lp, t, {1, 1});
  lp::SimplexOptions options;
  options.deadline = util::Deadline::after_seconds(0.0);  // already expired
  ScenarioCheck check = solve_scenario(lp, options, false);
  EXPECT_EQ(check.verdict, Verdict::kUnknown);
  EXPECT_TRUE(check.deadline_hit);
  EXPECT_FALSE(check.feasible);  // degrades conservatively
}

TEST(ScenarioLp, UnlimitedDeadlineResolvesVerdict) {
  topo::Topology t = figure1();
  ScenarioLp lp = build_scenario_lp(t, kHealthyScenario, true);
  set_plan_capacities(lp, t, {1, 1});
  ScenarioCheck check = solve_scenario(lp, {}, false);
  EXPECT_EQ(check.verdict, Verdict::kFeasible);
  EXPECT_FALSE(check.deadline_hit);
}

TEST(Evaluator, ScenarioBudgetExhaustionDegradesToUnknown) {
  topo::Topology t = figure1();
  PlanEvaluator eval(t, EvaluatorMode::kVanilla);
  eval.set_scenario_budget(1e-9);  // expires before the first iteration
  const CheckResult r = eval.check({1, 1});
  EXPECT_FALSE(r.feasible);  // conservative: unknown is treated as not-ok
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_GT(r.deadline_hits, 0);
  // Lifting the budget restores a definite verdict on the same evaluator.
  eval.set_scenario_budget(0.0);
  const CheckResult ok = eval.check({1, 1});
  EXPECT_TRUE(ok.feasible);
  EXPECT_EQ(ok.verdict, Verdict::kFeasible);
  EXPECT_EQ(ok.deadline_hits, 0);
}

TEST(Evaluator, StatefulScenarioBudgetExhaustionDegradesToUnknown) {
  topo::Topology t = figure1();
  PlanEvaluator eval(t, EvaluatorMode::kStateful);
  eval.set_scenario_budget(1e-9);
  const CheckResult r = eval.check({1, 1});
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_GT(r.deadline_hits, 0);
  // The models cached by the cut-off check resolve a definite verdict
  // once the budget is lifted: the same plan resumes at the scenario
  // the budget cut off, not past it.
  eval.set_scenario_budget(0.0);
  const CheckResult ok = eval.check({1, 1});
  EXPECT_TRUE(ok.feasible);
  EXPECT_EQ(ok.verdict, Verdict::kFeasible);
  EXPECT_EQ(ok.deadline_hits, 0);
}

}  // namespace
}  // namespace np::plan
