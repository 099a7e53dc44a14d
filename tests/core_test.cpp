// End-to-end planner tests: baselines and the two-stage NeuroPlan
// pipeline on the Figure 1 example and generator presets.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/baselines.hpp"
#include "core/neuroplan.hpp"
#include "plan/evaluator.hpp"
#include "topo/generator.hpp"
#include "util/stopwatch.hpp"

namespace np::core {
namespace {

topo::Topology preset_a() { return topo::make_preset('A'); }

rl::TrainConfig tiny_train(const topo::Topology& t, unsigned seed = 3) {
  rl::TrainConfig c = default_train_config(t, seed);
  c.epochs = 4;
  c.steps_per_epoch = 128;
  c.network.gcn_hidden = 16;
  c.network.mlp_hidden = {32};
  return c;
}

TEST(Greedy, ProducesFeasiblePlans) {
  for (char id : {'A', 'B'}) {
    topo::Topology t = topo::make_preset(id);
    PlanResult r = solve_greedy(t);
    EXPECT_TRUE(r.feasible) << id;
    EXPECT_GT(r.cost, 0.0) << id;
    PlanResult verified = verify_result(t, r);
    EXPECT_TRUE(verified.feasible) << id;
    EXPECT_DOUBLE_EQ(verified.cost, r.cost) << id;
  }
}

TEST(Ilp, SolvesPresetAOptimally) {
  topo::Topology t = preset_a();
  IlpConfig config;
  config.time_limit_seconds = 120.0;
  PlanResult r = solve_ilp(t, config);
  ASSERT_TRUE(r.feasible);
  EXPECT_FALSE(r.timed_out);
  EXPECT_TRUE(verify_result(t, r).feasible);
  // Exact optimum can never be beaten by the greedy design.
  PlanResult greedy = solve_greedy(t);
  EXPECT_LE(r.cost, greedy.cost + 1e-6);
}

TEST(Ilp, TimesOutGracefully) {
  topo::Topology t = topo::make_preset('C');
  IlpConfig config;
  config.time_limit_seconds = 0.2;
  PlanResult r = solve_ilp(t, config);
  EXPECT_TRUE(r.timed_out || r.feasible);  // tiny budget: expect the cross
}

TEST(IlpHeur, FindsFeasiblePlanOnPresets) {
  for (char id : {'A', 'B'}) {
    topo::Topology t = topo::make_preset(id);
    IlpHeurConfig config;
    config.time_limit_per_solve_seconds = 30.0;
    PlanResult r = solve_ilp_heur(t, config);
    ASSERT_TRUE(r.feasible) << id << " " << r.detail;
    EXPECT_TRUE(verify_result(t, r).feasible) << id;
  }
}

TEST(IlpHeur, CoarseUnitsCostAtLeastOptimal) {
  topo::Topology t = preset_a();
  PlanResult exact = solve_ilp(t, {});
  ASSERT_TRUE(exact.feasible);
  PlanResult heur = solve_ilp_heur(t, {});
  ASSERT_TRUE(heur.feasible);
  EXPECT_GE(heur.cost + 1e-6, exact.cost);
}

TEST(SecondStage, AlphaOneRecoversAtMostFirstStageCost) {
  topo::Topology t = preset_a();
  PlanResult greedy = solve_greedy(t);
  ASSERT_TRUE(greedy.feasible);
  PlanResult pruned = second_stage(t, greedy.added_units, 1.0, 120.0);
  ASSERT_TRUE(pruned.feasible) << pruned.detail;
  // The first-stage plan lies inside the pruned space, so the ILP can
  // only improve on it.
  EXPECT_LE(pruned.cost, greedy.cost + 1e-6);
  EXPECT_TRUE(verify_result(t, pruned).feasible);
}

TEST(SecondStage, LargerAlphaNeverHurts) {
  topo::Topology t = preset_a();
  PlanResult greedy = solve_greedy(t);
  ASSERT_TRUE(greedy.feasible);
  PlanResult a1 = second_stage(t, greedy.added_units, 1.0, 120.0);
  PlanResult a2 = second_stage(t, greedy.added_units, 2.0, 120.0);
  ASSERT_TRUE(a1.feasible);
  ASSERT_TRUE(a2.feasible);
  EXPECT_LE(a2.cost, a1.cost + 1e-6);
}

TEST(SecondStage, SecondsCoverBothPasses) {
  topo::Topology t = preset_a();
  PlanResult greedy = solve_greedy(t);
  ASSERT_TRUE(greedy.feasible);
  Stopwatch watch;
  PlanResult pruned = second_stage(t, greedy.added_units, 1.5, 120.0);
  const double wall = watch.seconds();
  ASSERT_TRUE(pruned.feasible) << pruned.detail;
  // The detail ends with each pass's seconds, printed to 0.01 s.
  const std::size_t at = pruned.detail.rfind("(coarse pass ");
  ASSERT_NE(at, std::string::npos) << pruned.detail;
  double coarse = -1.0, exact = -1.0;
  ASSERT_EQ(std::sscanf(pruned.detail.c_str() + at,
                        "(coarse pass %lf s, exact pass %lf s)", &coarse, &exact),
            2)
      << pruned.detail;
  EXPECT_GE(coarse, 0.0);
  EXPECT_GE(exact, 0.0);
  EXPECT_GE(pruned.seconds, coarse + exact - 0.01);
  EXPECT_LE(pruned.seconds, wall);
}

TEST(SecondStage, ValidatesArguments) {
  topo::Topology t = preset_a();
  std::vector<int> plan(t.num_links(), 1);
  EXPECT_THROW(second_stage(t, plan, 0.5), std::invalid_argument);
  EXPECT_THROW(second_stage(t, {1, 2}, 1.5), std::invalid_argument);
}

TEST(NeuroPlan, EndToEndPipeline) {
  topo::Topology t = preset_a();
  NeuroPlanConfig config;
  config.train = tiny_train(t);
  config.relax_factor = 2.0;
  config.ilp_time_limit_seconds = 120.0;
  NeuroPlanResult r = neuroplan(t, config);
  ASSERT_TRUE(r.first_stage.feasible) << r.first_stage.detail;
  ASSERT_TRUE(r.final.feasible) << r.final.detail;
  // Stage 2 searches a space containing the first-stage plan.
  EXPECT_LE(r.final.cost, r.first_stage.cost + 1e-6);
  EXPECT_TRUE(verify_result(t, r.final).feasible);
  EXPECT_FALSE(r.history.empty());
  EXPECT_GT(r.train_seconds, 0.0);
}

TEST(NeuroPlan, FinalCostBoundedByOptimal) {
  topo::Topology t = preset_a();
  PlanResult exact = solve_ilp(t, {});
  ASSERT_TRUE(exact.feasible);
  NeuroPlanConfig config;
  config.train = tiny_train(t);
  config.relax_factor = 1.5;
  NeuroPlanResult r = neuroplan(t, config);
  ASSERT_TRUE(r.final.feasible);
  // The pruned search space is a subset of the full one.
  EXPECT_GE(r.final.cost + 1e-6, exact.cost);
}

TEST(NeuroPlan, GreedyFallbackWhenRlBudgetTooSmall) {
  topo::Topology t = preset_a();
  NeuroPlanConfig config;
  config.train = tiny_train(t);
  config.train.epochs = 1;
  config.train.steps_per_epoch = 4;   // far too few to find a plan
  config.train.env.max_trajectory_steps = 2;
  NeuroPlanResult r = neuroplan(t, config);
  ASSERT_TRUE(r.first_stage.feasible);
  EXPECT_NE(r.first_stage.detail.find("greedy"), std::string::npos);
  EXPECT_TRUE(r.final.feasible);
}

TEST(NeuroPlan, BeatsHeuristicBaselineOnB) {
  // The paper's headline direction (Fig. 9): on topologies beyond A,
  // NeuroPlan's final plan costs less than the production-style
  // heuristic recipe's. Budgets here are generous enough that the
  // comparison is stable across machines.
  topo::Topology t = topo::make_preset('B');
  NeuroPlanConfig config;
  config.train = default_train_config(t, 7);
  config.train.epochs = 10;
  config.relax_factor = 1.5;
  config.ilp_time_limit_seconds = 60.0;
  config.ilp_relative_gap = 1e-2;
  const NeuroPlanResult np_result = neuroplan(t, config);
  ASSERT_TRUE(np_result.final.feasible);

  IlpHeurConfig heur_config;
  heur_config.time_limit_per_solve_seconds = 20.0;
  heur_config.relative_gap = 1e-2;
  const PlanResult heur = solve_ilp_heur(t, heur_config);
  ASSERT_TRUE(heur.feasible);

  EXPECT_LT(np_result.final.cost, heur.cost * 1.05)
      << "NeuroPlan " << np_result.final.cost << " vs heur " << heur.cost;
  // And the second stage improved (or matched) the first.
  EXPECT_LE(np_result.final.cost, np_result.first_stage.cost + 1e-6);
}

TEST(VerifyResult, CatchesInfeasiblePlans) {
  topo::Topology t = preset_a();
  PlanResult bogus;
  bogus.feasible = true;
  bogus.added_units.assign(t.num_links(), 0);
  bogus.cost = 0.0;
  // All-zero additions on the 25%-provisioned preset cannot satisfy the
  // demand under failures.
  PlanResult verified = verify_result(t, bogus);
  EXPECT_FALSE(verified.feasible);
  EXPECT_THROW(verify_result(t, PlanResult{.feasible = true,
                                           .timed_out = false,
                                           .added_units = {1},
                                           .cost = 0,
                                           .seconds = 0,
                                           .detail = ""}),
               std::invalid_argument);
}

TEST(DefaultTrainConfig, ScalesWithTopology) {
  topo::Topology a = topo::make_preset('A');
  topo::Topology d = topo::make_preset('D');
  const rl::TrainConfig ca = default_train_config(a);
  const rl::TrainConfig cd = default_train_config(d);
  EXPECT_LT(ca.env.max_units_per_step, cd.env.max_units_per_step);
  EXPECT_GE(ca.epochs, cd.epochs);
}

}  // namespace
}  // namespace np::core
