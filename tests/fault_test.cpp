// Fault-injection harness: trigger arithmetic is exercised in every
// build; the throw-site integration tests (LP refactorization,
// checkpoint I/O, rollout steps) require a build with
// NEUROPLAN_FAULTS=ON and skip elsewhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "ad/snapshot.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "plan/evaluator.hpp"
#include "plan/scenario_lp.hpp"
#include "rl/trainer.hpp"
#include "temp_path.hpp"
#include "topo/generator.hpp"
#include "util/fault.hpp"

namespace np::util {
namespace {

/// Every test runs against the process-wide injector; disarming on both
/// ends keeps tests order-independent.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().disarm_all(); }
  void TearDown() override { FaultInjector::instance().disarm_all(); }
};

// ---- trigger arithmetic (runs in every build) ----

TEST_F(FaultTest, UnarmedNeverFires) {
  FaultInjector& f = FaultInjector::instance();
  EXPECT_FALSE(f.any_armed());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(f.should_fire("anything"));
  EXPECT_EQ(f.total_triggered(), 0);
  // Unarmed sites do not even count calls (fast path skips bookkeeping).
  EXPECT_EQ(f.calls("anything"), 0);
}

TEST_F(FaultTest, NthCallFiresExactlyOnce) {
  FaultInjector& f = FaultInjector::instance();
  f.arm("site", FaultSpec{0.0, 3});
  EXPECT_TRUE(f.any_armed());
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    if (f.should_fire("site")) {
      EXPECT_EQ(i, 3);
      ++fired;
    }
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(f.calls("site"), 10);
  EXPECT_EQ(f.triggered("site"), 1);
  EXPECT_EQ(f.total_triggered(), 1);
}

TEST_F(FaultTest, ArmedSiteDoesNotAffectOtherSites) {
  FaultInjector& f = FaultInjector::instance();
  f.arm("site", FaultSpec{1.0, 0});
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(f.should_fire("other"));
}

TEST_F(FaultTest, ProbabilityZeroNeverFires) {
  FaultInjector& f = FaultInjector::instance();
  f.arm("site", FaultSpec{0.0, 0});
  for (int i = 0; i < 200; ++i) EXPECT_FALSE(f.should_fire("site"));
}

TEST_F(FaultTest, ProbabilityOneAlwaysFires) {
  FaultInjector& f = FaultInjector::instance();
  f.arm("site", FaultSpec{1.0, 0});
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(f.should_fire("site"));
  EXPECT_EQ(f.triggered("site"), 50);
}

TEST_F(FaultTest, ReseedMakesBernoulliStreamReproducible) {
  FaultInjector& f = FaultInjector::instance();
  std::vector<bool> first, second;
  for (int round = 0; round < 2; ++round) {
    f.disarm_all();
    f.reseed(1234);
    f.arm("site", FaultSpec{0.5, 0});
    auto& out = round == 0 ? first : second;
    for (int i = 0; i < 64; ++i) out.push_back(f.should_fire("site"));
  }
  EXPECT_EQ(first, second);
}

TEST_F(FaultTest, RearmResetsCallCount) {
  FaultInjector& f = FaultInjector::instance();
  f.arm("site", FaultSpec{0.0, 2});
  EXPECT_FALSE(f.should_fire("site"));
  EXPECT_TRUE(f.should_fire("site"));
  f.arm("site", FaultSpec{0.0, 2});  // re-arm: fires on the 2nd call again
  EXPECT_EQ(f.calls("site"), 0);
  EXPECT_FALSE(f.should_fire("site"));
  EXPECT_TRUE(f.should_fire("site"));
}

TEST_F(FaultTest, DisarmAllClearsEverything) {
  FaultInjector& f = FaultInjector::instance();
  f.arm("a", FaultSpec{1.0, 0});
  f.arm("b", FaultSpec{0.0, 1});
  (void)f.should_fire("a");
  f.disarm_all();
  EXPECT_FALSE(f.any_armed());
  EXPECT_EQ(f.total_triggered(), 0);
  EXPECT_EQ(f.calls("a"), 0);
  EXPECT_FALSE(f.should_fire("a"));
  EXPECT_FALSE(f.should_fire("b"));
}

TEST_F(FaultTest, OnSiteThrowsInjectedFaultNamingTheSite) {
  FaultInjector& f = FaultInjector::instance();
  f.arm("lp.refactor", FaultSpec{0.0, 1});
  try {
    f.on_site("lp.refactor");
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& e) {
    EXPECT_EQ(e.site(), "lp.refactor");
    EXPECT_NE(std::string(e.what()).find("lp.refactor"), std::string::npos);
  }
  // Past the nth call the site is quiet again.
  f.on_site("lp.refactor");
}

TEST_F(FaultTest, InjectedFaultIsARuntimeError) {
  // Recovery paths catch std::runtime_error (real I/O and solver
  // failures); injected faults must flow through the same ones.
  EXPECT_THROW(throw InjectedFault("x"), std::runtime_error);
}

TEST_F(FaultTest, ConfigureFromEnvArmsListedSites) {
  FaultInjector& f = FaultInjector::instance();
  ::setenv("NEUROPLAN_FAULT_SITES", "ckpt.write=nth:2;lp.refactor=p:1.0", 1);
  ::setenv("NEUROPLAN_FAULT_SEED", "77", 1);
  f.configure_from_env();
  ::unsetenv("NEUROPLAN_FAULT_SITES");
  ::unsetenv("NEUROPLAN_FAULT_SEED");
  EXPECT_TRUE(f.any_armed());
  EXPECT_FALSE(f.should_fire("ckpt.write"));
  EXPECT_TRUE(f.should_fire("ckpt.write"));
  EXPECT_TRUE(f.should_fire("lp.refactor"));
}

TEST_F(FaultTest, ConfigureFromEnvSkipsMalformedEntries) {
  FaultInjector& f = FaultInjector::instance();
  ::setenv("NEUROPLAN_FAULT_SITES",
           "no-separator;=nth:1;bad=weird:3;bad2=nth:xyz;good=nth:1", 1);
  f.configure_from_env();
  ::unsetenv("NEUROPLAN_FAULT_SITES");
  EXPECT_TRUE(f.should_fire("good"));
  EXPECT_FALSE(f.should_fire("bad"));
  EXPECT_FALSE(f.should_fire("bad2"));
}

TEST_F(FaultTest, ConfigureFromEnvUnsetLeavesDisarmed) {
  ::unsetenv("NEUROPLAN_FAULT_SITES");
  ::unsetenv("NEUROPLAN_FAULT_SEED");
  FaultInjector::instance().configure_from_env();
  EXPECT_FALSE(FaultInjector::instance().any_armed());
}

// ---- throw-site integration (needs a NEUROPLAN_FAULTS=ON build) ----

TEST_F(FaultTest, CheckpointWriteFaultLeavesPreviousSnapshotIntact) {
  if (!NP_FAULTS_ENABLED) GTEST_SKIP() << "built without NEUROPLAN_FAULTS";
  const std::string path = np::test::temp_path("fault_ckpt.state");
  ad::write_snapshot_file(path, "unit", "good");
  FaultInjector::instance().arm("ckpt.write", FaultSpec{0.0, 1});
  EXPECT_THROW(ad::write_snapshot_file(path, "unit", "doomed"), InjectedFault);
  EXPECT_EQ(ad::read_snapshot_file(path, "unit"), "good");
  // The site fired before the temp file existed; a retry succeeds.
  ad::write_snapshot_file(path, "unit", "recovered");
  EXPECT_EQ(ad::read_snapshot_file(path, "unit"), "recovered");
}

TEST_F(FaultTest, LpRefactorFaultPropagatesFromSolve) {
  if (!NP_FAULTS_ENABLED) GTEST_SKIP() << "built without NEUROPLAN_FAULTS";
  const topo::Topology t = topo::make_preset('A');
  plan::ScenarioLp lp = plan::build_scenario_lp(t, plan::kHealthyScenario, true);
  FaultInjector::instance().arm("lp.refactor", FaultSpec{0.0, 1});
  EXPECT_THROW(plan::solve_scenario(lp, {}, false), InjectedFault);
  FaultInjector::instance().disarm_all();
  // The model is still usable once the fault clears.
  plan::ScenarioCheck check = plan::solve_scenario(lp, {}, false);
  EXPECT_GE(check.lp_iterations, 0);
}

TEST_F(FaultTest, LpRefactorFaultInAReusedLuSolveLeavesNoKeptLu) {
  if (!NP_FAULTS_ENABLED) GTEST_SKIP() << "built without NEUROPLAN_FAULTS";
  const topo::Topology t = topo::make_preset('A');
  std::vector<int> plentiful(t.num_links());
  for (int l = 0; l < t.num_links(); ++l) plentiful[l] = t.link_max_units(l);
  plan::ScenarioLp lp = plan::build_scenario_lp(t, plan::kHealthyScenario, true);
  plan::set_plan_capacities(lp, t, plentiful);
  (void)plan::solve_scenario(lp, {}, true);  // cold: no basis yet
  (void)plan::solve_scenario(lp, {}, true);  // warm at the same plan: keeps its LU
  ASSERT_FALSE(lp.factor.basis.empty());
  // Cutting every link to nothing makes the kept basis primal
  // infeasible: the warm start adopts the kept LU (no refactorization),
  // so the first lp.refactor call is the dual repair's verification of
  // its terminal, and that is where the fault fires.
  const std::vector<int> none(t.num_links(), 0);
  plan::set_plan_capacities(lp, t, none);
  obs::Counter& refactorizations = obs::counter("lp.refactorizations");
  auto refactors_of_warm_solve = [&](plan::ScenarioLp probe) {
    lp::SimplexOptions warm;
    warm.warm_start = &probe.basis;
    const long before = refactorizations.value();
    const lp::Solution repaired = lp::solve(probe.model, warm, &probe.factor);
    EXPECT_EQ(repaired.start_path, lp::StartPath::kDualRepair);
    return refactorizations.value() - before;
  };
  plan::ScenarioLp nothing_kept = lp;
  nothing_kept.factor = {};
  const long reused = refactors_of_warm_solve(lp);
  ASSERT_GE(reused, 1);
  ASSERT_EQ(reused, refactors_of_warm_solve(nothing_kept) - 1);

  FaultInjector::instance().arm("lp.refactor", FaultSpec{0.0, 1});
  EXPECT_THROW(plan::solve_scenario(lp, {}, true), InjectedFault);
  FaultInjector::instance().disarm_all();
  EXPECT_TRUE(lp.factor.basis.empty());
  EXPECT_TRUE(lp.factor.lu.diag.empty());

  // The next solve equals one on a fresh model warm-started from the
  // same basis with nothing kept.
  plan::ScenarioLp fresh = plan::build_scenario_lp(t, plan::kHealthyScenario, true);
  plan::set_plan_capacities(fresh, t, none);
  fresh.basis = lp.basis;
  const plan::ScenarioCheck after = plan::solve_scenario(lp, {}, true);
  const plan::ScenarioCheck want = plan::solve_scenario(fresh, {}, true);
  EXPECT_EQ(after.verdict, want.verdict);
  EXPECT_EQ(after.unserved_gbps, want.unserved_gbps);
  EXPECT_EQ(after.lp_iterations, want.lp_iterations);
  EXPECT_EQ(lp.basis.statuses, fresh.basis.statuses);
  EXPECT_EQ(lp.factor.basis, fresh.factor.basis);
}

TEST_F(FaultTest, LpRefactorFaultInAnEnvStepThrowsScenarioError) {
  if (!NP_FAULTS_ENABLED) GTEST_SKIP() << "built without NEUROPLAN_FAULTS";
  const topo::Topology t = topo::make_preset('A');
  rl::EnvConfig config;
  config.max_units_per_step = 4;
  // Two envs take the same actions; only `env` sees the fault.
  rl::PlanningEnv env(t, config);
  rl::PlanningEnv twin(t, config);
  auto first_valid_action = [](const rl::PlanningEnv& e) {
    const std::vector<std::uint8_t> mask = e.action_mask();
    for (std::size_t a = 0; a < mask.size(); ++a) {
      if (mask[a]) return static_cast<int>(a);
    }
    return -1;
  };
  const int action = first_valid_action(env);
  ASSERT_GE(action, 0);
  ASSERT_FALSE(env.step(action).done);
  ASSERT_FALSE(twin.step(action).done);
  plan::PlanEvaluator reference(t, plan::EvaluatorMode::kSourceAggregation);
  const int failed = reference.check(env.total_units()).violated_scenario;
  ASSERT_GE(failed, 0);

  // The next step dominates the first, so its check resumes at the
  // scenario the first failed; that solve's first refactorization dies.
  FaultInjector::instance().arm("lp.refactor", FaultSpec{0.0, 1});
  try {
    (void)env.step(action);
    ADD_FAILURE() << "the injected fault did not surface";
  } catch (const plan::ScenarioError& e) {
    EXPECT_EQ(e.scenario(), failed);
    EXPECT_NE(std::string(e.what()).find("lp.refactor"), std::string::npos);
  }
  FaultInjector::instance().disarm_all();
  ASSERT_FALSE(twin.step(action).done);

  // The following step starts at that scenario on a fresh model: no
  // scenario it solves has a basis to warm-start from, while the twin's
  // step warm-starts the scenario its previous check failed.
  obs::Counter& warm_hits = obs::counter("plan.warm_start_hits");
  obs::Counter& warm_misses = obs::counter("plan.warm_start_misses");
  auto warm_attempts = [&] { return warm_hits.value() + warm_misses.value(); };
  const int next = first_valid_action(env);
  ASSERT_EQ(next, first_valid_action(twin));
  long before = warm_attempts();
  const rl::StepResult got = env.step(next);
  EXPECT_EQ(warm_attempts(), before);
  before = warm_attempts();
  const rl::StepResult want = twin.step(next);
  EXPECT_GT(warm_attempts(), before);
  EXPECT_EQ(got.done, want.done);
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(env.total_units(), twin.total_units());
}

TEST_F(FaultTest, LpRefactorFaultInACheckOnceThrowsScenarioError) {
  if (!NP_FAULTS_ENABLED) GTEST_SKIP() << "built without NEUROPLAN_FAULTS";
  const topo::Topology t = topo::make_preset('A');
  const std::vector<int> units = t.initial_units();
  // A lone check builds each scenario's model for one solve; the first
  // scenario's first refactorization dies, and the error names it, as
  // in the stateful check above.
  FaultInjector::instance().arm("lp.refactor", FaultSpec{0.0, 1});
  try {
    (void)plan::check_once(t, units);
    ADD_FAILURE() << "the injected fault did not surface";
  } catch (const plan::ScenarioError& e) {
    EXPECT_EQ(e.scenario(), plan::kHealthyScenario);
    EXPECT_NE(std::string(e.what()).find("lp.refactor"), std::string::npos);
  }
  FaultInjector::instance().disarm_all();
  EXPECT_NO_THROW((void)plan::check_once(t, units));
}

TEST_F(FaultTest, RolloutStepFaultAbortsEpochAndTrainerRecovers) {
  if (!NP_FAULTS_ENABLED) GTEST_SKIP() << "built without NEUROPLAN_FAULTS";
  const topo::Topology t = topo::make_preset('A');
  rl::TrainConfig config;
  config.env.max_units_per_step = 4;
  config.env.max_trajectory_steps = 100;
  config.network.gcn_layers = 2;
  config.network.gcn_hidden = 8;
  config.network.mlp_hidden = {16};
  config.epochs = 1;
  config.steps_per_epoch = 64;
  config.chunk_steps = 32;
  config.seed = 5;
  rl::A2cTrainer trainer(t, config);
  FaultInjector::instance().arm("rollout.step", FaultSpec{0.0, 7});
  EXPECT_THROW(trainer.run_epoch(), InjectedFault);
  FaultInjector::instance().disarm_all();
  const rl::EpochStats stats = trainer.run_epoch();
  EXPECT_EQ(stats.steps, config.steps_per_epoch);
}

TEST_F(FaultTest, OwnedRolloutStepFaultPropagatesAndWorkersRecover) {
  if (!NP_FAULTS_ENABLED) GTEST_SKIP() << "built without NEUROPLAN_FAULTS";
  const topo::Topology t = topo::make_preset('A');
  rl::EnvConfig env_config;
  env_config.max_units_per_step = 4;
  env_config.max_trajectory_steps = 100;
  nn::NetworkConfig net_config;
  net_config.gcn_layers = 2;
  net_config.gcn_hidden = 8;
  net_config.mlp_hidden = {16};
  Rng init(5);
  nn::ActorCritic network(net_config, init);
  rl::RolloutWorkers workers(t, env_config, network, /*workers=*/2, /*seed=*/5);

  constexpr int kQuota = 12;  // per worker
  FaultInjector::instance().arm("rollout.step", FaultSpec{0.0, 7});
  EXPECT_THROW(workers.collect(2 * kQuota), InjectedFault);
  EXPECT_EQ(FaultInjector::instance().triggered("rollout.step"), 1);
  if (ThreadPool::hardware_threads() >= 2) {
    // The workers ran concurrently and nothing cancels the sibling, so
    // collect() threw only once the other worker had stepped its whole
    // quota (the faulting worker stepped at least once).
    EXPECT_GE(FaultInjector::instance().calls("rollout.step"), kQuota + 1);
  }
  FaultInjector::instance().disarm_all();

  const std::vector<rl::WorkerRollout> out = workers.collect(2 * kQuota);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].records.size(), static_cast<std::size_t>(kQuota));
  EXPECT_EQ(out[1].records.size(), static_cast<std::size_t>(kQuota));
}

}  // namespace
}  // namespace np::util
