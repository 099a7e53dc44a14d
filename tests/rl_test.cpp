// RL environment semantics, GAE math, and a learning smoke test: the
// A2C agent must find feasible plans on a small topology and improve
// on random behavior.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/neuroplan.hpp"
#include "obs/metrics.hpp"
#include "rl/env.hpp"
#include "rl/gae.hpp"
#include "rl/trainer.hpp"
#include "topo/generator.hpp"

namespace np::rl {
namespace {

topo::Topology small_topology() { return topo::make_preset('A'); }

EnvConfig small_env_config() {
  EnvConfig c;
  c.max_units_per_step = 4;
  c.max_trajectory_steps = 200;
  return c;
}

// ---- GAE ----

TEST(Gae, SingleStepTerminal) {
  GaeConfig config{.gamma = 0.9, .gae_lambda = 0.8};
  GaeResult r = compute_gae({2.0}, {0.5}, {true}, /*last_value=*/99.0, config);
  // Terminal: next value is 0; delta = 2.0 - 0.5.
  EXPECT_NEAR(r.advantages[0], 1.5, 1e-12);
  EXPECT_NEAR(r.rewards_to_go[0], 2.0, 1e-12);
}

TEST(Gae, TwoStepHandComputed) {
  GaeConfig config{.gamma = 0.5, .gae_lambda = 0.5};
  // Steps: r0=1 v0=2, r1=3 v1=4 (terminal).
  GaeResult r = compute_gae({1.0, 3.0}, {2.0, 4.0}, {false, true}, 0.0, config);
  const double a1 = 3.0 - 4.0;                       // delta1, terminal
  const double d0 = 1.0 + 0.5 * 4.0 - 2.0;           // r0 + gamma*v1 - v0
  const double a0 = d0 + 0.5 * 0.5 * a1;
  EXPECT_NEAR(r.advantages[1], a1, 1e-12);
  EXPECT_NEAR(r.advantages[0], a0, 1e-12);
  EXPECT_NEAR(r.rewards_to_go[1], 3.0, 1e-12);
  EXPECT_NEAR(r.rewards_to_go[0], 1.0 + 0.5 * 3.0, 1e-12);
}

TEST(Gae, BootstrapOnCutTrajectory) {
  GaeConfig config{.gamma = 1.0, .gae_lambda = 1.0};
  GaeResult r = compute_gae({1.0}, {0.0}, {false}, /*last_value=*/10.0, config);
  EXPECT_NEAR(r.advantages[0], 11.0, 1e-12);       // r + v_next - v
  EXPECT_NEAR(r.rewards_to_go[0], 11.0, 1e-12);    // bootstrapped return
}

TEST(Gae, TerminalResetsAcrossTrajectoryBoundary) {
  GaeConfig config{.gamma = 1.0, .gae_lambda = 1.0};
  // Two one-step trajectories in one buffer.
  GaeResult r = compute_gae({5.0, 7.0}, {1.0, 2.0}, {true, true}, 0.0, config);
  EXPECT_NEAR(r.advantages[0], 4.0, 1e-12);  // no leakage from step 1
  EXPECT_NEAR(r.rewards_to_go[0], 5.0, 1e-12);
  EXPECT_NEAR(r.advantages[1], 5.0, 1e-12);
  EXPECT_NEAR(r.rewards_to_go[1], 7.0, 1e-12);
}

TEST(Gae, SizeMismatchThrows) {
  EXPECT_THROW(compute_gae({1.0}, {1.0, 2.0}, {true}, 0.0, {}),
               std::invalid_argument);
}

TEST(Gae, NormalizeAdvantages) {
  std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  normalize_advantages(a);
  double mean = 0.0, var = 0.0;
  for (double x : a) mean += x;
  mean /= 4.0;
  for (double x : a) var += (x - mean) * (x - mean);
  EXPECT_NEAR(mean, 0.0, 1e-12);
  EXPECT_NEAR(var / 4.0, 1.0, 1e-12);
  // Degenerate cases are no-ops.
  std::vector<double> single = {5.0};
  normalize_advantages(single);
  EXPECT_DOUBLE_EQ(single[0], 5.0);
  std::vector<double> constant = {2.0, 2.0};
  normalize_advantages(constant);
  EXPECT_DOUBLE_EQ(constant[0], 2.0);
}

// ---- environment ----

TEST(Env, ResetRestoresInitialState) {
  topo::Topology t = small_topology();
  PlanningEnv env(t, small_env_config());
  EXPECT_EQ(env.total_units(), t.initial_units());
  EXPECT_EQ(env.steps_taken(), 0);
  EXPECT_FALSE(env.done());
  (void)env.step(0 * 4 + 1);  // add 2 units to link 0
  EXPECT_EQ(env.steps_taken(), 1);
  env.reset();
  EXPECT_EQ(env.total_units(), t.initial_units());
  EXPECT_EQ(env.steps_taken(), 0);
}

TEST(Env, StepAppliesUnitsAndRewardsCost) {
  topo::Topology t = small_topology();
  PlanningEnv env(t, small_env_config());
  const StepResult r = env.step(env.num_actions() >= 3 ? 2 : 0);  // link 0, 3 units
  const int added = env.total_units()[0] - t.initial_units()[0];
  EXPECT_EQ(added, 3);
  EXPECT_NEAR(r.reward, -(3 * t.link_unit_cost(0)) / env.reward_scale(), 1e-12);
  EXPECT_GE(r.reward, -1.0);
  EXPECT_LT(r.reward, 0.0);
}

TEST(Env, MaskMatchesSpectrumHeadroom) {
  topo::Topology t = small_topology();
  EnvConfig config = small_env_config();
  PlanningEnv env(t, config);
  const auto mask = env.action_mask();
  ASSERT_EQ(mask.size(), static_cast<std::size_t>(env.num_actions()));
  for (int l = 0; l < t.num_links(); ++l) {
    const int headroom = t.spectrum_headroom_units(l, env.total_units());
    for (int k = 1; k <= config.max_units_per_step; ++k) {
      EXPECT_EQ(mask[l * config.max_units_per_step + (k - 1)] != 0, k <= headroom)
          << "link " << l << " k " << k;
    }
  }
}

TEST(Env, MaskedActionThrows) {
  // Saturate link 0, then adding to it must be rejected.
  topo::Topology t = small_topology();
  EnvConfig config = small_env_config();
  config.max_trajectory_steps = 100000;
  PlanningEnv env(t, config);
  std::vector<int> units = env.total_units();
  while (t.spectrum_headroom_units(0, env.total_units()) >= config.max_units_per_step &&
         !env.done()) {
    (void)env.step(0 * config.max_units_per_step + config.max_units_per_step - 1);
  }
  if (!env.done() && t.spectrum_headroom_units(0, env.total_units()) == 0) {
    EXPECT_THROW(env.step(0), std::invalid_argument);
  }
}

TEST(Env, InvalidActionsThrow) {
  topo::Topology t = small_topology();
  PlanningEnv env(t, small_env_config());
  EXPECT_THROW(env.step(-1), std::invalid_argument);
  EXPECT_THROW(env.step(env.num_actions()), std::invalid_argument);
}

TEST(Env, TimeoutTruncatesWithPenalty) {
  topo::Topology t = small_topology();
  EnvConfig config = small_env_config();
  config.max_trajectory_steps = 1;
  PlanningEnv env(t, config);
  const StepResult r = env.step(0);
  if (!r.feasible) {
    EXPECT_TRUE(r.done);
    EXPECT_TRUE(r.truncated);
    EXPECT_LE(r.reward, -1.0);  // step cost plus -1 penalty
    EXPECT_THROW(env.step(0), std::logic_error);
  }
}

TEST(Env, SaturatingEverythingReachesFeasibility) {
  topo::Topology t = small_topology();
  EnvConfig config = small_env_config();
  config.max_trajectory_steps = 100000;
  PlanningEnv env(t, config);
  bool feasible = false;
  // Round-robin adding to every link must eventually satisfy the demand
  // (the generator guarantees plannability).
  for (int round = 0; round < 100000 && !feasible && !env.done(); ++round) {
    const auto mask = env.action_mask();
    bool acted = false;
    for (int l = 0; l < t.num_links() && !feasible; ++l) {
      const int a = l * config.max_units_per_step;  // +1 unit
      if (!mask[a]) continue;
      const StepResult r = env.step(a);
      acted = true;
      feasible = r.feasible;
      if (r.done) break;
    }
    if (!acted) break;
  }
  EXPECT_TRUE(feasible);
  EXPECT_GT(env.added_cost(), 0.0);
}

TEST(Env, FeaturesTrackCapacity) {
  topo::Topology t = small_topology();
  PlanningEnv env(t, small_env_config());
  const la::Matrix before = env.features();
  (void)env.step(3);  // link 0, 4 units
  const la::Matrix after = env.features();
  EXPECT_GT(la::max_abs_diff(before, after), 0.0);
}

TEST(Env, AddedCostMatchesTopologyPlanCost) {
  topo::Topology t = small_topology();
  PlanningEnv env(t, small_env_config());
  (void)env.step(1);  // link 0, 2 units
  if (!env.done()) (void)env.step(1 * 4 + 0);  // link 1, 1 unit
  EXPECT_NEAR(env.added_cost(), t.plan_cost(env.added_units()), 1e-9);
}

// ---- trainer smoke tests ----

TrainConfig smoke_config() {
  TrainConfig c;
  c.env = small_env_config();
  c.network.gcn_layers = 2;
  c.network.gcn_hidden = 16;
  c.network.mlp_hidden = {32, 32};
  c.epochs = 6;
  c.steps_per_epoch = 192;
  c.chunk_steps = 48;
  c.seed = 3;
  return c;
}

TEST(Trainer, FindsFeasiblePlansAndImproves) {
  topo::Topology t = small_topology();
  A2cTrainer trainer(t, smoke_config());
  const std::vector<EpochStats> history = trainer.train();
  ASSERT_EQ(history.size(), 6u);
  EXPECT_TRUE(trainer.has_feasible_plan());
  // The best plan must actually be feasible per an independent evaluator.
  plan::PlanEvaluator eval(t, plan::EvaluatorMode::kSourceAggregation);
  std::vector<int> total = t.initial_units();
  const std::vector<int>& added = trainer.best_added_units();
  ASSERT_EQ(added.size(), static_cast<std::size_t>(t.num_links()));
  for (int l = 0; l < t.num_links(); ++l) total[l] += added[l];
  EXPECT_TRUE(eval.check(total).feasible);
  EXPECT_NEAR(trainer.best_cost(), t.plan_cost(added), 1e-9);
  // Training statistics are populated.
  for (const EpochStats& s : history) {
    EXPECT_GT(s.steps, 0);
    EXPECT_GT(s.trajectories, 0);
    EXPECT_GE(s.seconds, 0.0);
  }
}

TEST(Trainer, DeterministicForSeed) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.epochs = 2;
  A2cTrainer a(t, c), b(t, c);
  const auto ha = a.train();
  const auto hb = b.train();
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_DOUBLE_EQ(ha[i].mean_return, hb[i].mean_return);
    EXPECT_EQ(ha[i].trajectories, hb[i].trajectories);
  }
  EXPECT_DOUBLE_EQ(a.best_cost(), b.best_cost());
}

TEST(Trainer, PatienceStopsEarly) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.epochs = 50;
  c.patience = 2;
  A2cTrainer trainer(t, c);
  const auto history = trainer.train();
  EXPECT_LT(history.size(), 50u);  // must stop well before 50 epochs
}

TEST(Trainer, RejectsBadConfig) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.steps_per_epoch = 0;
  EXPECT_THROW(A2cTrainer(t, c), std::invalid_argument);
}

TEST(Trainer, PpoClippedUpdatesRun) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.epochs = 3;
  c.ppo_clip = 0.2;
  c.update_iterations = 4;
  A2cTrainer trainer(t, c);
  const auto history = trainer.train();
  EXPECT_EQ(history.size(), 3u);
  EXPECT_TRUE(trainer.has_feasible_plan());
}

TEST(Trainer, GreedyRolloutProducesVerifiedPlan) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.epochs = 3;
  A2cTrainer trainer(t, c);
  trainer.train();
  const bool feasible = trainer.greedy_rollout();
  if (feasible) {
    plan::PlanEvaluator eval(t, plan::EvaluatorMode::kSourceAggregation);
    std::vector<int> total = t.initial_units();
    for (int l = 0; l < t.num_links(); ++l) total[l] += trainer.best_added_units()[l];
    EXPECT_TRUE(eval.check(total).feasible);
  }
}

void expect_epochs_identical(const std::vector<EpochStats>& a,
                             const std::vector<EpochStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].epoch, b[i].epoch);
    EXPECT_EQ(a[i].steps, b[i].steps);
    EXPECT_EQ(a[i].trajectories, b[i].trajectories);
    EXPECT_EQ(a[i].feasible_trajectories, b[i].feasible_trajectories);
    EXPECT_DOUBLE_EQ(a[i].mean_return, b[i].mean_return);
    EXPECT_DOUBLE_EQ(a[i].best_cost_in_epoch, b[i].best_cost_in_epoch);
    EXPECT_DOUBLE_EQ(a[i].best_cost_so_far, b[i].best_cost_so_far);
  }
}

TEST(Trainer, SingleWorkerReproducesSerialTrainer) {
  // rollout_workers == 1 must be the seed serial trainer, bit for bit:
  // the borrowed-mode RolloutWorkers shares the trainer's env and RNG
  // and replays the exact serial operation sequence.
  topo::Topology t = small_topology();
  TrainConfig serial = smoke_config();
  serial.epochs = 2;
  TrainConfig explicit_one = serial;
  explicit_one.rollout_workers = 1;
  A2cTrainer a(t, serial), b(t, explicit_one);
  const auto ha = a.train();
  const auto hb = b.train();
  expect_epochs_identical(ha, hb);
  EXPECT_DOUBLE_EQ(a.best_cost(), b.best_cost());
}

TEST(Trainer, MultiWorkerRolloutIsReproducible) {
  // K = 4 rollouts must be a pure function of (seed, K):
  // identical stats across two runs regardless of thread scheduling.
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.epochs = 2;
  c.rollout_workers = 4;
  A2cTrainer a(t, c), b(t, c);
  const auto ha = a.train();
  const auto hb = b.train();
  expect_epochs_identical(ha, hb);
  EXPECT_DOUBLE_EQ(a.best_cost(), b.best_cost());
  // Network weights must agree bitwise as well.
  auto pa = a.network().all_parameters();
  auto pb = b.network().all_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(la::max_abs_diff(pa[i]->value, pb[i]->value), 0.0);
  }
}

TEST(Trainer, MultiWorkerFillsStepBudget) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.epochs = 1;
  c.rollout_workers = 3;
  A2cTrainer trainer(t, c);
  const EpochStats s = trainer.run_epoch();
  EXPECT_EQ(s.steps, c.steps_per_epoch);
  EXPECT_GT(s.trajectories, 0);
  EXPECT_GE(s.rollout_seconds, 0.0);
  EXPECT_LE(s.rollout_seconds, s.seconds);
}

TEST(Trainer, RejectsBadRolloutWorkers) {
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.rollout_workers = 0;
  EXPECT_THROW(A2cTrainer(t, c), std::invalid_argument);
}

// ---- chunk_steps bounds tape memory and never shapes results ----

/// The bit pattern of a double: unlike ==, it tells -0.0 from +0.0.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_bits(const la::Matrix& a, const la::Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Every epoch statistic but the timings, every parameter value and
/// both Adam moments, bit for bit.
void expect_same_training(A2cTrainer& a, const std::vector<EpochStats>& ha,
                          A2cTrainer& b, const std::vector<EpochStats>& hb) {
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha[i].epoch, hb[i].epoch);
    EXPECT_EQ(ha[i].steps, hb[i].steps);
    EXPECT_EQ(ha[i].trajectories, hb[i].trajectories);
    EXPECT_EQ(ha[i].feasible_trajectories, hb[i].feasible_trajectories);
    EXPECT_EQ(bits(ha[i].mean_return), bits(hb[i].mean_return));
    EXPECT_EQ(bits(ha[i].best_cost_in_epoch), bits(hb[i].best_cost_in_epoch));
    EXPECT_EQ(bits(ha[i].best_cost_so_far), bits(hb[i].best_cost_so_far));
  }
  EXPECT_EQ(a.best_added_units(), b.best_added_units());
  const auto pa = a.network().all_parameters();
  const auto pb = b.network().all_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(same_bits(pa[i]->value, pb[i]->value)) << pa[i]->name;
    EXPECT_TRUE(same_bits(pa[i]->adam_m, pb[i]->adam_m)) << pa[i]->name;
    EXPECT_TRUE(same_bits(pa[i]->adam_v, pb[i]->adam_v)) << pa[i]->name;
  }
}

TEST(Trainer, ChunkSizeDoesNotChangeResults) {
  // Each step's parameter-leaf gradients reach Parameter::grad in step
  // order whatever the chunk size, so one step per tape, a ragged 7 and
  // one whole-buffer tape train identically, on either encoder.
  topo::Topology t = small_topology();
  for (nn::GnnType gnn : {nn::GnnType::kGcn, nn::GnnType::kGat}) {
    SCOPED_TRACE(gnn == nn::GnnType::kGcn ? "gcn" : "gat");
    TrainConfig c = smoke_config();
    c.network.gnn_type = gnn;
    c.epochs = 2;
    c.steps_per_epoch = 96;
    c.ppo_clip = 0.2;
    c.entropy_coefficient = 0.01;
    c.update_iterations = 3;
    c.chunk_steps = 1;
    A2cTrainer one_step(t, c);
    const std::vector<EpochStats> reference = one_step.train();
    for (int chunk : {7, 96}) {
      SCOPED_TRACE("chunk_steps " + std::to_string(chunk));
      TrainConfig chunked = c;
      chunked.chunk_steps = chunk;
      A2cTrainer trainer(t, chunked);
      const std::vector<EpochStats> history = trainer.train();
      expect_same_training(one_step, reference, trainer, history);
    }
  }
}

TEST(Trainer, FullyClippedChunkWithoutEntropyBonusTrains) {
  // With PPO clipping and no entropy bonus, a step whose ratio left the
  // clip range adds no loss term, so a one-step chunk of it has a
  // constant loss. Training skips its backward and must equal a run
  // whose 96-step chunks always hold a term.
  const topo::Topology t = topo::make_preset('A', 7);
  TrainConfig c = core::default_train_config(t, 3);
  c.entropy_coefficient = 0.0;
  c.steps_per_epoch = 128;
  c.epochs = 2;
  c.chunk_steps = 1;
  obs::Counter& backwards = obs::counter("ad.backwards");
  const long before = backwards.value();
  A2cTrainer one_step(t, c);
  std::vector<EpochStats> reference;
  ASSERT_NO_THROW(reference = one_step.train());
  // Some one-step chunk had no term: fewer backwards than policy plus
  // critic steps.
  EXPECT_LT(backwards.value() - before,
            2L * c.steps_per_epoch * c.update_iterations * c.epochs);
  TrainConfig chunked = c;
  chunked.chunk_steps = 96;
  A2cTrainer trainer(t, chunked);
  const std::vector<EpochStats> history = trainer.train();
  expect_same_training(one_step, reference, trainer, history);
}

TEST(Trainer, WorksWithoutGnn) {
  // Figure 10's 0-layer ablation must run end to end.
  topo::Topology t = small_topology();
  TrainConfig c = smoke_config();
  c.network.gcn_layers = 0;
  c.epochs = 2;
  A2cTrainer trainer(t, c);
  EXPECT_NO_THROW(trainer.train());
}

}  // namespace
}  // namespace np::rl
