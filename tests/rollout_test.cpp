// rl::RolloutWorkers against a differential reference: a plain serial
// acting loop on the autodiff tape, one env and one RNG stream per
// worker. Every worker's trajectory depends only on its env, its RNG
// stream and the frozen weights, so whatever runs the workers (and
// whichever forward path they act through) must reproduce this loop
// bit for bit: every action, log-prob, value, reward, terminal flag,
// bootstrap value, best plan and final RNG state.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "ad/tape.hpp"
#include "nn/actor_critic.hpp"
#include "rl/env.hpp"
#include "rl/rollout.hpp"
#include "topo/generator.hpp"
#include "topo/transform.hpp"
#include "util/rng.hpp"

namespace np::rl {
namespace {

EnvConfig short_env_config() {
  EnvConfig c;
  c.max_units_per_step = 4;
  c.max_trajectory_steps = 24;  // both feasible and truncated trajectories
  return c;
}

nn::NetworkConfig small_network(nn::GnnType type) {
  nn::NetworkConfig c;
  c.feature_dim = topo::feature_dimension(true);
  c.gnn_type = type;
  c.gcn_layers = 2;
  c.gcn_hidden = 16;
  c.mlp_hidden = {16};
  c.max_units_per_step = 4;
  return c;
}

/// The reference: one worker's share of a collect, acted through tape
/// forwards. Same loop shape as the documented rollout contract: reset
/// the env, step until the quota is filled (resetting finished
/// trajectories), then bootstrap a cut-off trajectory with the critic.
WorkerRollout tape_collect(PlanningEnv& env, Rng& rng, nn::ActorCritic& network,
                           int steps) {
  WorkerRollout out;
  double trajectory_return = 0.0;
  env.reset();
  while (static_cast<int>(out.records.size()) < steps) {
    StepRecord record;
    record.features = env.features();
    record.mask = env.action_mask();
    ad::Tape tape;
    const ad::Tensor log_probs =
        network.policy_log_probs(tape, env.adjacency(), record.features, record.mask);
    const ad::Tensor value = network.value(tape, env.adjacency(), record.features);
    record.action = sample_from_log_probs(tape.data(log_probs), record.mask, rng);
    record.log_prob = tape.data(log_probs)[record.action];
    record.value = tape.data(value)[0];
    const StepResult step = env.step(record.action);
    record.reward = step.reward;
    record.terminal = step.done;
    trajectory_return += step.reward;
    out.records.push_back(std::move(record));
    if (step.done) {
      ++out.trajectories;
      out.return_sum += trajectory_return;
      trajectory_return = 0.0;
      if (step.feasible) {
        ++out.feasible_trajectories;
        if (env.added_cost() < out.best_cost) {
          out.best_cost = env.added_cost();
          out.best_added = env.added_units();
        }
      }
      env.reset();
    }
  }
  if (!out.records.empty() && !out.records.back().terminal) {
    ad::Tape tape;
    const ad::Tensor v = network.value(tape, env.adjacency(), env.features());
    out.last_value = tape.data(v)[0];
  }
  return out;
}

/// K reference workers over owned envs, RNG streams split from
/// Rng(seed) in worker order.
struct TapeWorkers {
  std::vector<std::unique_ptr<PlanningEnv>> envs;
  std::vector<Rng> rngs;

  TapeWorkers(const topo::Topology& topology, const EnvConfig& config, int k,
              unsigned seed) {
    Rng base(seed);
    for (int w = 0; w < k; ++w) {
      envs.push_back(std::make_unique<PlanningEnv>(topology, config));
      rngs.push_back(base.split());
    }
  }

  /// Quotas: total/K each, plus one for the first total%K workers.
  std::vector<WorkerRollout> collect(nn::ActorCritic& network, int total) {
    const int k = static_cast<int>(envs.size());
    std::vector<WorkerRollout> out;
    for (int w = 0; w < k; ++w) {
      const int quota = total / k + (w < total % k ? 1 : 0);
      out.push_back(tape_collect(*envs[w], rngs[w], network, quota));
    }
    return out;
  }

  std::vector<std::array<std::uint64_t, 4>> rng_states() const {
    std::vector<std::array<std::uint64_t, 4>> states;
    for (const Rng& rng : rngs) states.push_back(rng.state());
    return states;
  }
};

void expect_identical(const std::vector<WorkerRollout>& got,
                      const std::vector<WorkerRollout>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t w = 0; w < got.size(); ++w) {
    const WorkerRollout& g = got[w];
    const WorkerRollout& r = want[w];
    ASSERT_EQ(g.records.size(), r.records.size()) << "worker " << w;
    for (std::size_t s = 0; s < g.records.size(); ++s) {
      const StepRecord& a = g.records[s];
      const StepRecord& b = r.records[s];
      ASSERT_EQ(a.action, b.action) << "worker " << w << " step " << s;
      ASSERT_EQ(a.log_prob, b.log_prob) << "worker " << w << " step " << s;
      ASSERT_EQ(a.value, b.value) << "worker " << w << " step " << s;
      ASSERT_EQ(a.reward, b.reward) << "worker " << w << " step " << s;
      ASSERT_EQ(a.terminal, b.terminal) << "worker " << w << " step " << s;
      ASSERT_EQ(a.mask, b.mask) << "worker " << w << " step " << s;
      ASSERT_EQ(la::max_abs_diff(a.features, b.features), 0.0)
          << "worker " << w << " step " << s;
    }
    EXPECT_EQ(g.last_value, r.last_value) << "worker " << w;
    EXPECT_EQ(g.trajectories, r.trajectories) << "worker " << w;
    EXPECT_EQ(g.feasible_trajectories, r.feasible_trajectories) << "worker " << w;
    EXPECT_EQ(g.return_sum, r.return_sum) << "worker " << w;
    EXPECT_EQ(g.best_cost, r.best_cost) << "worker " << w;
    EXPECT_EQ(g.best_added, r.best_added) << "worker " << w;
  }
}

/// Stand-in for an optimizer step between epochs: the next collect
/// must act with the new weights.
void nudge_weights(nn::ActorCritic& network) {
  for (ad::Parameter* p : network.all_parameters()) {
    for (double& v : p->value.flat()) v *= 1.03125;
  }
}

void check_owned_workers(nn::GnnType type, int k, int steps) {
  const topo::Topology topology = topo::make_preset('A');
  const EnvConfig env_config = short_env_config();
  Rng init(71);
  nn::ActorCritic network(small_network(type), init);

  RolloutWorkers workers(topology, env_config, network, k, /*seed=*/7);
  TapeWorkers reference(topology, env_config, k, /*seed=*/7);
  for (int epoch = 0; epoch < 2; ++epoch) {
    SCOPED_TRACE("collect " + std::to_string(epoch));
    const std::vector<WorkerRollout> got = workers.collect(steps);
    const std::vector<WorkerRollout> want = reference.collect(network, steps);
    expect_identical(got, want);
    EXPECT_EQ(workers.rng_states(), reference.rng_states());
    nudge_weights(network);
  }
}

TEST(RolloutDeterminism, OwnedGcnWorkersMatchTapeLoop) {
  check_owned_workers(nn::GnnType::kGcn, /*k=*/3, /*steps=*/91);
}

TEST(RolloutDeterminism, OwnedGatWorkersMatchTapeLoop) {
  check_owned_workers(nn::GnnType::kGat, /*k=*/2, /*steps=*/60);
}

TEST(RolloutDeterminism, BorrowedWorkerMatchesTapeLoop) {
  const topo::Topology topology = topo::make_preset('A');
  const EnvConfig env_config = short_env_config();
  Rng init(81);
  nn::ActorCritic network(small_network(nn::GnnType::kGcn), init);

  PlanningEnv env(topology, env_config);
  Rng rng(9);
  RolloutWorkers workers(env, rng, network);
  PlanningEnv reference_env(topology, env_config);
  Rng reference_rng(9);
  for (int epoch = 0; epoch < 2; ++epoch) {
    SCOPED_TRACE("collect " + std::to_string(epoch));
    const std::vector<WorkerRollout> got = workers.collect(70);
    const std::vector<WorkerRollout> want = {
        tape_collect(reference_env, reference_rng, network, 70)};
    expect_identical(got, want);
    // Borrowed mode draws from the caller's stream and owns none.
    EXPECT_EQ(rng.state(), reference_rng.state());
    EXPECT_TRUE(workers.rng_states().empty());
    nudge_weights(network);
  }
}

TEST(RolloutDeterminism, FewerStepsThanWorkersLeavesTrailingWorkersEmpty) {
  const topo::Topology topology = topo::make_preset('A');
  const EnvConfig env_config = short_env_config();
  Rng init(91);
  nn::ActorCritic network(small_network(nn::GnnType::kGcn), init);

  RolloutWorkers workers(topology, env_config, network, /*workers=*/3, /*seed=*/5);
  TapeWorkers reference(topology, env_config, 3, /*seed=*/5);
  const std::vector<std::array<std::uint64_t, 4>> before = workers.rng_states();
  const std::vector<WorkerRollout> got = workers.collect(2);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].records.size(), 1u);
  EXPECT_EQ(got[1].records.size(), 1u);
  EXPECT_TRUE(got[2].records.empty());
  // A worker with no quota neither steps nor draws.
  EXPECT_EQ(got[2].last_value, 0.0);
  EXPECT_EQ(got[2].trajectories, 0);
  EXPECT_EQ(got[2].best_cost, kUnsetCost);
  EXPECT_EQ(workers.rng_states()[2], before[2]);
  expect_identical(got, reference.collect(network, 2));
  EXPECT_EQ(workers.rng_states(), reference.rng_states());
}

}  // namespace
}  // namespace np::rl
