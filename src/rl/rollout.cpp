#include "rl/rollout.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "ad/tape.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/fault.hpp"

namespace np::rl {

namespace {

/// Episode-level reward/length stats, observed once per finished
/// trajectory. Returns are sums of (negative) cost-shaped rewards, so
/// the return buckets are symmetric around zero; lengths are positive.
void record_episode(int length, double episode_return) {
  static obs::Histogram& lengths = obs::histogram(
      "rl.episode_length", obs::exponential_buckets(1.0, 2.0, 12));
  static obs::Histogram& returns = obs::histogram(
      "rl.episode_return",
      {-1e4, -1e3, -100.0, -10.0, -1.0, 0.0, 1.0, 10.0, 100.0, 1e3, 1e4});
  lengths.observe(static_cast<double>(length));
  returns.observe(episode_return);
}

/// Rollout volume counters, bumped once per collect() call.
void record_rollout_totals(const std::vector<WorkerRollout>& rollouts) {
  long steps = 0, trajectories = 0, feasible = 0;
  for (const WorkerRollout& r : rollouts) {
    steps += static_cast<long>(r.records.size());
    trajectories += r.trajectories;
    feasible += r.feasible_trajectories;
  }
  static obs::Counter& env_steps = obs::counter("rl.env_steps");
  static obs::Counter& trajectories_counter = obs::counter("rl.trajectories");
  static obs::Counter& feasible_counter =
      obs::counter("rl.feasible_trajectories");
  env_steps.add(steps);
  trajectories_counter.add(trajectories);
  feasible_counter.add(feasible);
}

}  // namespace

int sample_from_log_probs(const la::Matrix& log_probs,
                          const std::vector<std::uint8_t>& mask, Rng& rng) {
  return sample_from_log_probs(log_probs.data(), mask, rng);
}

int sample_from_log_probs(const double* log_probs,
                          const std::vector<std::uint8_t>& mask, Rng& rng) {
  // Categorical sample over valid entries; probabilities sum to 1.
  double r = rng.uniform();
  int last_valid = -1;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (!mask[i]) continue;
    last_valid = static_cast<int>(i);
    r -= std::exp(log_probs[i]);
    if (r < 0.0) return static_cast<int>(i);
  }
  if (last_valid < 0) throw std::logic_error("sample_from_log_probs: dead mask");
  return last_valid;  // numeric slack
}

RolloutWorkers::RolloutWorkers(PlanningEnv& env, Rng& rng, nn::ActorCritic& network)
    : network_(network),
      workers_(1),
      mode_(nn::inference_mode_from_env()),
      borrowed_env_(&env),
      borrowed_rng_(&rng) {
  feature_buffers_.resize(1);
  mask_buffers_.resize(1);
}

RolloutWorkers::RolloutWorkers(const topo::Topology& topology,
                               const EnvConfig& env_config,
                               nn::ActorCritic& network, int workers,
                               unsigned seed)
    : network_(network), workers_(workers), mode_(nn::inference_mode_from_env()) {
  if (workers < 1) {
    throw std::invalid_argument("RolloutWorkers: workers must be >= 1");
  }
  feature_buffers_.resize(workers);
  mask_buffers_.resize(workers);
  envs_.reserve(workers);
  rngs_.reserve(workers);
  Rng base(seed);
  for (int w = 0; w < workers; ++w) {
    envs_.push_back(std::make_unique<PlanningEnv>(topology, env_config));
    rngs_.push_back(base.split());
  }
  // All envs share one topology, so one block-diagonal family serves
  // every round; the cache also keeps the block matrices alive at
  // stable addresses (the GAT neighbor cache keys on the address).
  adjacency_cache_ =
      std::make_unique<la::BlockDiagonalCache>(envs_.front()->adjacency());
  const int participants = std::min(workers, util::ThreadPool::hardware_threads());
  pool_ = std::make_unique<util::ThreadPool>(std::max(0, participants - 1));
}

std::vector<std::array<std::uint64_t, 4>> RolloutWorkers::rng_states() const {
  std::vector<std::array<std::uint64_t, 4>> states;
  states.reserve(rngs_.size());
  for (const Rng& rng : rngs_) states.push_back(rng.state());
  return states;
}

void RolloutWorkers::set_rng_states(
    const std::vector<std::array<std::uint64_t, 4>>& states) {
  if (states.size() != rngs_.size()) {
    throw std::runtime_error(
        "RolloutWorkers::set_rng_states: stream count mismatch (" +
        std::to_string(states.size()) + " saved, " +
        std::to_string(rngs_.size()) + " live) — resume with the same "
        "--rollout-workers the checkpoint was written with");
  }
  for (std::size_t w = 0; w < states.size(); ++w) rngs_[w].set_state(states[w]);
}

long RolloutWorkers::total_lp_iterations() const {
  if (borrowed_env_ != nullptr) return borrowed_env_->evaluator_lp_iterations();
  long total = 0;
  for (const auto& env : envs_) total += env->evaluator_lp_iterations();
  return total;
}

double RolloutWorkers::total_lp_seconds() const {
  if (borrowed_env_ != nullptr) return borrowed_env_->evaluator_lp_seconds();
  double total = 0.0;
  for (const auto& env : envs_) total += env->evaluator_lp_seconds();
  return total;
}

void RolloutWorkers::set_inference_mode(nn::InferenceMode mode) {
  mode_ = mode;
  if (mode == nn::InferenceMode::kTape) engine_.reset();
}

void RolloutWorkers::prepare_engine() {
  if (engine_ == nullptr) {
    engine_ = std::make_unique<nn::InferenceEngine>(network_);
  } else {
    // The optimizer stepped since the last epoch; re-snapshot.
    engine_->refresh();
  }
}

std::vector<WorkerRollout> RolloutWorkers::collect(int total_steps) {
  if (total_steps < 1) {
    throw std::invalid_argument("RolloutWorkers::collect: total_steps < 1");
  }
  NP_SPAN("rollout.collect");
  if (mode_ == nn::InferenceMode::kFast) prepare_engine();
  std::vector<WorkerRollout> out;
  if (borrowed_env_ != nullptr) {
    out.push_back(collect_serial(*borrowed_env_, *borrowed_rng_, total_steps));
  } else {
    out = collect_lockstep(total_steps);
  }
  record_rollout_totals(out);
  return out;
}

WorkerRollout RolloutWorkers::collect_serial(PlanningEnv& env, Rng& rng,
                                             int steps) {
  // Mirrors the original serial trainer loop operation-for-operation
  // (same tape layout, same single rng.uniform() per step) so borrowed
  // mode reproduces the pre-threading trainer bit-for-bit.
  WorkerRollout rollout;
  rollout.records.reserve(steps);
  double trajectory_return = 0.0;
  int episode_length = 0;

  la::Matrix& features = feature_buffers_[0];
  std::vector<std::uint8_t>& mask = mask_buffers_[0];

  env.reset();
  // Watchdog liveness: one beat per env step (each step is an LP-backed
  // plan evaluation, so a quiet heartbeat means a wedged solve).
  obs::HeartbeatScope heartbeat("hb.rollout_step");
  while (static_cast<int>(rollout.records.size()) < steps) {
    heartbeat.beat(static_cast<long>(rollout.records.size()));
    StepRecord record;
    env.features_into(features);
    env.action_mask_into(mask);
    record.features = features;  // records own copies; buffers stay warm
    record.mask = mask;

    {
      NP_SPAN("rollout.forward");
      if (engine_ != nullptr) {
        // Tape-free path: one shared encoder pass for policy + value,
        // bit-identical to the tape forwards below.
        const nn::InferenceEngine::Output out = engine_->forward(
            *env.adjacency(), record.features, record.mask, /*want_value=*/true);
        record.action = sample_from_log_probs(out.log_probs, record.mask, rng);
        record.log_prob = out.log_probs[record.action];
        record.value = out.value;
      } else {
        ad::Tape tape;
        ad::Tensor log_probs = network_.policy_log_probs(tape, env.adjacency(),
                                                         record.features, record.mask);
        ad::Tensor value = network_.value(tape, env.adjacency(), record.features);
        record.action = sample_from_log_probs(tape.data(log_probs), record.mask, rng);
        record.log_prob = tape.data(log_probs)[record.action];
        record.value = tape.data(value)[0];
      }
    }

    StepResult step;
    {
      NP_SPAN("rollout.env_step");
      NP_FAULT_POINT("rollout.step");
      step = env.step(record.action);
    }
    record.reward = step.reward;
    record.terminal = step.done;
    trajectory_return += step.reward;
    ++episode_length;
    rollout.records.push_back(std::move(record));

    if (step.done) {
      ++rollout.trajectories;
      rollout.return_sum += trajectory_return;
      record_episode(episode_length, trajectory_return);
      trajectory_return = 0.0;
      episode_length = 0;
      if (step.feasible) {
        ++rollout.feasible_trajectories;
        const double cost = env.added_cost();
        if (cost < rollout.best_cost) {
          rollout.best_cost = cost;
          rollout.best_added = env.added_units();
        }
      }
      env.reset();
    }
  }

  if (!rollout.records.back().terminal) {
    env.features_into(features);
    if (engine_ != nullptr) {
      rollout.last_value = engine_->value(*env.adjacency(), features);
    } else {
      ad::Tape tape;
      ad::Tensor v = network_.value(tape, env.adjacency(), features);
      rollout.last_value = tape.data(v)[0];
    }
  }
  return rollout;
}

std::vector<WorkerRollout> RolloutWorkers::collect_lockstep(int total_steps) {
  const int k = workers_;
  std::vector<int> quota(k, total_steps / k);
  for (int w = 0; w < total_steps % k; ++w) ++quota[w];

  std::vector<WorkerRollout> rollouts(k);
  std::vector<double> trajectory_return(k, 0.0);
  std::vector<int> episode_length(k, 0);
  for (int w = 0; w < k; ++w) {
    rollouts[w].records.reserve(quota[w]);
    envs_[w]->reset();
  }

  // Worker utilization: active_worker_steps / (rounds * workers) is the
  // fraction of lockstep slots doing useful work (tail rounds run with
  // fewer active workers once quotas fill up).
  static obs::Counter& rounds_counter = obs::counter("rollout.rounds");
  static obs::Counter& active_steps_counter =
      obs::counter("rollout.active_worker_steps");
  static obs::Gauge& workers_gauge = obs::gauge("rollout.workers");
  workers_gauge.set(static_cast<double>(k));

  std::vector<int> active;
  std::vector<la::Matrix>& features = feature_buffers_;
  std::vector<std::vector<std::uint8_t>>& masks = mask_buffers_;
  std::vector<StepResult> results(k);

  // Round-loop liveness on the coordinating thread; the pool workers
  // publish their own per-step heartbeats inside the step tasks.
  obs::HeartbeatScope heartbeat("hb.rollout_step");
  long round = 0;
  for (;;) {
    heartbeat.beat(round++);
    active.clear();
    for (int w = 0; w < k; ++w) {
      if (static_cast<int>(rollouts[w].records.size()) < quota[w]) active.push_back(w);
    }
    if (active.empty()) break;
    rounds_counter.add(1);
    active_steps_counter.add(static_cast<long>(active.size()));

    // One batched policy+value forward over all active workers' states.
    // Observations land in the reused per-worker buffers; the records
    // copy them so the buffers keep their capacity across rounds.
    for (int w : active) {
      envs_[w]->features_into(features[w]);
      envs_[w]->action_mask_into(masks[w]);
    }

    if (engine_ != nullptr) {
      NP_SPAN("rollout.forward");
      // Tape-free ragged batch: per-block forwards against each env's
      // own adjacency are bit-identical to the block-diagonal tape
      // forward below, with no stacking copy and no tape nodes.
      graph_inputs_.clear();
      for (int w : active) {
        graph_inputs_.push_back(nn::InferenceEngine::GraphInput{
            envs_[w]->adjacency().get(), &features[w], &masks[w]});
      }
      const nn::InferenceEngine::BatchOutput& forward = engine_->forward_ragged(
          graph_inputs_.data(), graph_inputs_.size(), /*want_values=*/true);

      // Sample in ascending worker order, each from its own RNG stream:
      // the draw sequence depends only on (seed, worker), not scheduling.
      for (std::size_t s = 0; s < active.size(); ++s) {
        const int w = active[s];
        StepRecord record;
        record.features = features[w];
        record.mask = masks[w];
        record.action =
            sample_from_log_probs(forward.log_probs[s], record.mask, rngs_[w]);
        record.log_prob = forward.log_probs[s][record.action];
        record.value = forward.values[s];
        rollouts[w].records.push_back(std::move(record));
      }
    } else {
      NP_SPAN("rollout.forward");
      std::vector<const la::Matrix*> feature_parts;
      std::vector<const std::vector<std::uint8_t>*> mask_parts;
      feature_parts.reserve(active.size());
      mask_parts.reserve(active.size());
      for (int w : active) {
        feature_parts.push_back(&features[w]);
        mask_parts.push_back(&masks[w]);
      }

      ad::Tape tape;
      const la::Matrix stacked = la::vstack(feature_parts);
      auto forward = network_.forward_batch(
          tape, adjacency_cache_->get(static_cast<int>(active.size())), stacked,
          mask_parts, /*want_values=*/true);

      // Sample in ascending worker order, each from its own RNG stream:
      // the draw sequence depends only on (seed, worker), not scheduling.
      for (std::size_t s = 0; s < active.size(); ++s) {
        const int w = active[s];
        StepRecord record;
        record.features = features[w];
        record.mask = masks[w];
        record.action =
            sample_from_log_probs(tape.data(forward.log_probs[s]), record.mask, rngs_[w]);
        record.log_prob = tape.data(forward.log_probs[s])[record.action];
        record.value = tape.data(forward.values[s])[0];
        rollouts[w].records.push_back(std::move(record));
      }
    }

    {
      // Env stepping (the LP feasibility checks dominate here) runs on the
      // pool; each task touches only its own env, results land per slot.
      NP_SPAN("rollout.env_step");
      std::vector<std::function<void()>> tasks;
      tasks.reserve(active.size());
      for (int w : active) {
        const int action = rollouts[w].records.back().action;
        tasks.push_back([this, w, action, &results] {
          obs::HeartbeatScope step_heartbeat("hb.rollout_step");
          NP_FAULT_POINT("rollout.step");
          results[w] = envs_[w]->step(action);
        });
      }
      pool_->run_all(std::move(tasks));
    }

    // Post-process in ascending worker order (stats merging is ordered).
    for (int w : active) {
      StepRecord& record = rollouts[w].records.back();
      const StepResult& step = results[w];
      record.reward = step.reward;
      record.terminal = step.done;
      trajectory_return[w] += step.reward;
      ++episode_length[w];
      if (step.done) {
        ++rollouts[w].trajectories;
        rollouts[w].return_sum += trajectory_return[w];
        record_episode(episode_length[w], trajectory_return[w]);
        trajectory_return[w] = 0.0;
        episode_length[w] = 0;
        if (step.feasible) {
          ++rollouts[w].feasible_trajectories;
          const double cost = envs_[w]->added_cost();
          if (cost < rollouts[w].best_cost) {
            rollouts[w].best_cost = cost;
            rollouts[w].best_added = envs_[w]->added_units();
          }
        }
        envs_[w]->reset();
      }
    }
  }

  // Bootstrap values for workers whose last trajectory was cut off.
  for (int w = 0; w < k; ++w) {
    if (rollouts[w].records.empty() || rollouts[w].records.back().terminal) continue;
    envs_[w]->features_into(features[w]);
    if (engine_ != nullptr) {
      rollouts[w].last_value = engine_->value(*envs_[w]->adjacency(), features[w]);
    } else {
      ad::Tape tape;
      ad::Tensor v = network_.value(tape, envs_[w]->adjacency(), features[w]);
      rollouts[w].last_value = tape.data(v)[0];
    }
  }
  return rollouts;
}

}  // namespace np::rl
