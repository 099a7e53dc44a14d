#include "rl/rollout.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

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
      pool_(std::make_unique<util::ThreadPool>(0)) {
  workers_[0].env = &env;
  workers_[0].rng = &rng;
}

RolloutWorkers::RolloutWorkers(const topo::Topology& topology,
                               const EnvConfig& env_config,
                               nn::ActorCritic& network, int workers,
                               unsigned seed)
    : network_(network) {
  if (workers < 1) {
    throw std::invalid_argument("RolloutWorkers: workers must be >= 1");
  }
  envs_.reserve(workers);
  rngs_.reserve(workers);
  workers_ = std::vector<Worker>(workers);  // a Worker's tape cannot move
  Rng base(seed);
  for (int w = 0; w < workers; ++w) {
    envs_.push_back(std::make_unique<PlanningEnv>(topology, env_config));
    rngs_.push_back(base.split());
    workers_[w].env = envs_[w].get();
    workers_[w].rng = &rngs_[w];
  }
  const int participants = std::min(workers, util::ThreadPool::hardware_threads());
  pool_ = std::make_unique<util::ThreadPool>(participants - 1);
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
  long total = 0;
  for (const Worker& worker : workers_) total += worker.env->evaluator_lp_iterations();
  return total;
}

double RolloutWorkers::total_lp_seconds() const {
  double total = 0.0;
  for (const Worker& worker : workers_) total += worker.env->evaluator_lp_seconds();
  return total;
}

std::vector<WorkerRollout> RolloutWorkers::collect(int total_steps) {
  if (total_steps < 1) {
    throw std::invalid_argument("RolloutWorkers::collect: total_steps < 1");
  }
  NP_SPAN("rollout.collect");
  const int k = static_cast<int>(workers_.size());
  std::vector<WorkerRollout> out(k);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(k);
  for (int w = 0; w < k; ++w) {
    const int quota = total_steps / k + (w < total_steps % k ? 1 : 0);
    tasks.push_back([this, w, quota, &out] {
      out[w] = collect_serial(workers_[w], quota);
    });
  }
  pool_->run_all(std::move(tasks));
  record_rollout_totals(out);
  return out;
}

WorkerRollout RolloutWorkers::collect_serial(Worker& worker, int steps) {
  // Mirrors the original serial trainer loop operation-for-operation
  // (same single rng.uniform() per step) so borrowed mode reproduces
  // the pre-threading trainer bit-for-bit.
  WorkerRollout rollout;
  if (steps == 0) return rollout;
  PlanningEnv& env = *worker.env;
  rollout.records.reserve(steps);
  double trajectory_return = 0.0;
  int episode_length = 0;

  env.reset();
  // Watchdog liveness: one beat per env step (each step is an LP-backed
  // plan evaluation, so a quiet heartbeat means a wedged solve).
  obs::HeartbeatScope heartbeat("hb.rollout_step");
  while (static_cast<int>(rollout.records.size()) < steps) {
    heartbeat.beat(static_cast<long>(rollout.records.size()));
    StepRecord record;
    env.features_into(worker.features);
    env.action_mask_into(worker.mask);
    record.features = worker.features;  // records own copies; buffers stay warm
    record.mask = worker.mask;

    {
      NP_SPAN("rollout.forward");
      worker.tape.clear();
      const nn::ActorCritic::Acting out =
          network_.act(worker.tape, env.adjacency(), record.features, record.mask);
      const double* log_probs = worker.tape.data(out.log_probs);
      record.action = sample_from_log_probs(log_probs, record.mask, *worker.rng);
      record.log_prob = log_probs[record.action];
      record.value = worker.tape.data(out.value)[0];
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
    env.features_into(worker.features);
    worker.tape.clear();
    rollout.last_value = worker.tape.data(
        network_.value(worker.tape, env.adjacency(), worker.features))[0];
  }
  return rollout;
}

}  // namespace np::rl
