#include "rl/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace np::rl {

namespace {

nn::NetworkConfig reconcile(const TrainConfig& config) {
  nn::NetworkConfig net = config.network;
  net.feature_dim = topo::feature_dimension(config.env.include_static_features);
  net.max_units_per_step = config.env.max_units_per_step;
  return net;
}

}  // namespace

A2cTrainer::A2cTrainer(const topo::Topology& topology, const TrainConfig& config)
    : config_(config),
      rng_(config.seed),
      env_(topology, config.env),
      network_(reconcile(config), rng_),
      actor_optimizer_(ad::AdamConfig{.learning_rate = config.actor_learning_rate}),
      critic_optimizer_(ad::AdamConfig{.learning_rate = config.critic_learning_rate}) {
  if (config.steps_per_epoch < 1 || config.epochs < 1 || config.chunk_steps < 1) {
    throw std::invalid_argument("A2cTrainer: epochs/steps/chunk must be positive");
  }
  if (config.rollout_workers < 1) {
    throw std::invalid_argument("A2cTrainer: rollout_workers must be >= 1");
  }
  // Algorithm 1 line 19/22: the actor update touches theta and theta_g,
  // the critic update theta_v and theta_g.
  actor_optimizer_.add_parameters(network_.actor_parameters());
  actor_optimizer_.add_parameters(network_.gnn_parameters());
  critic_optimizer_.add_parameters(network_.critic_parameters());
  critic_optimizer_.add_parameters(network_.gnn_parameters());
  if (config.rollout_workers == 1) {
    // Borrowed mode shares env_/rng_ with the trainer: the serial code
    // path and RNG stream of the pre-threading trainer, bit-for-bit.
    rollout_ = std::make_unique<RolloutWorkers>(env_, rng_, network_);
  } else {
    rollout_ = std::make_unique<RolloutWorkers>(
        topology, config.env, network_, config.rollout_workers, config.seed);
  }
}

EpochStats A2cTrainer::run_epoch() {
  NP_SPAN("train.epoch");
  Stopwatch watch;
  EpochStats stats;
  stats.epoch = ++epoch_counter_;
  stats.best_cost_in_epoch = kUnset;

  Stopwatch rollout_watch;
  std::vector<WorkerRollout> rollouts = rollout_->collect(config_.steps_per_epoch);
  stats.rollout_seconds = rollout_watch.seconds();

  // Merge per-worker stats in worker order (deterministic for fixed K).
  double return_sum = 0.0;
  std::size_t total_steps = 0;
  for (const WorkerRollout& r : rollouts) {
    total_steps += r.records.size();
    stats.trajectories += r.trajectories;
    stats.feasible_trajectories += r.feasible_trajectories;
    return_sum += r.return_sum;
    stats.best_cost_in_epoch = std::min(stats.best_cost_in_epoch, r.best_cost);
    if (r.best_cost < best_cost_) {
      best_cost_ = r.best_cost;
      best_added_ = r.best_added;
      log_info("rl: new best feasible plan, cost ", r.best_cost, " (epoch ",
               stats.epoch, ")");
    }
  }
  stats.steps = static_cast<int>(total_steps);

  // GAE per worker segment (each bootstraps with its own critic
  // estimate), concatenated in worker order into one epoch buffer; the
  // advantage normalization then spans the whole epoch, as before.
  std::vector<StepRecord> buffer;
  buffer.reserve(total_steps);
  std::vector<double> advantages, rewards_to_go;
  advantages.reserve(total_steps);
  rewards_to_go.reserve(total_steps);
  for (WorkerRollout& r : rollouts) {
    std::vector<double> rewards(r.records.size()), values(r.records.size());
    std::vector<bool> terminal(r.records.size());
    for (std::size_t i = 0; i < r.records.size(); ++i) {
      rewards[i] = r.records[i].reward;
      values[i] = r.records[i].value;
      terminal[i] = r.records[i].terminal;
    }
    GaeResult gae = compute_gae(rewards, values, terminal, r.last_value, config_.gae);
    advantages.insert(advantages.end(), gae.advantages.begin(), gae.advantages.end());
    rewards_to_go.insert(rewards_to_go.end(), gae.rewards_to_go.begin(),
                         gae.rewards_to_go.end());
    for (StepRecord& record : r.records) buffer.push_back(std::move(record));
  }
  normalize_advantages(advantages);

  Stopwatch update_watch;
  {
    NP_SPAN("train.update");
    for (int it = 0; it < std::max(1, config_.update_iterations); ++it) {
      update_policy(buffer, advantages);
      update_critic(buffer, rewards_to_go);
    }
  }
  const double update_seconds = update_watch.seconds();

  if (stats.trajectories > 0) stats.mean_return = return_sum / stats.trajectories;
  stats.best_cost_so_far = best_cost_;
  stats.seconds = watch.seconds();

  // Per-epoch telemetry: where the epoch's wall clock went plus the
  // learning signal, then one JSONL record per training iteration when
  // a metrics sink is configured (the registry snapshot rides along).
  {
    static obs::Counter& epochs = obs::counter("train.epochs");
    static obs::Counter& steps = obs::counter("train.steps");
    static obs::Gauge& mean_return = obs::gauge("train.mean_return");
    static obs::Gauge& best_cost = obs::gauge("train.best_cost_so_far");
    static obs::Gauge& epoch_seconds = obs::gauge("train.epoch_seconds");
    static obs::Gauge& rollout_seconds = obs::gauge("train.rollout_seconds");
    static obs::Gauge& update_seconds_gauge = obs::gauge("train.update_seconds");
    epochs.add(1);
    steps.add(stats.steps);
    mean_return.set(stats.mean_return);
    if (stats.best_cost_so_far != kUnset) best_cost.set(stats.best_cost_so_far);
    epoch_seconds.set(stats.seconds);
    rollout_seconds.set(stats.rollout_seconds);
    update_seconds_gauge.set(update_seconds);
  }
  if (obs::metrics_out_open()) {
    obs::emit_metrics_record("train_epoch", stats.epoch);
  }
  // Flight-recorder waypoint: epoch boundaries anchor a post-mortem
  // timeline ("the crash was 3 events after epoch 12 ended").
  obs::fr_record(obs::FrEventKind::kEpochBoundary, "train.epoch", stats.epoch,
                 stats.steps);
  return stats;
}

void A2cTrainer::update_policy(const std::vector<StepRecord>& buffer,
                               const std::vector<double>& advantages) {
  NP_SPAN("train.update_policy");
  actor_optimizer_.zero_grad();
  const double inv_n = 1.0 / static_cast<double>(buffer.size());
  for (std::size_t begin = 0; begin < buffer.size(); begin += config_.chunk_steps) {
    const std::size_t end =
        std::min(buffer.size(), begin + static_cast<std::size_t>(config_.chunk_steps));
    ad::Tape& tape = tape_;
    tape.clear();
    std::vector<ad::Tensor>& step_log_probs = chunk_outputs_;
    step_log_probs.clear();
    for (std::size_t i = begin; i < end; ++i) {
      step_log_probs.push_back(network_.policy_log_probs(
          tape, env_.adjacency(), buffer[i].features, buffer[i].mask));
    }
    ad::Tensor loss = tape.scalar(0.0);
    // A chunk whose every step takes the clipped branch, with no
    // entropy bonus, leaves `loss` the constant 0: there is nothing to
    // propagate, and skipping it adds the same +0.0 to Parameter::grad.
    bool has_term = false;
    for (std::size_t i = begin; i < end; ++i) {
      ad::Tensor log_probs = step_log_probs[i - begin];
      ad::Tensor logp =
          tape.pick(log_probs, 0, static_cast<std::size_t>(buffer[i].action));
      if (config_.ppo_clip > 0.0) {
        // Clipped surrogate: -min(ratio*A, clip(ratio)*A). When the
        // clipped branch is active the objective is locally constant in
        // the parameters, so the step contributes no gradient.
        ad::Tensor ratio = tape.exp(tape.sub(logp, tape.scalar(buffer[i].log_prob)));
        const double r = tape.data(ratio)[0];
        const double clipped =
            std::clamp(r, 1.0 - config_.ppo_clip, 1.0 + config_.ppo_clip);
        const double adv = advantages[i];
        if (r * adv <= clipped * adv + 1e-15) {
          loss = tape.add(loss, tape.scale(ratio, -adv * inv_n));
          has_term = true;
        }
      } else {
        // Algorithm 1's plain policy-gradient loss: -(advantage * logp).
        loss = tape.add(loss, tape.scale(logp, -advantages[i] * inv_n));
        has_term = true;
      }
      if (config_.entropy_coefficient > 0.0) {
        ad::Tensor entropy = tape.entropy_from_log_probs(log_probs);
        loss = tape.add(loss,
                        tape.scale(entropy, -config_.entropy_coefficient * inv_n));
        has_term = true;
      }
    }
    if (has_term) tape.backward(loss);  // accumulates into actor + gnn grads
  }
  actor_optimizer_.step();
}

void A2cTrainer::update_critic(const std::vector<StepRecord>& buffer,
                               const std::vector<double>& rewards_to_go) {
  NP_SPAN("train.update_critic");
  critic_optimizer_.zero_grad();
  const double inv_n = 1.0 / static_cast<double>(buffer.size());
  for (std::size_t begin = 0; begin < buffer.size(); begin += config_.chunk_steps) {
    const std::size_t end =
        std::min(buffer.size(), begin + static_cast<std::size_t>(config_.chunk_steps));
    ad::Tape& tape = tape_;
    tape.clear();
    std::vector<ad::Tensor>& step_values = chunk_outputs_;
    step_values.clear();
    for (std::size_t i = begin; i < end; ++i) {
      step_values.push_back(network_.value(tape, env_.adjacency(), buffer[i].features));
    }
    ad::Tensor loss = tape.scalar(0.0);
    for (std::size_t i = begin; i < end; ++i) {
      ad::Tensor diff = tape.sub(step_values[i - begin], tape.scalar(rewards_to_go[i]));
      loss = tape.add(loss, tape.scale(tape.square(diff), inv_n));
    }
    tape.backward(loss);
  }
  critic_optimizer_.step();
}

bool A2cTrainer::greedy_rollout() {
  env_.reset();
  bool feasible = false;
  while (!env_.done()) {
    const la::Matrix features = env_.features();
    const std::vector<std::uint8_t> mask = env_.action_mask();
    tape_.clear();
    const double* log_probs = tape_.data(
        network_.policy_log_probs(tape_, env_.adjacency(), features, mask));
    int action = -1;
    double best = -1e301;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i] && log_probs[i] > best) {
        best = log_probs[i];
        action = static_cast<int>(i);
      }
    }
    if (action < 0) break;  // dead mask
    const StepResult step = env_.step(action);
    if (step.feasible) {
      feasible = true;
      const double cost = env_.added_cost();
      if (cost < best_cost_) {
        best_cost_ = cost;
        best_added_ = env_.added_units();
        log_info("rl: greedy rollout improved best plan to ", cost);
      }
    }
  }
  env_.reset();
  return feasible;
}

std::vector<EpochStats> A2cTrainer::train() {
  std::vector<EpochStats> history;
  const bool checkpointing =
      config_.checkpoint_every > 0 && !config_.checkpoint_path.empty();
  while (epoch_counter_ < config_.epochs) {
    history.push_back(run_epoch());
    const EpochStats& stats = history.back();
    log_info("rl: epoch ", stats.epoch, " return ", stats.mean_return, " best ",
             stats.best_cost_so_far == kUnset ? -1.0 : stats.best_cost_so_far);
    bool stop = false;
    if (config_.patience > 0) {
      if (best_cost_ < patience_best_ - 1e-9) {
        patience_best_ = best_cost_;
        patience_stale_ = 0;
      } else if (has_feasible_plan() && ++patience_stale_ >= config_.patience) {
        log_info("rl: early stop after ", patience_stale_, " stale epochs");
        stop = true;
      }
    }
    // The snapshot lands after the patience update so a resumed run
    // continues from exactly the state the killed run would have had.
    if (checkpointing && (epoch_counter_ % config_.checkpoint_every == 0 ||
                          stop || epoch_counter_ >= config_.epochs)) {
      save_checkpoint(config_.checkpoint_path);
    }
    if (stop) break;
  }
  return history;
}

}  // namespace np::rl
