// A2C trainer implementing Algorithm 1 of the paper.
//
// Per epoch: roll out trajectories with the current stochastic policy
// until the epoch step budget is filled (trajectories reset on
// feasibility or the step cap, and the last one may be cut off by the
// epoch boundary, exactly as lines 8-15 describe). Then compute
// GAE-lambda advantages (Eq. 6) and rewards-to-go, and apply two
// updates that both flow into the shared GNN: the policy-gradient loss
// to the actor parameters theta and theta_g, and the value MSE loss to
// the critic parameters theta_v and theta_g (lines 16-22).
//
// Implementation note: the rollout stores compact per-step records
// (features, mask, action, reward, value); the update phase recomputes
// each step's forward on a tape of TrainConfig::chunk_steps steps (one
// by default), so tape memory stays O(chunk) instead of O(epoch).
// Every step's parameter-leaf gradients reach Parameter::grad in step
// order whatever the chunk size, so the gradient of the epoch loss, and
// each Adam step, is the same bit for bit. Acting runs on tapes too:
// the rollout workers' own (rl/rollout.hpp), and for greedy_rollout
// the trainer's, cleared before every policy forward.
//
// Concurrency model: the trainer is single-threaded orchestration.
// Parallelism lives below it — each rollout worker owns its env (with
// that env's plan evaluator and LP caches) and RNG stream — so the
// trainer itself holds no locks and has nothing to NP_GUARDED_BY.
// Checkpoint save/load (checkpoint.cpp) likewise runs only between
// epochs, when no worker is in flight.
#pragma once

#include <memory>
#include <vector>

#include "ad/adam.hpp"
#include "nn/actor_critic.hpp"
#include "rl/env.hpp"
#include "rl/gae.hpp"
#include "rl/rollout.hpp"
#include "util/rng.hpp"

namespace np::rl {

struct TrainConfig {
  nn::NetworkConfig network;
  EnvConfig env;
  int epochs = 64;               ///< Table 2: up to 1024; scaled to CPU budget
  int steps_per_epoch = 512;     ///< Table 2 "max length per epoch"
  double actor_learning_rate = 3e-4;   ///< Table 2
  double critic_learning_rate = 1e-3;  ///< Table 2
  GaeConfig gae;                 ///< gamma 0.99, lambda 0.97 (Table 2)
  double entropy_coefficient = 0.01;  ///< exploration bonus (0 = pure Alg. 1)
  /// Gradient passes over the epoch buffer per epoch. Algorithm 1 uses
  /// 1; values > 1 trade strict on-policyness for sample efficiency —
  /// the CPU-budget substitute for the paper's 1024 GPU epochs.
  int update_iterations = 1;
  /// PPO-style clipped surrogate (epsilon). 0 keeps the plain
  /// policy-gradient loss of Algorithm 1; > 0 makes update_iterations
  /// > 1 stable (the paper implements its agent on the SpinningUp
  /// framework, which ships exactly this objective).
  double ppo_clip = 0.0;
  /// Steps recorded on one update tape before its backward(). Bounds
  /// tape memory only: results do not depend on it. At 1 a tape holds
  /// one step and stays in cache.
  int chunk_steps = 1;
  unsigned seed = 1;
  /// Stop early after this many epochs without improving the best
  /// feasible cost (0 disables).
  int patience = 0;
  /// Rollout workers K. 1 reuses the trainer's env/RNG and is
  /// bit-for-bit identical to the pre-threading serial trainer; K > 1
  /// runs K independent envs, each on its own thread (deterministic for
  /// fixed K and seed, regardless of thread count). See rl/rollout.hpp.
  int rollout_workers = 1;
  /// Crash safety: save a full-state checkpoint to checkpoint_path
  /// every this many epochs (and again on early stop and completion).
  /// 0 disables. Snapshots are written atomically, so a crash mid-save
  /// leaves the previous checkpoint intact.
  int checkpoint_every = 0;
  std::string checkpoint_path;
};

struct EpochStats {
  int epoch = 0;
  int steps = 0;
  int trajectories = 0;
  int feasible_trajectories = 0;
  double mean_return = 0.0;       ///< mean per-trajectory reward sum
  double best_cost_in_epoch = 0.0;   ///< cheapest feasible plan this epoch (inf if none)
  double best_cost_so_far = 0.0;     ///< cheapest feasible plan since start (inf if none)
  double seconds = 0.0;
  double rollout_seconds = 0.0;      ///< time spent collecting the epoch buffer
};

class A2cTrainer {
 public:
  A2cTrainer(const topo::Topology& topology, const TrainConfig& config);

  /// One epoch of Algorithm 1; returns its statistics.
  EpochStats run_epoch();

  /// Full training loop: runs until config.epochs TOTAL epochs have
  /// completed (so a trainer resumed at epoch E runs the remaining
  /// config.epochs - E), honoring patience and writing periodic
  /// checkpoints when configured. Returns the stats of the epochs run
  /// by THIS call.
  std::vector<EpochStats> train();

  /// Crash-safe full-state checkpoint: network parameters, Adam moments
  /// and bias-correction timesteps, the trainer and per-worker RNG
  /// streams, epoch counter, best-plan and patience state, and the env
  /// capacities. Written via the atomic snapshot container
  /// (ad/snapshot.hpp): temp file + fsync + rename, versioned header,
  /// checksum.
  void save_checkpoint(const std::string& path);

  /// Restore state saved by save_checkpoint. The training configuration
  /// must match the writing run (fingerprint-checked; a mismatch throws
  /// std::runtime_error) — resuming then continues the interrupted run
  /// bit-for-bit with the uninterrupted one. Call before train().
  void resume_from_checkpoint(const std::string& path);

  /// Epochs completed so far (nonzero after a resume).
  int epochs_completed() const { return epoch_counter_; }

  /// Deterministic rollout with the current policy (argmax actions).
  /// Updates the best plan when it finds a cheaper feasible one, and
  /// returns true when the rollout reached feasibility. This is how the
  /// trained agent "outputs an initial plan" for the first stage.
  bool greedy_rollout();

  bool has_feasible_plan() const { return best_cost_ < kUnset; }
  /// Added units of the cheapest feasible plan found (First-stage plan).
  const std::vector<int>& best_added_units() const { return best_added_; }
  double best_cost() const { return best_cost_; }

  nn::ActorCritic& network() { return network_; }
  PlanningEnv& env() { return env_; }
  const TrainConfig& config() const { return config_; }

 private:
  void update_policy(const std::vector<StepRecord>& buffer,
                     const std::vector<double>& advantages);
  void update_critic(const std::vector<StepRecord>& buffer,
                     const std::vector<double>& rewards_to_go);

  static constexpr double kUnset = kUnsetCost;

  TrainConfig config_;
  Rng rng_;
  PlanningEnv env_;
  nn::ActorCritic network_;
  ad::Adam actor_optimizer_;
  ad::Adam critic_optimizer_;
  std::unique_ptr<RolloutWorkers> rollout_;
  /// One tape for every update chunk of every epoch and every acting
  /// forward of greedy_rollout: its node storage
  /// grows inside the first update and is reused after that.
  ad::Tape tape_;
  std::vector<ad::Tensor> chunk_outputs_;  ///< per-step log-probs / values
  double best_cost_ = kUnset;
  std::vector<int> best_added_;
  int epoch_counter_ = 0;
  /// Early-stop state; members (not train() locals) so checkpoints can
  /// carry it across a kill/resume without perturbing the epoch at
  /// which patience would have fired.
  double patience_best_ = kUnset;
  int patience_stale_ = 0;
};

}  // namespace np::rl
