// Multi-worker rollout collection (the paper's §5 scale-out story,
// single-process rendition).
//
// RolloutWorkers fills an epoch's step budget with K independent
// workers. A worker is one PlanningEnv, one RNG stream, one ad::Tape
// and its reused observation buffers. Every worker runs the same serial
// acting loop over its own quota; the K loops run as the K tasks of one
// thread-pool round per collect(). Each step clears the worker's tape
// and records ActorCritic::act on it (one encoder pass for policy and
// value); the tape's storage is reused, and acting never calls
// backward(), so no gradient storage is ever allocated. Two modes:
//
//  * Borrowed (K = 1): the worker's env and RNG are the caller's, and
//    the pool has no threads, so the loop runs inline — the exact
//    operation sequence and RNG consumption of the original serial
//    trainer, so `rollout_workers = 1` is bit-for-bit that trainer.
//  * Owned (K >= 1): owns K envs, each with its own RNG stream split
//    deterministically from the seed in worker order.
//
// A worker's trajectory depends only on its env, its RNG stream and
// the weights. The K tapes read the network's parameters in place and
// concurrently, so the weights must stay frozen until collect()
// returns. Results then depend only on (K, seed, network weights) —
// never on thread count or scheduling — and a K-worker run is
// reproducible anywhere.
//
// The per-worker buffers are returned separately (concatenation order =
// worker index) so the trainer can bootstrap GAE per worker without
// leaking advantages across workers.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ad/tape.hpp"
#include "la/matrix.hpp"
#include "nn/actor_critic.hpp"
#include "rl/env.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace np::rl {

/// Sentinel for "no feasible plan seen" costs (compares greater than
/// any real plan cost).
inline constexpr double kUnsetCost = 1e300;

/// One environment step as stored in the epoch buffer. The update phase
/// recomputes forward passes from `features`/`mask`, so no tape state
/// needs to survive the rollout.
struct StepRecord {
  la::Matrix features;
  std::vector<std::uint8_t> mask;
  int action = 0;
  double log_prob = 0.0;  ///< behavior policy's logp of the action
  double reward = 0.0;
  double value = 0.0;
  bool terminal = false;
};

/// Categorical sample over the masked entries of a log-prob row of
/// mask.size() entries. Consumes exactly one rng.uniform() call.
int sample_from_log_probs(const double* log_probs,
                          const std::vector<std::uint8_t>& mask, Rng& rng);

/// One worker's share of an epoch.
struct WorkerRollout {
  std::vector<StepRecord> records;
  /// Critic bootstrap for a trajectory cut off by the step quota
  /// (0 when the final record is terminal).
  double last_value = 0.0;
  int trajectories = 0;
  int feasible_trajectories = 0;
  double return_sum = 0.0;  ///< sum of completed-trajectory returns
  double best_cost = kUnsetCost;  ///< cheapest feasible plan this epoch
  std::vector<int> best_added;    ///< added units of that plan
};

class RolloutWorkers {
 public:
  /// Borrowed mode: single worker sharing the caller's env and RNG.
  /// Both must outlive this object.
  RolloutWorkers(PlanningEnv& env, Rng& rng, nn::ActorCritic& network);

  /// Owned mode: `workers` independent envs over `topology` (which must
  /// outlive this object), RNG streams derived from `seed`. Requires
  /// workers >= 1; pass the borrowed constructor for seed parity with
  /// the serial trainer.
  RolloutWorkers(const topo::Topology& topology, const EnvConfig& env_config,
                 nn::ActorCritic& network, int workers, unsigned seed);

  /// Collect `total_steps` env steps split across workers (worker w
  /// takes total/K steps, +1 for the first total%K workers). Every env
  /// with a nonzero quota is reset at the start, finished trajectories
  /// reset and continue until the worker's quota is filled. Returns one
  /// rollout per worker, in worker order (empty for a zero quota). If
  /// a worker throws, the first exception is rethrown once no worker
  /// is running any more (ThreadPool::run_all).
  std::vector<WorkerRollout> collect(int total_steps);

  /// RNG states of the owned per-worker streams, worker-ordered
  /// (checkpointing). Empty in borrowed mode — the caller owns the RNG
  /// there and snapshots it directly.
  std::vector<std::array<std::uint64_t, 4>> rng_states() const;
  /// Restore per-worker streams saved by rng_states(). Throws when the
  /// count does not match the worker count (a checkpoint from a run
  /// with a different `--rollout-workers` cannot resume bit-for-bit).
  void set_rng_states(const std::vector<std::array<std::uint64_t, 4>>& states);

  /// Cumulative simplex iterations across every env this object steps
  /// (the borrowed env, or all owned envs) — the LP share of rollout
  /// work for throughput accounting.
  long total_lp_iterations() const;
  /// Matching seconds spent inside lp::solve (summed across workers, so
  /// CPU-seconds rather than wall-clock in owned mode).
  double total_lp_seconds() const;

 private:
  struct Worker {
    PlanningEnv* env = nullptr;
    Rng* rng = nullptr;
    /// Cleared before every forward; its storage stays warm.
    ad::Tape tape;
    // Observation buffers reused across steps: the env writes into
    // these (features_into/action_mask_into) and records COPY them, so
    // per-step observation building allocates nothing once warm.
    la::Matrix features;
    std::vector<std::uint8_t> mask;
  };

  /// One worker's serial acting loop over `steps` env steps.
  WorkerRollout collect_serial(Worker& worker, int steps);

  nn::ActorCritic& network_;
  std::vector<Worker> workers_;
  // Owned mode: the envs and RNG streams the workers point at.
  std::vector<std::unique_ptr<PlanningEnv>> envs_;
  std::vector<Rng> rngs_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace np::rl
