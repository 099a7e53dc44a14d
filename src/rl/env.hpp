// The network-planning RL environment (§4.1/§4.2, Figure 4).
//
// State   — the evolving topology, exposed as the transformed graph's
//           normalized adjacency (fixed) plus per-node features
//           (z-normalized current capacity, recomputed every step).
// Action  — (link, add k units), k = 1..max_units_per_step, with an
//           action mask derived from the fiber-spectrum headroom
//           (Eq. 4); only *adding* capacity is allowed (§4.2).
// Reward  — minus the cost of the newly added capacity, scaled into
//           [-1, 0]; an extra -1 penalty when the step budget runs out
//           without reaching feasibility.
// Episode — ends when the plan evaluator confirms the traffic demand
//           is satisfied under the reliability policy, when the step
//           cap is hit, or when no action remains unmasked.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "la/matrix.hpp"
#include "la/sparse.hpp"
#include "nn/actor_critic.hpp"
#include "plan/evaluator.hpp"
#include "topo/topology.hpp"
#include "topo/transform.hpp"

namespace np::rl {

struct EnvConfig {
  int max_units_per_step = 4;      ///< m (Fig. 12 sweeps {1, 4, 16})
  int max_trajectory_steps = 1024; ///< Table 2 "max length per trajectory"
  bool include_static_features = true;
};

struct StepResult {
  double reward = 0.0;
  bool done = false;
  bool feasible = false;  ///< done because the plan became feasible
  bool truncated = false; ///< done because of the step cap / dead mask
};

class PlanningEnv {
 public:
  PlanningEnv(const topo::Topology& topology, const EnvConfig& config);

  /// Start a new trajectory from the original topology (RESET of Alg. 1).
  void reset();

  // ---- observations ----
  std::shared_ptr<const la::CsrMatrix> adjacency() const {
    return transform_.normalized_adjacency;
  }
  /// Fresh feature matrix for the current capacities.
  la::Matrix features() const;
  /// features() into a reused buffer: zero allocations once the buffer
  /// has the right shape (it always does after the first call — the
  /// shape is fixed per topology). Bit-identical values.
  void features_into(la::Matrix& out) const;
  /// Mask over the n*m flattened actions: true iff adding k units to
  /// the link keeps every fiber within its spectrum (Eq. 4).
  std::vector<std::uint8_t> action_mask() const;
  /// action_mask() into a reused buffer (assign keeps capacity).
  void action_mask_into(std::vector<std::uint8_t>& out) const;
  /// True when at least one action is unmasked.
  bool has_valid_action() const;

  int num_links() const { return topology_.num_links(); }
  int num_actions() const {
    return topology_.num_links() * config_.max_units_per_step;
  }

  // ---- dynamics ----
  /// Apply a flat action id (UPDATETOPO of Alg. 1). Throws on masked or
  /// out-of-range actions and after the episode is done.
  StepResult step(int flat_action);

  // ---- bookkeeping ----
  /// Overwrite the current per-link total units (checkpoint resume).
  /// Units must be >= the initial topology's; episode progress counters
  /// are NOT touched — callers restoring a snapshot set the full state.
  void restore_units(const std::vector<int>& units);
  const std::vector<int>& total_units() const { return units_; }
  std::vector<int> added_units() const;
  /// Cost of the capacity added so far (the plan cost of this episode).
  double added_cost() const;
  int steps_taken() const { return steps_; }
  bool done() const { return done_; }
  const EnvConfig& env_config() const { return config_; }
  const topo::Topology& topology() const { return topology_; }
  /// Scale that maps one step's cost into [0, 1] for the reward.
  double reward_scale() const { return reward_scale_; }
  /// Cumulative evaluator LP iterations (efficiency accounting, Fig. 7).
  long evaluator_lp_iterations() const { return evaluator_.total_lp_iterations(); }

  /// Cumulative seconds inside lp::solve.
  double evaluator_lp_seconds() const { return evaluator_.total_lp_seconds(); }

 private:
  const topo::Topology& topology_;
  EnvConfig config_;
  topo::TransformedGraph transform_;
  /// Stateful checking (§5): the env only adds capacity within a
  /// trajectory, so each step's check skips the scenarios the
  /// trajectory already survived. The first check after reset()
  /// normally has fewer units than the last and starts over.
  plan::PlanEvaluator evaluator_;
  std::vector<int> units_;
  std::vector<int> initial_units_;
  int steps_ = 0;
  bool done_ = false;
  double reward_scale_ = 1.0;
};

}  // namespace np::rl
