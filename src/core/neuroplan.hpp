// NeuroPlan: the paper's two-stage hybrid planner (§4, Figures 2-3).
//
// Stage 1 trains the GCN actor-critic agent (np::rl) against the plan
// evaluator and takes the cheapest feasible plan it produced — the
// "First-stage" series of Figures 8-9. Stage 2 encodes that plan,
// multiplied by the relax factor alpha, as per-link maximum-capacity
// bounds in the ILP of §3.1 and solves the pruned problem to
// optimality (§4.3). Alpha is the operator's knob between optimality
// (large alpha, bigger search space) and tractability (small alpha).
#pragma once

#include <vector>

#include "core/baselines.hpp"
#include "core/planner.hpp"
#include "rl/trainer.hpp"

namespace np::core {

struct NeuroPlanConfig {
  rl::TrainConfig train;
  /// Relax factor alpha (Table 2 sweeps {1, 1.25, 1.5, 2}).
  double relax_factor = 1.5;
  /// Second-stage solver budget.
  double ilp_time_limit_seconds = 300.0;
  double ilp_relative_gap = 1e-4;
};

struct NeuroPlanResult {
  PlanResult first_stage;             ///< RL plan (Figures 8-9 "First-stage")
  PlanResult final;                   ///< after the pruned ILP
  std::vector<rl::EpochStats> history;  ///< training curve (Figures 11-12 (b))
  double train_seconds = 0.0;
  double ilp_seconds = 0.0;
};

/// Run the full two-stage pipeline on a topology. After training, one
/// deterministic rollout harvests the final policy's plan in addition
/// to the best sampled one. When RL finds no feasible plan within its
/// budget (possible at tiny epoch counts), the first stage falls back
/// to the greedy design, marked in its `detail`, so the pipeline still
/// returns a plan.
NeuroPlanResult neuroplan(const topo::Topology& topology,
                          const NeuroPlanConfig& config);

/// Stage 2 only: prune the ILP around an existing first-stage plan
/// (added units) with the given relax factor and solve it. Exposed so
/// Figure 13 can sweep alpha without retraining. `seconds` is the
/// whole call's wall time; `detail` ends with each pass's seconds,
/// "(coarse pass C s, exact pass E s)".
PlanResult second_stage(const topo::Topology& topology,
                        const std::vector<int>& first_stage_added,
                        double relax_factor, double time_limit_seconds = 300.0,
                        double relative_gap = 1e-4);

/// CPU-budget training defaults that converge on the preset topologies
/// (documented deviations from Table 2: fewer epochs, 10x learning
/// rates, PPO-clipped updates with several iterations per epoch).
rl::TrainConfig default_train_config(const topo::Topology& topology, unsigned seed = 7);

}  // namespace np::core
