#include "core/neuroplan.hpp"

#include <cmath>
#include <stdexcept>

#include "core/lazy_solve.hpp"
#include "plan/formulation.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace np::core {

rl::TrainConfig default_train_config(const topo::Topology& topology, unsigned seed) {
  rl::TrainConfig config;
  config.seed = seed;
  // Larger capacity increments on larger problems keep trajectories
  // short (§5 "workload patterns"); thresholds follow the total demand.
  double total_demand = 0.0;
  for (int f = 0; f < topology.num_flows(); ++f) {
    total_demand += topology.flow(f).demand_gbps;
  }
  const double demand_units = total_demand / topology.capacity_unit_gbps();
  config.env.max_units_per_step = demand_units > 400 ? 16 : (demand_units > 80 ? 8 : 4);
  config.env.max_trajectory_steps = 256;
  config.network.gcn_layers = 2;
  config.network.gcn_hidden = 32;
  config.network.mlp_hidden = {64, 64};
  config.steps_per_epoch = 384;
  // CPU-budget adaptation of Table 2 (see DESIGN.md): 10x learning
  // rates, PPO-clipped multi-iteration updates, far fewer epochs.
  config.actor_learning_rate = 3e-3;
  config.critic_learning_rate = 1e-2;
  config.update_iterations = 8;
  config.ppo_clip = 0.2;
  config.entropy_coefficient = 0.01;
  config.epochs = topology.num_links() <= 20 ? 64 : 24;
  return config;
}

PlanResult second_stage(const topo::Topology& topology,
                        const std::vector<int>& first_stage_added,
                        double relax_factor, double time_limit_seconds,
                        double relative_gap) {
  if (relax_factor < 1.0) {
    throw std::invalid_argument("second_stage: relax factor must be >= 1");
  }
  if (first_stage_added.size() != static_cast<std::size_t>(topology.num_links())) {
    throw std::invalid_argument("second_stage: plan size mismatch");
  }
  Stopwatch watch;
  // Encode the first-stage plan as maximum capacity constraints,
  // relaxed by alpha (§4.3), and solve with lazy scenario generation so
  // the MILP stays tractable on the large topologies.
  plan::FormulationOptions options;
  options.max_added_units.resize(topology.num_links());
  for (int l = 0; l < topology.num_links(); ++l) {
    options.max_added_units[l] = static_cast<int>(
        std::ceil(relax_factor * first_stage_added[l] - 1e-9));
  }
  // The first-stage plan's cost is an upper bound on the optimum of the
  // pruned space; adding it as a cutoff row lets the solver discard
  // everything that is not an improvement.
  const double first_stage_cost = topology.plan_cost(first_stage_added);
  options.max_total_cost = first_stage_cost + 1e-6;

  // Coarse pass: unit multiplier 4 inside the alpha bounds. Much
  // smaller integer space, so it converges fast and its plan becomes a
  // strong incumbent for the exact pass — §4.3's "easy to incorporate
  // additional modifications to the pruned search space from other
  // heuristics" in action.
  std::vector<int> best_seed = first_stage_added;
  double best_cost = first_stage_cost;
  std::vector<int> binding_failures;
  double coarse_seconds = 0.0;
  {
    // The coarse pass is the workhorse: its rounds converge fast, so it
    // gets most of the budget and as many scenario-generation rounds as
    // fit. The exact pass afterwards only shaves the 4x granularity.
    plan::FormulationOptions coarse = options;
    coarse.unit_multiplier = 4;
    LazySolveConfig lazy;
    lazy.total_time_limit_seconds = 0.7 * time_limit_seconds;
    lazy.time_limit_per_solve_seconds =
        std::min(25.0, std::max(8.0, 0.7 * time_limit_seconds / 8.0));
    lazy.relative_gap = std::max(relative_gap, 1e-2);
    lazy.seed_added_units = first_stage_added;
    const LazySolveResult coarse_result = lazy_solve(topology, coarse, lazy);
    if (coarse_result.plan.feasible && coarse_result.plan.cost < best_cost) {
      best_seed = coarse_result.plan.added_units;
      best_cost = coarse_result.plan.cost;
    }
    binding_failures = coarse_result.binding_failures;
    coarse_seconds = coarse_result.plan.seconds;
  }

  // Exact pass at base units, seeded with the best plan so far and cut
  // off at its cost.
  options.max_total_cost = best_cost + 1e-6;
  LazySolveConfig lazy;
  lazy.total_time_limit_seconds = 0.3 * time_limit_seconds;
  lazy.time_limit_per_solve_seconds = std::max(15.0, 0.3 * time_limit_seconds / 4.0);
  lazy.relative_gap = relative_gap;
  // The seed plan is feasible for every scenario subset, but it lies
  // inside the alpha bounds only when it is the first-stage plan: the
  // coarse pass rounds each bound up to a multiple of 4 units, so its
  // plan can leave them, and then a round may find no incumbent. The
  // binding scenarios the coarse pass discovered carry over.
  lazy.seed_added_units = best_seed;
  lazy.initial_scenario_set = binding_failures;
  LazySolveResult solved = lazy_solve(topology, options, lazy);
  solved.plan.detail = "second-stage " + solved.plan.detail + " (coarse pass " +
                       fmt_double(coarse_seconds, 2) + " s, exact pass " +
                       fmt_double(solved.plan.seconds, 2) + " s)";
  solved.plan.seconds = watch.seconds();
  return solved.plan;
}

NeuroPlanResult neuroplan(const topo::Topology& topology,
                          const NeuroPlanConfig& config) {
  NeuroPlanResult result;
  Stopwatch watch;

  // ---- stage 1: RL agent learns to generate plans ----
  rl::A2cTrainer trainer(topology, config.train);
  result.history = trainer.train();
  (void)trainer.greedy_rollout();
  result.train_seconds = watch.seconds();

  if (trainer.has_feasible_plan()) {
    result.first_stage.feasible = true;
    result.first_stage.added_units = trainer.best_added_units();
    result.first_stage.cost = trainer.best_cost();
    result.first_stage.detail = "rl best plan";
  } else {
    log_warn("neuroplan: RL found no feasible plan; falling back to greedy");
    PlanResult greedy = solve_greedy(topology);
    if (greedy.feasible) {
      result.first_stage = greedy;
      result.first_stage.detail = "greedy fallback (RL found no feasible plan)";
    }
  }
  result.first_stage.seconds = result.train_seconds;
  if (!result.first_stage.feasible) {
    result.final.detail = "no first-stage plan; second stage skipped";
    return result;
  }

  // ---- stage 2: pruned ILP around the first-stage plan ----
  watch.restart();
  result.final = second_stage(topology, result.first_stage.added_units,
                              config.relax_factor, config.ilp_time_limit_seconds,
                              config.ilp_relative_gap);
  result.ilp_seconds = watch.seconds();
  if (!result.final.feasible) {
    // Alpha pruned away every solution the solver could find in budget;
    // the first-stage plan itself is always inside the pruned space, so
    // this only happens on timeouts. Fall back to the stage-1 plan.
    log_warn("neuroplan: second stage returned no plan (", result.final.detail,
             "); keeping the first-stage plan");
    PlanResult fallback = result.first_stage;
    fallback.detail = "first-stage plan (second stage: " + result.final.detail + ")";
    result.final = fallback;
  }
  return result;
}

}  // namespace np::core
