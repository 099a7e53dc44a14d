#include "core/lazy_solve.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "plan/evaluator.hpp"
#include "util/deadline.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace np::core {

LazySolveResult lazy_solve(const topo::Topology& topology,
                           plan::FormulationOptions base,
                           const LazySolveConfig& config) {
  Stopwatch watch;
  const util::Deadline total =
      util::Deadline::after_seconds(config.total_time_limit_seconds);
  LazySolveResult result;
  plan::PlanEvaluator evaluator(topology);

  auto check_full = [&](const std::vector<int>& added) {
    return evaluator.check(topology.total_units(added));
  };

  // Best plan known to satisfy EVERY scenario; seeded with the caller's
  // plan when provided. Returned on any exit path, so resource limits
  // degrade quality instead of dropping feasibility.
  bool have_best = false;
  std::vector<int> best_added;
  double best_cost = 0.0;
  if (!config.seed_added_units.empty()) {
    if (config.seed_added_units.size() !=
        static_cast<std::size_t>(topology.num_links())) {
      throw std::invalid_argument("lazy_solve: seed plan size mismatch");
    }
    if (check_full(config.seed_added_units).feasible) {
      have_best = true;
      best_added = config.seed_added_units;
      best_cost = topology.plan_cost(best_added);
    } else {
      log_warn("lazy_solve: seed plan is not feasible; ignored");
    }
  }

  std::set<int> selected;
  for (int k = 0; k < std::min(config.initial_failures, topology.num_failures());
       ++k) {
    selected.insert(k);
  }
  for (int k : config.initial_scenario_set) {
    if (k < 0 || k >= topology.num_failures()) {
      throw std::invalid_argument("lazy_solve: initial scenario out of range");
    }
    selected.insert(k);
  }

  // Warm-start plan for the next round: feasible for the CURRENT
  // selected scenario set (a weaker requirement than `best_added`,
  // which must satisfy everything). Repaired forward as scenarios are
  // added, so each round starts from the previous round's good plan
  // instead of the expensive caller seed.
  std::vector<int> round_seed =
      have_best ? best_added : std::vector<int>();

  // Top up `plan` so it also survives `failure_index`, changing nothing
  // else (sound: capacity growth preserves already-satisfied scenarios).
  auto repair_for_scenario = [&](const std::vector<int>& plan, int failure_index,
                                 const util::Deadline& deadline) -> std::vector<int> {
    plan::FormulationOptions repair = base;
    repair.min_added_units = plan;
    repair.failures = std::vector<int>{failure_index};
    repair.max_total_cost = 0.0;  // the cutoff may exclude every top-up
    plan::PlanningMilp milp(topology, repair);
    milp::MilpOptions options;
    options.relative_gap = 0.05;  // any cheap top-up will do
    options.deadline = deadline;
    const milp::MilpResult solved = milp::solve(milp.model(), options);
    if (!solved.has_incumbent) return {};
    return milp.extract_added_units(solved.x);
  };

  // Finisher: turn a subset-feasible plan into an overall-feasible one
  // by repairing violated scenarios one at a time. Capacity only grows,
  // so each repaired scenario stays repaired and the loop terminates in
  // at most num_failures small MILPs. Runs when the round loop exits
  // with a promising round plan that never survived every scenario,
  // under a grace deadline of its own (docs/INTERNALS.md §3).
  auto repair_to_feasibility = [&](std::vector<int> plan, const util::Deadline& grace) {
    for (int pass = 0; pass <= topology.num_failures(); ++pass) {
      if (have_best && topology.plan_cost(plan) >= best_cost) return;  // pointless
      const plan::CheckResult check = check_full(plan);
      if (check.feasible) {
        const double cost = topology.plan_cost(plan);
        if (!have_best || cost < best_cost) {
          have_best = true;
          best_added = std::move(plan);
          best_cost = cost;
          log_debug("lazy: finisher produced overall-feasible plan, cost ", cost);
        }
        return;
      }
      if (grace.remaining_seconds() <= 0.5 || check.violated_scenario < 1) return;
      std::vector<int> repaired = repair_for_scenario(
          plan, check.violated_scenario - 1,
          util::Deadline::earliest(grace, util::Deadline::after_seconds(5.0)));
      if (repaired.empty()) return;
      plan = std::move(repaired);
    }
  };

  auto finish = [&](bool timed_out, std::string detail) {
    if (!round_seed.empty()) {
      repair_to_feasibility(round_seed,
                            util::Deadline::after_seconds(std::max(
                                20.0, 0.3 * config.total_time_limit_seconds)));
    }
    result.plan.timed_out = timed_out;
    result.plan.detail = std::move(detail);
    if (have_best) {
      result.plan.feasible = true;
      result.plan.added_units = best_added;
      result.plan.cost = best_cost;
    }
    result.scenarios_used = static_cast<int>(selected.size());
    result.binding_failures.assign(selected.begin(), selected.end());
    result.plan.seconds = watch.seconds();
    return result;
  };

  for (int round = 0; round < config.max_rounds; ++round) {
    ++result.rounds;
    base.failures = std::vector<int>(selected.begin(), selected.end());
    plan::PlanningMilp milp(topology, base);

    std::vector<double> seed;
    if (!round_seed.empty()) seed = milp.integer_start(round_seed);

    milp::MilpOptions milp_options;
    if (!seed.empty()) milp_options.integer_warm_start = &seed;
    milp_options.relative_gap = config.relative_gap;
    if (total.expired()) {
      return finish(true, "lazy: total time limit after " +
                              std::to_string(result.rounds - 1) + " rounds");
    }
    milp_options.deadline = util::Deadline::earliest(
        total, util::Deadline::after_seconds(config.time_limit_per_solve_seconds));
    const milp::MilpResult solved = milp::solve(milp.model(), milp_options);

    if (!solved.has_incumbent) {
      // The round's MILP relaxes the full problem, so an infeasible one
      // proves that no plan within the bounds and the cost cutoff
      // survives every scenario. With the best plan at or under the
      // cutoff, nothing within the bounds is cheaper than it (the best
      // plan itself may lie outside them, as a coarse seed can).
      if (solved.status == milp::MilpStatus::kInfeasible && have_best &&
          (base.max_total_cost <= 0.0 || best_cost <= base.max_total_cost)) {
        return finish(false, "lazy: kept the best known plan; round " +
                                 std::to_string(result.rounds) +
                                 " proved no cheaper plan within the bounds");
      }
      const bool timed_out = solved.status == milp::MilpStatus::kTimeLimit ||
                             solved.status == milp::MilpStatus::kNodeLimit;
      return finish(timed_out,
                    std::string("lazy: round produced no incumbent (") +
                        milp::to_string(solved.status) + ")");
    }

    const std::vector<int> added = milp.extract_added_units(solved.x);
    const plan::CheckResult check = check_full(added);

    if (check.feasible) {
      const double cost = topology.plan_cost(added);
      if (!have_best || cost < best_cost) {
        have_best = true;
        best_added = added;
        best_cost = cost;
      }
      return finish(solved.status == milp::MilpStatus::kTimeLimit,
                    std::string("lazy: ") + milp::to_string(solved.status) +
                        " after " + std::to_string(result.rounds) + " rounds / " +
                        std::to_string(selected.size()) + " failure scenarios");
    }

    const int violated_failure = check.violated_scenario - 1;  // 0 = healthy
    if (violated_failure < 0 || selected.count(violated_failure) > 0) {
      // A repeat violation can only come from a time-limited round whose
      // incumbent is not subset-optimal, or from multiplier rounding.
      return finish(false, "lazy: stalled (scenario " +
                               std::to_string(check.violated_scenario) +
                               " repeats)");
    }
    selected.insert(violated_failure);
    log_debug("lazy: adding failure scenario ", violated_failure, " (round ",
              round + 1, ")");

    // Repair the round's plan for the new scenario; the result is
    // feasible for the whole new selected set and becomes the next
    // round's warm start (and a best-plan candidate when it happens to
    // survive everything).
    const util::Deadline repair_deadline = util::Deadline::earliest(
        total, util::Deadline::after_seconds(
                   std::min(10.0, config.time_limit_per_solve_seconds / 2.0)));
    if (repair_deadline.remaining_seconds() > 0.5) {
      std::vector<int> repaired =
          repair_for_scenario(added, violated_failure, repair_deadline);
      // A repaired plan above the caller's cost cutoff would violate the
      // cutoff row next round; fall back to the overall-feasible best.
      if (!repaired.empty() && base.max_total_cost > 0.0 &&
          topology.plan_cost(repaired) > base.max_total_cost) {
        repaired = have_best ? best_added : std::vector<int>();
      }
      if (!repaired.empty()) {
        round_seed = repaired;
        const plan::CheckResult full = check_full(repaired);
        if (full.feasible) {
          const double cost = topology.plan_cost(repaired);
          if (!have_best || cost < best_cost) {
            have_best = true;
            best_added = std::move(repaired);
            best_cost = cost;
            log_debug("lazy: repair produced overall-feasible plan, cost ", cost);
          }
        }
      }
    }
  }
  return finish(false, "lazy: round limit reached");
}

}  // namespace np::core
