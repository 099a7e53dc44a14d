#include "core/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/lazy_solve.hpp"
#include "plan/evaluator.hpp"
#include "plan/formulation.hpp"
#include "topo/paths.hpp"
#include "util/deadline.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace np::core {

namespace {

/// solve_ilp's size limit (see baselines.hpp).
constexpr int kMaxIlpModelRows = 4000;

/// solve_ilp_heur's capacity-unit enlargement factor (§3.2 "enlarging
/// the capacity unit that can be added over some or all links") and
/// its failure-selection round cap.
constexpr int kHeurUnitMultiplier = 4;
constexpr int kHeurMaxRounds = 64;

}  // namespace

PlanResult solve_ilp(const topo::Topology& topology, const IlpConfig& config) {
  Stopwatch watch;
  PlanResult result;
  plan::PlanningMilp milp(topology, {});

  if (milp.model().num_rows() > kMaxIlpModelRows) {
    result.timed_out = true;
    result.seconds = watch.seconds();
    result.detail = "ilp: model too large (" +
                    std::to_string(milp.model().num_rows()) + " rows, " +
                    std::to_string(milp.model().num_variables()) +
                    " variables) for the solver budget";
    return result;
  }

  milp::MilpOptions milp_options;
  milp_options.deadline = util::Deadline::after_seconds(config.time_limit_seconds);
  milp_options.relative_gap = config.relative_gap;
  const milp::MilpResult solved = milp::solve(milp.model(), milp_options);

  result.seconds = watch.seconds();
  result.detail = std::string("ilp: ") + milp::to_string(solved.status);
  if (solved.status == milp::MilpStatus::kOptimal && solved.has_incumbent) {
    result.feasible = true;
    result.added_units = milp.extract_added_units(solved.x);
    result.cost = topology.plan_cost(result.added_units);
  } else {
    // A time/node limit with an unproven incumbent still counts as "ILP
    // could not solve the problem" for Figure 9's purposes.
    result.timed_out = solved.status == milp::MilpStatus::kTimeLimit ||
                       solved.status == milp::MilpStatus::kNodeLimit;
    if (solved.has_incumbent) {
      result.added_units = milp.extract_added_units(solved.x);
      result.cost = topology.plan_cost(result.added_units);
      result.detail += " (unproven incumbent)";
    }
  }
  return result;
}

ShortestPathSizing size_by_shortest_paths(const topo::Topology& topology) {
  ShortestPathSizing sizing;
  const int num_links = topology.num_links();
  std::vector<int> worst(num_links, 0);

  // Scenario -1 is the healthy network, then every failure.
  for (int scenario = -1; scenario < topology.num_failures(); ++scenario) {
    const topo::Failure healthy{};
    const topo::Failure& failure =
        scenario < 0 ? healthy : topology.failure(scenario);
    std::vector<bool> usable(num_links);
    for (int l = 0; l < num_links; ++l) usable[l] = !topology.link_failed(l, failure);
    std::vector<int> load(num_links, 0);
    for (int f = 0; f < topology.num_flows(); ++f) {
      const topo::Flow& flow = topology.flow(f);
      if (!topology.flow_required(flow, failure)) continue;
      const std::vector<int> path =
          topo::shortest_ip_path(topology, flow.src, flow.dst, usable);
      if (path.empty() && !sizing.disconnected_under.has_value()) {
        sizing.disconnected_under = failure.name;
      }
      const int needed = static_cast<int>(
          std::ceil(flow.demand_gbps / topology.capacity_unit_gbps() - 1e-9));
      for (int l : path) load[l] += needed;
    }
    for (int l = 0; l < num_links; ++l) worst[l] = std::max(worst[l], load[l]);
  }

  sizing.added_units.assign(num_links, 0);
  for (int l = 0; l < num_links; ++l) {
    const int initial = topology.link(l).initial_units;
    sizing.added_units[l] =
        std::min(std::max(0, worst[l] - initial), topology.link_max_units(l) - initial);
  }
  return sizing;
}

PlanResult solve_greedy(const topo::Topology& topology) {
  Stopwatch watch;
  PlanResult result;
  ShortestPathSizing sizing = size_by_shortest_paths(topology);
  if (sizing.disconnected_under.has_value()) {
    result.detail = "greedy: flow disconnected under " + *sizing.disconnected_under;
    result.seconds = watch.seconds();
    return result;  // infeasible topology for this heuristic
  }
  result.added_units = std::move(sizing.added_units);
  result.cost = topology.plan_cost(result.added_units);
  result.seconds = watch.seconds();
  result.detail = "greedy: worst-case shortest-path load";

  // Shortest-path loads can exceed spectrum or under-serve when paths
  // overlap; verify honestly.
  result.feasible =
      plan::check_once(topology, topology.total_units(result.added_units))
          .feasible;
  return result;
}

PlanResult solve_ilp_heur(const topo::Topology& topology,
                          const IlpHeurConfig& config) {
  Stopwatch watch;

  // The production-style recipe (§3.2): coarse capacity units + the
  // failure-selection loop (shared lazy generator), warm-started from a
  // known-good design ("warm-start solutions can include previously
  // known good designs") — here the greedy shortest-path plan.
  const PlanResult greedy = solve_greedy(topology);

  plan::FormulationOptions options;
  options.unit_multiplier = kHeurUnitMultiplier;
  LazySolveConfig lazy;
  lazy.initial_failures = config.initial_failures;
  lazy.max_rounds = kHeurMaxRounds;
  lazy.time_limit_per_solve_seconds = config.time_limit_per_solve_seconds;
  lazy.total_time_limit_seconds = config.time_limit_per_solve_seconds * kHeurMaxRounds;
  lazy.relative_gap = config.relative_gap;
  if (greedy.feasible) lazy.seed_added_units = greedy.added_units;
  LazySolveResult solved = lazy_solve(topology, options, lazy);
  PlanResult result = std::move(solved.plan);
  result.detail = "ilp-heur " + result.detail;
  result.seconds = watch.seconds();
  return result;
}

}  // namespace np::core
