#include "plan/scenario_lp.hpp"

#include <map>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace np::plan {

namespace {

/// Commodity = one source with a list of (sink, demand) pairs.
struct Commodity {
  int source = -1;
  std::vector<std::pair<int, double>> sinks;
  double total() const {
    double t = 0.0;
    for (const auto& [dst, demand] : sinks) t += demand;
    return t;
  }
};

std::vector<Commodity> build_commodities(const topo::Topology& topology,
                                         const topo::Failure& failure,
                                         bool aggregate_sources) {
  std::vector<Commodity> commodities;
  if (aggregate_sources) {
    std::map<int, std::map<int, double>> by_source;  // src -> dst -> demand
    for (int f = 0; f < topology.num_flows(); ++f) {
      const topo::Flow& flow = topology.flow(f);
      if (!topology.flow_required(flow, failure)) continue;
      by_source[flow.src][flow.dst] += flow.demand_gbps;
    }
    for (const auto& [src, sinks] : by_source) {
      Commodity c;
      c.source = src;
      for (const auto& [dst, demand] : sinks) c.sinks.emplace_back(dst, demand);
      commodities.push_back(std::move(c));
    }
  } else {
    for (int f = 0; f < topology.num_flows(); ++f) {
      const topo::Flow& flow = topology.flow(f);
      if (!topology.flow_required(flow, failure)) continue;
      Commodity c;
      c.source = flow.src;
      c.sinks.emplace_back(flow.dst, flow.demand_gbps);
      commodities.push_back(std::move(c));
    }
  }
  return commodities;
}

}  // namespace

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kFeasible: return "feasible";
    case Verdict::kInfeasible: return "infeasible";
    case Verdict::kUnknown: return "unknown";
  }
  return "invalid";
}

ScenarioLp build_scenario_lp(const topo::Topology& topology, int scenario,
                             bool aggregate_sources) {
  if (scenario < 0 || scenario > topology.num_failures()) {
    throw std::invalid_argument("build_scenario_lp: scenario out of range");
  }
  const topo::Failure healthy{};
  const topo::Failure& failure =
      scenario == kHealthyScenario ? healthy : topology.failure(scenario - 1);

  ScenarioLp out;
  out.failure_index = scenario - 1;
  const int num_links = topology.num_links();
  out.capacity_row.assign(2 * num_links, -1);

  std::vector<bool> alive(num_links);
  for (int l = 0; l < num_links; ++l) alive[l] = !topology.link_failed(l, failure);

  const std::vector<Commodity> commodities =
      build_commodities(topology, failure, aggregate_sources);

  // Flow variables: y[c][l][dir] for alive links. dir 0 = site_a->site_b.
  // Variable layout per commodity kept in a flat map for row assembly.
  const int num_commodities = static_cast<int>(commodities.size());
  std::vector<std::vector<int>> y(num_commodities,
                                  std::vector<int>(2 * num_links, -1));
  for (int c = 0; c < num_commodities; ++c) {
    for (int l = 0; l < num_links; ++l) {
      if (!alive[l]) continue;
      for (int dir = 0; dir < 2; ++dir) {
        y[c][2 * l + dir] = out.model.add_variable(0.0, lp::kInfinity, 0.0);
      }
    }
  }

  // Elastic slack per (commodity, sink): unserved demand, minimized.
  std::vector<std::vector<int>> unserved(num_commodities);
  for (int c = 0; c < num_commodities; ++c) {
    for (const auto& [dst, demand] : commodities[c].sinks) {
      (void)dst;
      unserved[c].push_back(out.model.add_variable(0.0, demand, 1.0));
      out.total_demand += demand;
    }
  }

  // Flow conservation (Eq. 2) per commodity and site, elastic form:
  //   out - in + [at source] sum(u) - [at sink d] u_d = Traffic(c, n).
  for (int c = 0; c < num_commodities; ++c) {
    const Commodity& commodity = commodities[c];
    for (int n = 0; n < topology.num_sites(); ++n) {
      std::vector<lp::Coefficient> coeffs;
      for (int l = 0; l < num_links; ++l) {
        if (!alive[l]) continue;
        const topo::IpLink& link = topology.link(l);
        if (link.site_a == n) {
          coeffs.push_back({y[c][2 * l + 0], 1.0});   // outgoing dir 0
          coeffs.push_back({y[c][2 * l + 1], -1.0});  // incoming dir 1
        } else if (link.site_b == n) {
          coeffs.push_back({y[c][2 * l + 1], 1.0});
          coeffs.push_back({y[c][2 * l + 0], -1.0});
        }
      }
      double rhs = 0.0;
      if (n == commodity.source) {
        rhs = commodity.total();
        for (int u : unserved[c]) coeffs.push_back({u, 1.0});
      }
      for (std::size_t k = 0; k < commodity.sinks.size(); ++k) {
        if (commodity.sinks[k].first == n) {
          rhs -= commodity.sinks[k].second;
          coeffs.push_back({unserved[c][k], -1.0});
        }
      }
      if (coeffs.empty() && rhs == 0.0) continue;  // isolated, uninvolved site
      out.model.add_row(rhs, rhs, std::move(coeffs));
    }
  }

  // Link capacity (Eq. 3): one row per direction, upper bound patched by
  // set_plan_capacities. Spectrum rows are intentionally absent: the
  // action mask / plan construction already enforces Eq. 4 (§5).
  for (int l = 0; l < num_links; ++l) {
    if (!alive[l]) continue;
    for (int dir = 0; dir < 2; ++dir) {
      std::vector<lp::Coefficient> coeffs;
      for (int c = 0; c < num_commodities; ++c) {
        coeffs.push_back({y[c][2 * l + dir], 1.0});
      }
      out.capacity_row[2 * l + dir] =
          out.model.add_row(-lp::kInfinity, 0.0, std::move(coeffs));
    }
  }
  return out;
}

void set_plan_capacities(ScenarioLp& lp, const topo::Topology& topology,
                         const std::vector<int>& total_units) {
  if (total_units.size() != static_cast<std::size_t>(topology.num_links())) {
    throw std::invalid_argument("set_plan_capacities: unit vector size mismatch");
  }
  for (int l = 0; l < topology.num_links(); ++l) {
    const double capacity_gbps = total_units[l] * topology.capacity_unit_gbps();
    for (int dir = 0; dir < 2; ++dir) {
      const int row = lp.capacity_row[2 * l + dir];
      if (row >= 0) lp.model.set_row_bounds(row, -lp::kInfinity, capacity_gbps);
    }
  }
}

ScenarioCheck solve_scenario(ScenarioLp& lp, const lp::SimplexOptions& base_options,
                             bool use_warm_start) {
  NP_SPAN("plan.solve_scenario");
  static obs::Counter& scenario_solves = obs::counter("plan.scenario_solves");
  scenario_solves.add(1);
  lp::SimplexOptions options = base_options;
  options.warm_start = (use_warm_start && lp.has_basis) ? &lp.basis : nullptr;
  const bool attempted_warm = options.warm_start != nullptr;
  lp::Solution solution = lp::solve(lp.model, options);
  if (solution.status != lp::SolveStatus::kOptimal &&
      options.warm_start != nullptr && !options.deadline.expired()) {
    // The elastic LP is feasible and bounded by construction, so any
    // non-optimal verdict out of a warm solve is an artifact of the
    // stale basis; retry cold before reporting it — unless the scenario
    // deadline has already passed, in which case another solve would
    // only deepen the stall the deadline exists to bound.
    static obs::Counter& cold_retries = obs::counter("plan.cold_retries");
    cold_retries.add(1);
    options.warm_start = nullptr;
    lp::Solution retry = lp::solve(lp.model, options);
    retry.iterations += solution.iterations;
    retry.solve_seconds += solution.solve_seconds;
    retry.pricing_seconds += solution.pricing_seconds;
    solution = std::move(retry);
  }
  // Warm-start hit rate: a hit is a warm attempt that finished on the
  // warm path (primal or after dual repair), a miss is one that fell
  // back to a cold start inside the simplex or via the retry above.
  if (attempted_warm) {
    const bool hit = solution.start_path == lp::StartPath::kWarmPrimal ||
                     solution.start_path == lp::StartPath::kDualRepair;
    static obs::Counter& hits = obs::counter("plan.warm_start_hits");
    static obs::Counter& misses = obs::counter("plan.warm_start_misses");
    (hit ? hits : misses).add(1);
  }
  if (obs::detail_enabled()) {
    static obs::Histogram& solve_us = obs::histogram(
        "plan.scenario_solve_us", obs::exponential_buckets(1.0, 4.0, 12));
    solve_us.observe(solution.solve_seconds * 1e6);
  }
  ScenarioCheck check;
  check.lp_iterations = solution.iterations;
  check.solve_seconds = solution.solve_seconds;
  check.pricing_seconds = solution.pricing_seconds;
  if (solution.status != lp::SolveStatus::kOptimal) {
    // The elastic LP is feasible by construction; a non-optimal status
    // means a resource limit was hit. The verdict is kUnknown and the
    // boolean projection is infeasible-with-all-demand-unserved, so
    // every caller degrades conservatively (the env keeps adding
    // capacity, stage 2 falls back to the stage-1 plan) instead of
    // trusting a half-solved LP.
    check.feasible = false;
    check.verdict = Verdict::kUnknown;
    check.deadline_hit = solution.status == lp::SolveStatus::kTimeLimit;
    check.unserved_gbps = lp.total_demand;
    static obs::Counter& unknown_verdicts = obs::counter("plan.unknown_verdicts");
    unknown_verdicts.add(1);
    obs::fr_record(obs::FrEventKind::kVerdictDegraded, "plan.solve_scenario",
                   solution.iterations, check.deadline_hit ? 1 : 0);
    if (check.deadline_hit) {
      static obs::Counter& deadline_hits = obs::counter("plan.deadline_hits");
      deadline_hits.add(1);
      obs::fr_record(obs::FrEventKind::kDeadlineHit, "plan.deadline",
                     solution.iterations);
    }
    return check;
  }
  lp.basis = solution.basis;
  lp.has_basis = true;
  check.unserved_gbps = solution.objective;
  check.feasible = solution.objective <= 1e-6 * std::max(1.0, lp.total_demand);
  check.verdict = check.feasible ? Verdict::kFeasible : Verdict::kInfeasible;
  return check;
}

}  // namespace np::plan
