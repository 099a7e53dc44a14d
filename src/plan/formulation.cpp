#include "plan/formulation.hpp"

#include <cmath>
#include <map>
#include <stdexcept>

namespace np::plan {

PlanningMilp::PlanningMilp(const topo::Topology& topology,
                           const FormulationOptions& options) {
  topology.validate();
  if (options.unit_multiplier < 1) {
    throw std::invalid_argument("PlanningMilp: unit_multiplier must be >= 1");
  }
  if (!options.max_added_units.empty() &&
      options.max_added_units.size() != static_cast<std::size_t>(topology.num_links())) {
    throw std::invalid_argument("PlanningMilp: max_added_units size mismatch");
  }
  if (!options.min_added_units.empty() &&
      options.min_added_units.size() != static_cast<std::size_t>(topology.num_links())) {
    throw std::invalid_argument("PlanningMilp: min_added_units size mismatch");
  }
  for (int k : options.failure_subset) {
    if (k < 0 || k >= topology.num_failures()) {
      throw std::invalid_argument("PlanningMilp: failure_subset index out of range");
    }
  }
  multiplier_ = options.unit_multiplier;
  num_links_ = topology.num_links();
  const double unit_gbps = topology.capacity_unit_gbps() * multiplier_;

  // ---- integer capacity variables (objective = Eq. 1) ----
  const std::vector<int> initial = topology.initial_units();
  added_vars_.reserve(num_links_);
  for (int l = 0; l < num_links_; ++l) {
    int max_added = topology.link_max_units(l) - initial[l];
    if (!options.max_added_units.empty()) {
      max_added = std::min(max_added, options.max_added_units[l]);
    }
    max_added = std::max(max_added, 0);
    // Round the bound UP in multiplier units; the spectrum rows below
    // still enforce the true physical cap.
    const int ub = static_cast<int>(
        std::ceil(static_cast<double>(max_added) / multiplier_ - 1e-9));
    int lb = 0;
    if (!options.min_added_units.empty()) {
      lb = std::min(ub, static_cast<int>(std::ceil(
                            static_cast<double>(options.min_added_units[l]) /
                                multiplier_ - 1e-9)));
    }
    added_vars_.push_back(
        model_.add_variable(lb, ub, topology.link_unit_cost(l) * multiplier_));
    model_.set_integer(added_vars_.back(), true);
  }

  // ---- optional objective cutoff (known-plan upper bound) ----
  if (options.max_total_cost > 0.0) {
    std::vector<lp::Coefficient> coeffs;
    for (int l = 0; l < num_links_; ++l) {
      coeffs.push_back({added_vars_[l], topology.link_unit_cost(l) * multiplier_});
    }
    model_.add_row(-lp::kInfinity, options.max_total_cost, std::move(coeffs));
  }

  // ---- spectrum constraints (Eq. 4), once, over total capacity ----
  for (int f = 0; f < topology.num_fibers(); ++f) {
    const double used_initial = topology.fiber_spectrum_used(f, initial);
    std::vector<lp::Coefficient> coeffs;
    for (int l : topology.links_over_fiber(f)) {
      coeffs.push_back({added_vars_[l],
                        topology.link(l).spectrum_per_unit_ghz * multiplier_});
    }
    if (coeffs.empty()) continue;
    model_.add_row(-lp::kInfinity, topology.fiber(f).spectrum_ghz - used_initial,
                   std::move(coeffs));
  }

  // ---- scenario list ----
  std::vector<int> scenarios;  // -1 = healthy, else failure index
  if (options.include_healthy) scenarios.push_back(-1);
  if (options.use_all_failures) {
    for (int k = 0; k < topology.num_failures(); ++k) scenarios.push_back(k);
  } else {
    for (int k : options.failure_subset) scenarios.push_back(k);
  }

  // ---- per-scenario flow variables and constraints (Eq. 2, Eq. 3) ----
  const topo::Failure healthy{};
  for (int scenario : scenarios) {
    const topo::Failure& failure =
        scenario < 0 ? healthy : topology.failure(scenario);

    std::vector<bool> alive(num_links_);
    for (int l = 0; l < num_links_; ++l) alive[l] = !topology.link_failed(l, failure);

    // Commodities (source-aggregated or per flow).
    std::map<int, std::map<int, double>> by_source;
    std::vector<std::pair<int, std::map<int, double>>> commodities;
    for (int fl = 0; fl < topology.num_flows(); ++fl) {
      const topo::Flow& flow = topology.flow(fl);
      if (!topology.flow_required(flow, failure)) continue;
      if (options.aggregate_sources) {
        by_source[flow.src][flow.dst] += flow.demand_gbps;
      } else {
        commodities.push_back({flow.src, {{flow.dst, flow.demand_gbps}}});
      }
    }
    if (options.aggregate_sources) {
      for (auto& [src, sinks] : by_source) commodities.push_back({src, sinks});
    }

    // Directed flow variables for alive links.
    std::vector<std::vector<int>> y(commodities.size(),
                                    std::vector<int>(2 * num_links_, -1));
    for (std::size_t c = 0; c < commodities.size(); ++c) {
      for (int l = 0; l < num_links_; ++l) {
        if (!alive[l]) continue;
        y[c][2 * l + 0] = model_.add_variable(0.0, lp::kInfinity, 0.0);
        y[c][2 * l + 1] = model_.add_variable(0.0, lp::kInfinity, 0.0);
      }
    }

    // Flow conservation (Eq. 2), hard equalities.
    for (std::size_t c = 0; c < commodities.size(); ++c) {
      const auto& [source, sinks] = commodities[c];
      for (int n = 0; n < topology.num_sites(); ++n) {
        std::vector<lp::Coefficient> coeffs;
        for (int l = 0; l < num_links_; ++l) {
          if (!alive[l]) continue;
          const topo::IpLink& link = topology.link(l);
          if (link.site_a == n) {
            coeffs.push_back({y[c][2 * l + 0], 1.0});
            coeffs.push_back({y[c][2 * l + 1], -1.0});
          } else if (link.site_b == n) {
            coeffs.push_back({y[c][2 * l + 1], 1.0});
            coeffs.push_back({y[c][2 * l + 0], -1.0});
          }
        }
        double rhs = 0.0;
        if (n == source) {
          for (const auto& [dst, demand] : sinks) rhs += demand;
        }
        const auto sink_it = sinks.find(n);
        if (sink_it != sinks.end()) rhs -= sink_it->second;
        if (coeffs.empty() && rhs == 0.0) continue;
        model_.add_row(rhs, rhs, std::move(coeffs));
      }
    }

    // Capacity (Eq. 3): per direction,
    //   sum_c y - unit_gbps * added_l <= initial_l * base_unit_gbps.
    for (int l = 0; l < num_links_; ++l) {
      if (!alive[l]) continue;
      for (int dir = 0; dir < 2; ++dir) {
        std::vector<lp::Coefficient> coeffs;
        for (std::size_t c = 0; c < commodities.size(); ++c) {
          coeffs.push_back({y[c][2 * l + dir], 1.0});
        }
        coeffs.push_back({added_vars_[l], -unit_gbps});
        model_.add_row(-lp::kInfinity, initial[l] * topology.capacity_unit_gbps(),
                       std::move(coeffs));
      }
    }
  }
}

std::vector<int> PlanningMilp::extract_added_units(const std::vector<double>& x) const {
  if (x.size() != static_cast<std::size_t>(model_.num_variables())) {
    throw std::invalid_argument("extract_added_units: solution size mismatch");
  }
  std::vector<int> added(num_links_);
  for (int l = 0; l < num_links_; ++l) {
    added[l] = static_cast<int>(std::llround(x[added_vars_[l]])) * multiplier_;
  }
  return added;
}

}  // namespace np::plan
