#include "plan/formulation.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "plan/scenario_lp.hpp"

namespace np::plan {

namespace {

/// `base_units` in multiplier units, rounded up.
int multiplier_units(int base_units, int multiplier) {
  return static_cast<int>(
      std::ceil(static_cast<double>(base_units) / multiplier - 1e-9));
}

}  // namespace

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
  std::vector<int> failures(topology.num_failures());
  std::iota(failures.begin(), failures.end(), 0);  // unset: every failure
  if (options.failures) failures = *options.failures;
  for (int k : failures) {
    if (k < 0 || k >= topology.num_failures()) {
      throw std::invalid_argument("PlanningMilp: failure index out of range");
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
    const int ub = multiplier_units(max_added, multiplier_);
    int lb = 0;
    if (!options.min_added_units.empty()) {
      lb = std::min(ub, multiplier_units(options.min_added_units[l], multiplier_));
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

  // ---- per-scenario flow blocks (Eq. 2, Eq. 3): healthy, then failures ----
  // Capacity rows per direction:
  //   sum_c y - unit_gbps * added_l <= initial_l * base_unit_gbps.
  CapacityTerm capacity{added_vars_, unit_gbps, std::vector<double>(num_links_)};
  for (int l = 0; l < num_links_; ++l) {
    capacity.bound_gbps[l] = initial[l] * topology.capacity_unit_gbps();
  }
  append_flow_block(model_, topology, kHealthyScenario, /*aggregate_sources=*/true,
                    /*elastic=*/false, capacity);
  for (int k : failures) {
    append_flow_block(model_, topology, k + 1, /*aggregate_sources=*/true,
                      /*elastic=*/false, capacity);
  }
}

std::vector<double> PlanningMilp::integer_start(const std::vector<int>& added) const {
  if (added.size() != static_cast<std::size_t>(num_links_)) {
    throw std::invalid_argument("integer_start: plan size mismatch");
  }
  std::vector<double> start(model_.num_variables(), 0.0);
  for (int l = 0; l < num_links_; ++l) {
    start[added_vars_[l]] = multiplier_units(added[l], multiplier_);
  }
  return start;
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
