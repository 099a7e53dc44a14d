#include "topo/topology.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace np::topo {

namespace {
void require(bool condition, const std::string& message) {
  if (!condition) throw std::invalid_argument("Topology: " + message);
}
}  // namespace

int Topology::add_site(Site site) {
  sites_.push_back(std::move(site));
  return static_cast<int>(sites_.size()) - 1;
}

int Topology::add_fiber(Fiber fiber) {
  require(fiber.site_a >= 0 && fiber.site_a < num_sites(), "fiber site_a out of range");
  require(fiber.site_b >= 0 && fiber.site_b < num_sites(), "fiber site_b out of range");
  require(fiber.site_a != fiber.site_b, "fiber is a self-loop");
  require(fiber.length_km > 0.0, "fiber length must be positive");
  require(fiber.spectrum_ghz > 0.0, "fiber spectrum must be positive");
  require(fiber.build_cost >= 0.0, "fiber cost must be non-negative");
  fibers_.push_back(std::move(fiber));
  links_over_fiber_.emplace_back();
  return static_cast<int>(fibers_.size()) - 1;
}

int Topology::add_ip_link(IpLink link) {
  require(link.site_a >= 0 && link.site_a < num_sites(), "link site_a out of range");
  require(link.site_b >= 0 && link.site_b < num_sites(), "link site_b out of range");
  require(link.site_a != link.site_b, "link is a self-loop");
  require(!link.fiber_path.empty(), "link has an empty fiber path");
  require(link.spectrum_per_unit_ghz > 0.0, "link spectrum per unit must be positive");
  require(link.initial_units >= 0, "link initial units must be non-negative");
  // The fiber path must form a walk from site_a to site_b.
  int at = link.site_a;
  for (int f : link.fiber_path) {
    require(f >= 0 && f < num_fibers(), "link references unknown fiber");
    const Fiber& fb = fibers_[f];
    require(fb.site_a == at || fb.site_b == at,
            "link '" + link.name + "' fiber path is not a connected walk");
    at = fb.site_a == at ? fb.site_b : fb.site_a;
  }
  require(at == link.site_b, "link '" + link.name + "' fiber path does not reach site_b");
  const int index = static_cast<int>(links_.size());
  for (int f : link.fiber_path) links_over_fiber_[f].push_back(index);
  links_.push_back(std::move(link));
  return index;
}

int Topology::add_flow(Flow flow) {
  require(flow.src >= 0 && flow.src < num_sites(), "flow src out of range");
  require(flow.dst >= 0 && flow.dst < num_sites(), "flow dst out of range");
  require(flow.src != flow.dst, "flow src equals dst");
  require(flow.demand_gbps > 0.0, "flow demand must be positive");
  flows_.push_back(flow);
  return static_cast<int>(flows_.size()) - 1;
}

int Topology::add_failure(Failure failure) {
  for (int f : failure.fibers) {
    require(f >= 0 && f < num_fibers(), "failure references unknown fiber");
  }
  for (int s : failure.sites) {
    require(s >= 0 && s < num_sites(), "failure references unknown site");
  }
  failures_.push_back(std::move(failure));
  return static_cast<int>(failures_.size()) - 1;
}

void Topology::set_capacity_unit_gbps(double gbps) {
  require(gbps > 0.0, "capacity unit must be positive");
  capacity_unit_gbps_ = gbps;
}

void Topology::set_link_initial_units(int link, int units) {
  require(link >= 0 && link < num_links(), "set_link_initial_units: bad link");
  require(units >= 0, "set_link_initial_units: negative units");
  require(units <= link_max_units(link),
          "set_link_initial_units: exceeds spectrum cap");
  links_[link].initial_units = units;
}

double Topology::link_length_km(int link) const {
  double total = 0.0;
  for (int f : links_.at(link).fiber_path) total += fibers_[f].length_km;
  return total;
}

const std::vector<int>& Topology::links_over_fiber(int fiber) const {
  return links_over_fiber_.at(fiber);
}

int Topology::link_max_units(int link) const {
  const IpLink& l = links_.at(link);
  double cap = 1e18;
  for (int f : l.fiber_path) {
    cap = std::min(cap, fibers_[f].spectrum_ghz / l.spectrum_per_unit_ghz);
  }
  return static_cast<int>(std::floor(cap + 1e-9));
}

double Topology::link_unit_cost(int link) const {
  const IpLink& l = links_.at(link);
  double cost = capacity_unit_gbps_ * cost_model_.ip_cost_per_gbps_km * link_length_km(link);
  for (int f : l.fiber_path) {
    const Fiber& fb = fibers_[f];
    cost += fb.build_cost * cost_model_.fiber_cost_per_ghz_fraction *
            (l.spectrum_per_unit_ghz / fb.spectrum_ghz);
  }
  return cost;
}

double Topology::plan_cost(const std::vector<int>& added_units) const {
  if (added_units.size() != links_.size()) {
    throw std::invalid_argument("Topology::plan_cost: size mismatch");
  }
  double total = 0.0;
  for (int l = 0; l < num_links(); ++l) {
    if (added_units[l] < 0) {
      throw std::invalid_argument("Topology::plan_cost: negative added units");
    }
    total += added_units[l] * link_unit_cost(l);
  }
  return total;
}

bool Topology::link_failed(int link, const Failure& failure) const {
  const IpLink& l = links_.at(link);
  for (int s : failure.sites) {
    if (s == l.site_a || s == l.site_b) return true;
  }
  for (int f : failure.fibers) {
    if (std::find(l.fiber_path.begin(), l.fiber_path.end(), f) != l.fiber_path.end()) {
      return true;
    }
  }
  return false;
}

bool Topology::flow_required(const Flow& flow, const Failure& failure) const {
  for (int s : failure.sites) {
    if (s == flow.src || s == flow.dst) return false;  // endpoint down
  }
  const bool has_failed_component = !failure.fibers.empty() || !failure.sites.empty();
  if (!has_failed_component) return true;  // healthy network: everything
  return static_cast<std::uint8_t>(flow.cos) <=
         static_cast<std::uint8_t>(policy_.protected_under_failure);
}

double Topology::fiber_spectrum_used(int fiber,
                                     const std::vector<int>& total_units) const {
  if (total_units.size() != links_.size()) {
    throw std::invalid_argument("Topology::fiber_spectrum_used: size mismatch");
  }
  double used = 0.0;
  for (int l : links_over_fiber_.at(fiber)) {
    used += total_units[l] * links_[l].spectrum_per_unit_ghz;
  }
  return used;
}

int Topology::spectrum_headroom_units(int link,
                                      const std::vector<int>& total_units) const {
  const IpLink& l = links_.at(link);
  double headroom = 1e18;
  for (int f : l.fiber_path) {
    const double free_ghz = fibers_[f].spectrum_ghz - fiber_spectrum_used(f, total_units);
    headroom = std::min(headroom, free_ghz / l.spectrum_per_unit_ghz);
  }
  return std::max(0, static_cast<int>(std::floor(headroom + 1e-9)));
}

std::vector<int> Topology::initial_units() const {
  std::vector<int> units(links_.size());
  for (int l = 0; l < num_links(); ++l) units[l] = links_[l].initial_units;
  return units;
}

std::vector<int> Topology::total_units(const std::vector<int>& added) const {
  if (added.size() != links_.size()) {
    throw std::invalid_argument("total_units: plan has " + std::to_string(added.size()) +
                                " entries, topology has " +
                                std::to_string(links_.size()) + " links");
  }
  std::vector<int> units = initial_units();
  for (int l = 0; l < num_links(); ++l) units[l] += added[l];
  return units;
}

void Topology::validate() const {
  require(num_sites() > 0, "no sites");
  require(num_links() > 0, "no IP links");
  require(num_flows() > 0, "no flows");
  // Initial units must already respect the spectrum constraints.
  const std::vector<int> units = initial_units();
  for (int f = 0; f < num_fibers(); ++f) {
    const double used = fiber_spectrum_used(f, units);
    require(used <= fibers_[f].spectrum_ghz + 1e-9,
            "initial capacity oversubscribes fiber '" + fibers_[f].name + "'");
  }
  for (int l = 0; l < num_links(); ++l) {
    require(links_[l].initial_units <= link_max_units(l),
            "initial units exceed spectrum cap on link '" + links_[l].name + "'");
  }
}

}  // namespace np::topo
