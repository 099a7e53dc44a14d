// Cross-layer WAN topology model (§2 and §3.1 of the paper).
//
// The optical layer is a graph of sites (nodes) and fibers; the IP
// layer is an overlay of IP links, each mapped onto a path of fibers
// (Ψ_l). Parallel IP links between the same site pair over different
// fiber paths are first-class. Traffic is a set of site-to-site flows
// with a Class of Service; failures are sets of fibers and/or sites; a
// reliability policy says which CoS must survive which failures.
//
// Capacity is counted in integer units of `capacity_unit_gbps` ("each
// IP link can only be turned up in fixed capacity unit"). The cost
// model follows Eq. 1 with the fiber cost amortized per capacity unit
// so the objective stays linear in the unit counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace np::topo {

/// An IP/optical site.
struct Site {
  std::string name;
  double x = 0.0;  ///< abstract map coordinates; used for distances
  double y = 0.0;
  int region = 0;  ///< operational/management block (used by heuristics)
};

/// An optical fiber (pair) between two sites.
struct Fiber {
  int site_a = -1;
  int site_b = -1;
  double length_km = 0.0;
  /// Maximum available spectrum S_f, in GHz.
  double spectrum_ghz = 0.0;
  /// One-time procurement + light-up cost for this fiber.
  double build_cost = 0.0;
  /// False for long-term candidate fibers that are not yet built.
  bool existing = true;
  std::string name;
};

/// An IP link riding a path of fibers.
struct IpLink {
  int site_a = -1;
  int site_b = -1;
  /// Fiber indices of the underlying path Ψ_l (order follows the path).
  std::vector<int> fiber_path;
  /// Spectrum consumed per capacity unit on each fiber of the path
  /// (φ_lf, uniform along the path), in GHz per unit.
  double spectrum_per_unit_ghz = 1.0;
  /// Capacity currently deployed, in units (C_l^min of Eq. 5; zero for
  /// long-term candidate links).
  int initial_units = 0;
  std::string name;
};

/// Class of Service of a flow. Lower values are more protected.
enum class CoS : std::uint8_t {
  kGold = 0,    ///< must be satisfied under every failure scenario
  kSilver = 1,  ///< must be satisfied when the network is healthy
};

/// A site-to-site traffic demand.
struct Flow {
  int src = -1;
  int dst = -1;
  double demand_gbps = 0.0;
  CoS cos = CoS::kGold;
};

/// A failure scenario: the listed fibers and sites go down together.
struct Failure {
  std::vector<int> fibers;
  std::vector<int> sites;
  std::string name;
};

/// Reliability policy (§4.1): which CoS classes must be satisfied under
/// failures. The healthy network must always satisfy every flow.
struct ReliabilityPolicy {
  /// Most permissive CoS (inclusive) that must survive failures;
  /// e.g. kGold -> only gold flows are checked under failures.
  CoS protected_under_failure = CoS::kGold;
};

/// Cost model (Eq. 1): IP cost per Gbps per km plus amortized fiber cost.
struct CostModel {
  double ip_cost_per_gbps_km = 1.0;
  /// Fraction of a fiber's build cost charged per GHz of spectrum used.
  /// Keeps the objective linear while charging links for the fibers
  /// underneath them (Eq. 1's second term).
  double fiber_cost_per_ghz_fraction = 1.0;
};

class Topology {
 public:
  // ---- construction ----
  int add_site(Site site);
  int add_fiber(Fiber fiber);       ///< endpoints must exist, length/spectrum > 0
  int add_ip_link(IpLink link);     ///< fiber path must connect the endpoints
  int add_flow(Flow flow);          ///< endpoints must exist and differ
  int add_failure(Failure failure); ///< referenced fibers/sites must exist

  void set_capacity_unit_gbps(double gbps);

  /// Adjust a link's existing capacity (generator / A-x variants). The
  /// new value must be within [0, link_max_units].
  void set_link_initial_units(int link, int units);
  void set_cost_model(CostModel model) { cost_model_ = model; }
  void set_reliability_policy(ReliabilityPolicy policy) { policy_ = policy; }
  void set_name(std::string name) { name_ = std::move(name); }

  // ---- accessors ----
  const std::string& name() const { return name_; }
  int num_sites() const { return static_cast<int>(sites_.size()); }
  int num_fibers() const { return static_cast<int>(fibers_.size()); }
  int num_links() const { return static_cast<int>(links_.size()); }
  int num_flows() const { return static_cast<int>(flows_.size()); }
  int num_failures() const { return static_cast<int>(failures_.size()); }

  const Site& site(int i) const { return sites_.at(i); }
  const Fiber& fiber(int i) const { return fibers_.at(i); }
  const IpLink& link(int i) const { return links_.at(i); }
  const Flow& flow(int i) const { return flows_.at(i); }
  const Failure& failure(int i) const { return failures_.at(i); }

  const std::vector<Site>& sites() const { return sites_; }
  const std::vector<Fiber>& fibers() const { return fibers_; }
  const std::vector<IpLink>& links() const { return links_; }
  const std::vector<Flow>& flows() const { return flows_; }
  const std::vector<Failure>& failures() const { return failures_; }

  double capacity_unit_gbps() const { return capacity_unit_gbps_; }
  const CostModel& cost_model() const { return cost_model_; }
  const ReliabilityPolicy& reliability_policy() const { return policy_; }

  // ---- derived quantities ----

  /// Length of an IP link = sum of its fiber lengths.
  double link_length_km(int link) const;

  /// Δ_f: IP links whose path contains fiber `f`.
  const std::vector<int>& links_over_fiber(int fiber) const;

  /// Hard cap on a link's units from the spectrum of its fibers, when
  /// the link were alone on them (per-fiber sharing is enforced by the
  /// spectrum constraint, this is just a finite upper bound for ILPs).
  int link_max_units(int link) const;

  /// Cost of one capacity unit on `link` (Eq. 1, amortized form):
  /// unit_gbps * ip_cost_per_gbps_km * length +
  /// sum over fibers of build_cost * fraction * spectrum_per_unit / S_f.
  double link_unit_cost(int link) const;

  /// Cost of a plan given per-link *added* units (size num_links()).
  double plan_cost(const std::vector<int>& added_units) const;

  /// True if `link` is down under `failure` (a path fiber failed or an
  /// endpoint site failed).
  bool link_failed(int link, const Failure& failure) const;

  /// True if `flow` must be satisfied under `failure` per the policy
  /// (its endpoints are up and its CoS is protected).
  bool flow_required(const Flow& flow, const Failure& failure) const;

  /// Spectrum used on `fiber` by per-link total unit counts.
  double fiber_spectrum_used(int fiber, const std::vector<int>& total_units) const;

  /// Max additional units on `link` before some fiber on its path would
  /// exceed its spectrum, given current total units (the action mask's
  /// ground truth, Eq. 4).
  int spectrum_headroom_units(int link, const std::vector<int>& total_units) const;

  /// Initial per-link unit vector (C^min of Eq. 5).
  std::vector<int> initial_units() const;

  /// Per-link total units of a plan of ADDED units: initial + added.
  /// Throws std::invalid_argument unless `added` has one entry per link.
  std::vector<int> total_units(const std::vector<int>& added) const;

  /// Full structural validation; throws std::invalid_argument with a
  /// message naming the offending entity.
  void validate() const;

 private:
  std::string name_ = "unnamed";
  std::vector<Site> sites_;
  std::vector<Fiber> fibers_;
  std::vector<IpLink> links_;
  std::vector<Flow> flows_;
  std::vector<Failure> failures_;
  std::vector<std::vector<int>> links_over_fiber_;  // fiber -> link indices
  double capacity_unit_gbps_ = 100.0;
  CostModel cost_model_;
  ReliabilityPolicy policy_;
};

}  // namespace np::topo
