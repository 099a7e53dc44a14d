#include "core/decomposition.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "core/baselines.hpp"
#include "plan/evaluator.hpp"
#include "topo/paths.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace np::core {

namespace {

/// A link is regional iff both endpoints share a region.
int link_region(const topo::Topology& t, int link) {
  const topo::IpLink& l = t.link(link);
  const int ra = t.site(l.site_a).region;
  const int rb = t.site(l.site_b).region;
  return ra == rb ? ra : -1;
}

/// Build the sub-topology of one region plus index maps back to the
/// parent. Flows are the healthy-shortest-path segments that cross the
/// region; failures are the parent scenarios touching it.
struct SubProblem {
  topo::Topology topology;
  std::vector<int> parent_link;  // sub link -> parent link
  bool empty = true;
};

SubProblem build_region_subproblem(const topo::Topology& t, int region) {
  SubProblem sub;
  std::map<int, int> site_map;   // parent -> sub
  std::map<int, int> fiber_map;
  std::map<int, int> link_map;

  for (int s = 0; s < t.num_sites(); ++s) {
    if (t.site(s).region != region) continue;
    site_map[s] = sub.topology.add_site(t.site(s));
  }
  if (site_map.empty()) return sub;
  sub.topology.set_name(t.name() + "-region" + std::to_string(region));
  sub.topology.set_capacity_unit_gbps(t.capacity_unit_gbps());
  sub.topology.set_cost_model(t.cost_model());
  sub.topology.set_reliability_policy(t.reliability_policy());

  for (int f = 0; f < t.num_fibers(); ++f) {
    const topo::Fiber& fiber = t.fiber(f);
    if (!site_map.count(fiber.site_a) || !site_map.count(fiber.site_b)) continue;
    topo::Fiber copy = fiber;
    copy.site_a = site_map[fiber.site_a];
    copy.site_b = site_map[fiber.site_b];
    fiber_map[f] = sub.topology.add_fiber(std::move(copy));
  }
  for (int l = 0; l < t.num_links(); ++l) {
    if (link_region(t, l) != region) continue;
    const topo::IpLink& link = t.link(l);
    bool mappable = true;
    topo::IpLink copy = link;
    copy.site_a = site_map[link.site_a];
    copy.site_b = site_map[link.site_b];
    copy.fiber_path.clear();
    for (int f : link.fiber_path) {
      if (!fiber_map.count(f)) {
        mappable = false;  // rides an inter-region fiber: treat as inter
        break;
      }
      copy.fiber_path.push_back(fiber_map[f]);
    }
    if (!mappable) continue;
    link_map[l] = sub.topology.add_ip_link(std::move(copy));
    sub.parent_link.push_back(l);
  }
  if (sub.topology.num_links() == 0) return sub;

  // Flow segments from healthy shortest paths.
  std::map<std::pair<int, int>, double> segment_demand;
  const std::vector<bool> all(t.num_links(), true);
  for (int f = 0; f < t.num_flows(); ++f) {
    const topo::Flow& flow = t.flow(f);
    const auto path = topo::shortest_ip_path(t, flow.src, flow.dst, all);
    int at = flow.src;
    int segment_start = -1;
    auto flush = [&](int end_site) {
      if (segment_start >= 0 && segment_start != end_site &&
          site_map.count(segment_start) && site_map.count(end_site)) {
        segment_demand[{site_map[segment_start], site_map[end_site]}] +=
            flow.demand_gbps;
      }
      segment_start = -1;
    };
    for (int l : path) {
      const topo::IpLink& link = t.link(l);
      const int next = link.site_a == at ? link.site_b : link.site_a;
      const bool in_region = link_map.count(l) > 0;
      if (in_region && segment_start < 0) segment_start = at;
      if (!in_region) flush(at);
      at = next;
    }
    flush(at);
  }
  for (const auto& [pair, demand] : segment_demand) {
    sub.topology.add_flow({pair.first, pair.second, demand, topo::CoS::kGold});
  }
  if (sub.topology.num_flows() == 0) return sub;

  // Failures touching the region, remapped (components outside the
  // region are dropped from the scenario).
  for (int k = 0; k < t.num_failures(); ++k) {
    const topo::Failure& failure = t.failure(k);
    topo::Failure copy;
    copy.name = failure.name;
    for (int f : failure.fibers) {
      if (fiber_map.count(f)) copy.fibers.push_back(fiber_map[f]);
    }
    for (int s : failure.sites) {
      if (site_map.count(s)) copy.sites.push_back(site_map[s]);
    }
    if (copy.fibers.empty() && copy.sites.empty()) continue;
    // Skip scenarios that would disconnect a regional segment — the
    // region alone cannot protect flows that reroute across regions.
    bool survivable = true;
    for (int fl = 0; fl < sub.topology.num_flows() && survivable; ++fl) {
      const topo::Flow& flow = sub.topology.flow(fl);
      if (!sub.topology.flow_required(flow, copy)) continue;
      std::vector<bool> usable(sub.topology.num_links());
      for (int l = 0; l < sub.topology.num_links(); ++l) {
        usable[l] = !sub.topology.link_failed(l, copy);
      }
      survivable =
          !topo::shortest_ip_path(sub.topology, flow.src, flow.dst, usable).empty();
    }
    if (survivable) sub.topology.add_failure(std::move(copy));
  }
  sub.empty = false;
  return sub;
}

}  // namespace

DecompositionResult solve_region_decomposition(const topo::Topology& topology,
                                               const LazySolveConfig& regional) {
  Stopwatch watch;
  DecompositionResult result;

  std::set<int> regions;
  for (int s = 0; s < topology.num_sites(); ++s) {
    regions.insert(topology.site(s).region);
  }
  result.regions = static_cast<int>(regions.size());

  // Inter-regional links: sized by worst-case shortest-path load. A
  // disconnected flow is left to the stitch check to catch.
  const std::vector<int> sp_units = size_by_shortest_paths(topology).added_units;
  std::vector<int> added(topology.num_links(), 0);
  for (int l = 0; l < topology.num_links(); ++l) {
    if (link_region(topology, l) < 0) added[l] = sp_units[l];
  }

  // Regional sub-ILPs.
  for (int region : regions) {
    SubProblem sub = build_region_subproblem(topology, region);
    if (sub.empty) continue;
    const LazySolveResult solved = lazy_solve(sub.topology, {}, regional);
    if (solved.plan.feasible) {
      for (int sl = 0; sl < sub.topology.num_links(); ++sl) {
        added[sub.parent_link[sl]] =
            std::max(added[sub.parent_link[sl]], solved.plan.added_units[sl]);
      }
    } else {
      // Regional solve failed: fall back to worst-case loads there too.
      log_warn("decomposition: region ", region, " unsolved (",
               solved.plan.detail, "); sizing by shortest-path load");
      for (int sl = 0; sl < sub.topology.num_links(); ++sl) {
        const int l = sub.parent_link[sl];
        added[l] = std::max(added[l], sp_units[l]);
      }
    }
  }

  // Stitch + verify; repair blind spots with the greedy design.
  auto feasible_now = [&]() {
    return plan::check_once(topology, topology.total_units(added)).feasible;
  };
  bool feasible = feasible_now();
  if (!feasible) {
    const PlanResult greedy = solve_greedy(topology);
    if (greedy.feasible) {
      for (int l = 0; l < topology.num_links(); ++l) {
        added[l] = std::max(added[l], greedy.added_units[l]);
      }
      result.repaired = true;
      feasible = feasible_now();
    }
  }

  result.plan.feasible = feasible;
  result.plan.added_units = std::move(added);
  result.plan.cost = topology.plan_cost(result.plan.added_units);
  result.plan.seconds = watch.seconds();
  result.plan.detail = "decomposition: " + std::to_string(result.regions) +
                       " regions" + (result.repaired ? " (greedy-repaired)" : "");
  return result;
}

}  // namespace np::core
