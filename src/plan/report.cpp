#include "plan/report.hpp"

#include <algorithm>
#include <sstream>

#include "lp/simplex.hpp"
#include "plan/scenario_lp.hpp"
#include "util/table.hpp"

namespace np::plan {

PlanReport analyze_plan(const topo::Topology& topology,
                        const std::vector<int>& added_units) {
  PlanReport report;
  const std::vector<int> total = topology.total_units(added_units);
  report.total_cost = topology.plan_cost(added_units);

  std::vector<double> worst_utilization(topology.num_links(), -1.0);
  report.feasible = true;
  for (int scenario = 0; scenario <= topology.num_failures(); ++scenario) {
    ScenarioLp lp = build_scenario_lp(topology, scenario, /*aggregate=*/true);
    set_plan_capacities(lp, topology, total);
    lp::Solution solution = lp::solve(lp.model);
    const std::string name =
        scenario == kHealthyScenario ? "healthy"
                                     : topology.failure(scenario - 1).name;
    if (solution.status != lp::SolveStatus::kOptimal) {
      report.scenario_notes.push_back(name + ": solver " +
                                      lp::to_string(solution.status));
      report.feasible = false;
      continue;
    }
    if (!all_demand_served(solution.objective, lp.total_demand)) {
      report.feasible = false;
      std::ostringstream os;
      os << name << ": INFEASIBLE, " << solution.objective << " Gbps unserved";
      report.scenario_notes.push_back(os.str());
    } else {
      report.scenario_notes.push_back(name + ": ok");
    }
    // Utilization per link from the capacity-row activities: the flow
    // variables of each direction sum against the capacity bound.
    const std::vector<double> activity = lp.model.row_activities(solution.x);
    for (int l = 0; l < topology.num_links(); ++l) {
      const double cap = total[l] * topology.capacity_unit_gbps();
      if (cap <= 0.0) continue;
      for (int dir = 0; dir < 2; ++dir) {
        const int row = lp.capacity_row[2 * l + dir];
        if (row < 0) continue;
        worst_utilization[l] = std::max(worst_utilization[l], activity[row] / cap);
      }
    }
  }

  for (int l = 0; l < topology.num_links(); ++l) {
    if (added_units[l] == 0) continue;
    ++report.links_changed;
    LinkReportRow row;
    row.link = l;
    row.name = topology.link(l).name;
    row.initial_units = topology.link(l).initial_units;
    row.added_units = added_units[l];
    row.added_cost = added_units[l] * topology.link_unit_cost(l);
    row.worst_utilization = worst_utilization[l];
    report.rows.push_back(std::move(row));
  }
  std::sort(report.rows.begin(), report.rows.end(),
            [](const LinkReportRow& a, const LinkReportRow& b) {
              return a.added_cost > b.added_cost;
            });
  return report;
}

std::string to_text(const topo::Topology& topology, const PlanReport& report) {
  std::ostringstream os;
  os << "plan report for '" << topology.name() << "': "
     << (report.feasible ? "FEASIBLE" : "INFEASIBLE") << ", cost "
     << report.total_cost << ", " << report.links_changed << " links changed\n";
  Table table({"link", "sites", "initial", "added", "cost", "worst util"});
  for (const LinkReportRow& row : report.rows) {
    const topo::IpLink& link = topology.link(row.link);
    table.add_row({row.name,
                   topology.site(link.site_a).name + "-" +
                       topology.site(link.site_b).name,
                   std::to_string(row.initial_units), std::to_string(row.added_units),
                   fmt_double(row.added_cost, 1),
                   row.worst_utilization < 0.0
                       ? "-"
                       : fmt_double(row.worst_utilization, 2)});
  }
  os << table.to_string();
  os << "scenarios:\n";
  for (const std::string& note : report.scenario_notes) {
    os << "  " << note << "\n";
  }
  return os.str();
}

}  // namespace np::plan
