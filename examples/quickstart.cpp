// Quickstart: build the paper's Figure 1 topology by hand, run the
// two-stage NeuroPlan pipeline on it, and print the resulting plan.
//
//   ./quickstart [epochs]
//
// The example shows the full public API surface: constructing a
// topology (sites, fibers, IP links over fiber paths, flows, failure
// scenarios), checking plans with the evaluator, and planning with
// NeuroPlan and the exact ILP.
#include <cstdio>
#include <cstdlib>

#include "core/baselines.hpp"
#include "core/neuroplan.hpp"
#include "plan/evaluator.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace {

/// Figure 1 of the paper: sites A..F, ring of fibers, a 100 Gbps flow
/// A -> D that must survive cutting A-E or B-C.
np::topo::Topology figure1_topology() {
  using namespace np::topo;
  Topology t;
  t.set_name("figure1");
  t.set_capacity_unit_gbps(100.0);
  t.set_cost_model({0.01, 0.5});

  const int a = t.add_site({"A", 0, 0, 0});
  const int b = t.add_site({"B", 500, 400, 0});
  const int c = t.add_site({"C", 1000, 400, 0});
  const int d = t.add_site({"D", 1500, 0, 0});
  const int e = t.add_site({"E", 500, -400, 0});
  const int f = t.add_site({"F", 1000, -400, 0});

  auto fiber = [&](int s1, int s2, const char* name) {
    Fiber fb;
    fb.site_a = s1;
    fb.site_b = s2;
    fb.length_km = 600.0;
    fb.spectrum_ghz = 4800.0;
    fb.build_cost = 6000.0;
    fb.name = name;
    return t.add_fiber(fb);
  };
  const int ab = fiber(a, b, "A-B"), bc = fiber(b, c, "B-C"), cd = fiber(c, d, "C-D");
  const int ae = fiber(a, e, "A-E"), ef = fiber(e, f, "E-F"), fd = fiber(f, d, "F-D");

  auto link = [&](std::vector<int> path, const char* name) {
    IpLink l;
    l.site_a = a;
    l.site_b = d;
    l.fiber_path = std::move(path);
    l.spectrum_per_unit_ghz = 37.5;
    l.name = name;
    t.add_ip_link(std::move(l));
  };
  link({ab, bc, cd}, "link1");  // A-B-C-D
  link({ae, ef, fd}, "link2");  // A-E-F-D

  t.add_flow({a, d, 100.0, CoS::kGold});
  t.add_failure({{ae}, {}, "cut A-E"});
  t.add_failure({{bc}, {}, "cut B-C"});
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  np::set_log_level(np::LogLevel::kWarn);
  const long epochs = argc > 1 ? std::atol(argv[1]) : 8;

  np::topo::Topology topology = figure1_topology();
  std::printf("Topology '%s': %d sites, %d fibers, %d IP links, %d flows, %d failures\n",
              topology.name().c_str(), topology.num_sites(), topology.num_fibers(),
              topology.num_links(), topology.num_flows(), topology.num_failures());

  // A plan is just per-link capacity units; the evaluator checks it
  // against the demand under every failure scenario. Checking {1,1}
  // after {1,0} skips the scenarios {1,0} already survived.
  np::plan::PlanEvaluator evaluator(topology);
  std::printf("plan {1,0} feasible? %s\n",
              evaluator.check({1, 0}).feasible ? "yes" : "no");
  std::printf("plan {1,1} feasible? %s\n",
              evaluator.check({1, 1}).feasible ? "yes" : "no");

  // Exact ILP (tractable at this size).
  const np::core::PlanResult exact = np::core::solve_ilp(topology);
  std::printf("ILP optimum: cost %.1f [%s]\n", exact.cost, exact.detail.c_str());

  // The two-stage NeuroPlan pipeline.
  np::core::NeuroPlanConfig config;
  config.train = np::core::default_train_config(topology, /*seed=*/1);
  config.train.epochs = static_cast<int>(epochs);
  config.relax_factor = 2.0;
  const np::core::NeuroPlanResult result = np::core::neuroplan(topology, config);

  std::printf("First-stage (RL) plan: cost %.1f (train %.1fs)\n",
              result.first_stage.cost, result.train_seconds);
  std::printf("NeuroPlan final plan : cost %.1f (ILP %.1fs) [%s]\n",
              result.final.cost, result.ilp_seconds, result.final.detail.c_str());
  for (int l = 0; l < topology.num_links(); ++l) {
    std::printf("  %-6s +%d units\n", topology.link(l).name.c_str(),
                result.final.added_units[l]);
  }
  return 0;
}
