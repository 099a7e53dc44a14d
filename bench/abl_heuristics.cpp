// Ablation: the production heuristics of §3.2 head-to-head.
//
// The paper lists three search-space pruning heuristics used today:
// topology decomposition, topology transformation (capacity-unit
// enlargement) and failure selection. This bench compares them — plus
// the greedy worst-case shortest-path design used as a warm start —
// on cost and wall time, normalized to the combined ILP-heur recipe.
#include "bench_common.hpp"
#include "core/baselines.hpp"
#include "core/decomposition.hpp"

int main() {
  using namespace np;
  bench::print_header(
      "Ablation: production heuristics (§3.2)",
      "Cost normalized to the combined ILP-heur recipe per topology.");

  const std::string topos = bench::topo_selection("ABC");
  Table table({"topology", "ILP-heur", "decomposition", "unit-x4 only",
               "greedy", "heur secs", "decomp secs"});
  for (char id : topos) {
    const topo::Topology topology = topo::make_preset(id);

    core::IlpHeurConfig heur_config;
    heur_config.time_limit_per_solve_seconds = 20.0;
    heur_config.relative_gap = 1e-2;
    const core::PlanResult heur = core::solve_ilp_heur(topology, heur_config);

    core::LazySolveConfig regional;
    regional.time_limit_per_solve_seconds = 15.0;
    regional.total_time_limit_seconds = 60.0;
    regional.relative_gap = 1e-2;
    const core::DecompositionResult decomp =
        core::solve_region_decomposition(topology, regional);

    // Capacity-unit enlargement alone: one lazy run at multiplier 4
    // with plenty of rounds (i.e. failure selection disabled as a
    // *heuristic* — it is the exactness mechanism here).
    core::IlpHeurConfig coarse_only = heur_config;
    coarse_only.initial_failures = topology.num_failures();  // all upfront
    const core::PlanResult coarse = core::solve_ilp_heur(topology, coarse_only);

    const core::PlanResult greedy = core::solve_greedy(topology);

    const double norm = heur.feasible ? heur.cost : 1.0;
    table.add_row({std::string(1, id), heur.feasible ? "1.000" : "x",
                   fmt_or_cross(decomp.plan.cost / norm, decomp.plan.feasible, 3),
                   fmt_or_cross(coarse.cost / norm, coarse.feasible, 3),
                   fmt_or_cross(greedy.cost / norm, greedy.feasible, 3),
                   fmt_double(heur.seconds, 1),
                   fmt_double(decomp.plan.seconds, 1)});
  }
  table.print();
  std::printf("\nExpected shape: every heuristic trades optimality for speed in\n"
              "its own way; none dominates across topologies (the paper's 'no\n"
              "universal heuristics' pain point).\n");
  return 0;
}
