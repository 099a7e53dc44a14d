// Figure 7: implementation efficiency of the plan evaluator.
//
// Compares the running time of the three evaluator implementations
// (Vanilla / +SourceAggregation / +Stateful = NeuroPlan) on identical
// replayed plan-check workloads over topologies A-E. Times are
// normalized to the NeuroPlan evaluator per topology, exactly like the
// figure; entries whose projected runtime exceeds the per-topology
// budget are omitted with a cross (the paper omits Vanilla beyond 2h).
//
// It also prints each mode's simplex iterations, which do not depend on
// the machine, and exits 1 unless Vanilla > SA > NeuroPlan holds among
// the modes that finished on every topology it ran: Fig. 7's shape,
// checked on deterministic counts instead of time.
//
//   NEUROPLAN_FIG7_CHECKS  monotone plan increments per topology (default 12)
//   NEUROPLAN_FIG7_BUDGET  per-mode budget in seconds (default 60)
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "plan/evaluator.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace np;

/// A reproducible monotone capacity trajectory: the workload every mode
/// replays. Mirrors an RL trajectory's evaluator usage: capacities ramp
/// up every check and cross into feasibility partway through, so late
/// checks sweep deep into the scenario list (where stateful checking
/// shines) while early ones fail fast.
std::vector<std::vector<int>> make_workload(const topo::Topology& topology,
                                            int checks, unsigned seed) {
  Rng rng(seed);
  double demand_units = 0.0;
  for (int f = 0; f < topology.num_flows(); ++f) {
    demand_units += topology.flow(f).demand_gbps / topology.capacity_unit_gbps();
  }
  // Reach ~2.5x the demand in total by around 70% of the checks.
  const int per_check = std::max(
      1, static_cast<int>(2.5 * demand_units / topology.num_links() /
                          (0.7 * checks)));
  std::vector<std::vector<int>> plans;
  std::vector<int> units = topology.initial_units();
  for (int c = 0; c < checks; ++c) {
    for (int l = 0; l < topology.num_links(); ++l) {
      const int headroom = topology.spectrum_headroom_units(l, units);
      units[l] += std::min(headroom, per_check + static_cast<int>(rng.uniform_index(2)));
    }
    plans.push_back(units);
  }
  return plans;
}

struct ModeRun {
  bool finished = false;
  double seconds = 0.0;
  long lp_iterations = 0;
};

ModeRun run_mode(const topo::Topology& topology, plan::EvaluatorMode mode,
                 const std::vector<std::vector<int>>& plans, double budget) {
  plan::PlanEvaluator evaluator(topology, mode);
  Stopwatch watch;
  ModeRun run;
  run.finished = true;
  for (const auto& plan : plans) {
    (void)evaluator.check(plan);
    if (watch.seconds() > budget) {
      run.finished = false;
      break;
    }
  }
  run.seconds = watch.seconds();
  run.lp_iterations = evaluator.total_lp_iterations();
  return run;
}

/// Fig. 7's order on one topology: each mode that finished takes more
/// simplex iterations than the next faster one that finished.
bool shape_holds(const ModeRun& vanilla, const ModeRun& sa, const ModeRun& stateful) {
  bool ok = true;
  if (vanilla.finished && sa.finished) ok = ok && vanilla.lp_iterations > sa.lp_iterations;
  if (sa.finished && stateful.finished) ok = ok && sa.lp_iterations > stateful.lp_iterations;
  return ok;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 7: implementation efficiency",
      "Plan-evaluator running time, normalized to the NeuroPlan evaluator\n"
      "(source aggregation + stateful failure checking) on each topology.\n"
      "'x' = omitted, exceeds the time budget (the paper's crosses).");

  const std::string topos = bench::topo_selection("ABCDE");
  const int checks = static_cast<int>(env_long("NEUROPLAN_FIG7_CHECKS", 12));
  const double budget = env_double("NEUROPLAN_FIG7_BUDGET", 60.0);

  Table table({"topology", "Vanilla", "SA", "NeuroPlan", "NeuroPlan secs"});
  Table iterations({"topology", "Vanilla iters", "SA iters", "NeuroPlan iters",
                    "shape"});
  bool shape_ok = true;
  for (char id : topos) {
    const topo::Topology topology = topo::make_preset(id);
    const auto workload = make_workload(topology, checks, bench::bench_seed());

    const ModeRun stateful =
        run_mode(topology, plan::EvaluatorMode::kStateful, workload, budget);
    const ModeRun sa =
        run_mode(topology, plan::EvaluatorMode::kSourceAggregation, workload, budget);
    // Vanilla explodes with topology size; skip when SA already blew
    // the budget (it is strictly slower).
    ModeRun vanilla;
    if (sa.finished) {
      vanilla = run_mode(topology, plan::EvaluatorMode::kVanilla, workload, budget);
    }

    table.add_row({std::string(1, id),
                   fmt_or_cross(vanilla.seconds / stateful.seconds, vanilla.finished, 2),
                   fmt_or_cross(sa.seconds / stateful.seconds, sa.finished, 2),
                   stateful.finished ? "1.00" : "x", fmt_double(stateful.seconds, 2)});
    const bool holds = shape_holds(vanilla, sa, stateful);
    shape_ok = shape_ok && holds;
    auto count = [](const ModeRun& run) {
      return run.finished ? std::to_string(run.lp_iterations) : std::string("x");
    };
    iterations.add_row({std::string(1, id), count(vanilla), count(sa), count(stateful),
                        holds ? "ok" : "FAILED"});
  }
  table.print();
  std::printf("\nSimplex iterations per mode ('x' = stopped on the budget):\n");
  iterations.print();
  std::printf("\nExpected shape (paper): SA ~2x+ faster than Vanilla, NeuroPlan\n"
              "7-14x faster than SA, gaps widening with topology size.\n");
  if (!shape_ok) {
    std::fprintf(stderr, "fig07: Vanilla > SA > NeuroPlan iterations failed\n");
    return 1;
  }
  return 0;
}
