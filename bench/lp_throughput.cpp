// LP throughput microbench: cold and warm simplex solves of the
// scenario feasibility LPs, written as JSON for
// scripts/bench_rollout.sh -> BENCH_lp.json.
//
// The workload replays a reproducible monotone capacity trajectory
// with the RL env's action granularity — each step adds one capacity
// unit to one (seeded-random) link, after which every scenario LP of
// the topology is re-solved, exactly what the plan evaluators do per
// env step. Both evaluator formulations are measured —
//   * "aggregated"  — source-aggregated rows (the stateful-evaluator
//                     training hot path; topology B: ~84 rows), and
//   * "per_flow"    — one commodity per flow (the vanilla-evaluator
//                     formulation; topology B: ~164 rows).
// For every topology and formulation the workload runs twice: cold
// (every solve from scratch, so the solver prices with devex) and warm
// (the basis of the previous solve of the same scenario carried
// forward, exactly what the evaluators do across env steps, so the
// solver prices with Dantzig). Every configuration is preceded by a
// discarded warm-up execution so one-off process costs (allocator page
// faults, cache and frequency ramp-up) are not charged to whichever
// configuration runs first.
//
// Headline metric: warm_vs_cold_iteration_ratio — the warm-start win
// (mean iterations cold / warm) on the aggregated hot-path LPs of the
// first topology.
//
// Knobs: NEUROPLAN_TOPOS (letters, default BC),
//        NEUROPLAN_LP_CHECKS (env steps in the trajectory, default 48),
//        NEUROPLAN_SEED (default 7).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lp/simplex.hpp"
#include "obs/obs.hpp"
#include "plan/scenario_lp.hpp"
#include "topo/generator.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace np;

/// Reproducible monotone capacity trajectory with the env's action
/// granularity: one unit added to one seeded-random link per step
/// (respecting spectrum headroom), one plan snapshot per step. Warm
/// solves therefore see exactly the basis perturbation the evaluators
/// see between env steps.
std::vector<std::vector<int>> make_workload(const topo::Topology& topology,
                                            int steps, unsigned seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> plans;
  std::vector<int> units = topology.initial_units();
  for (int c = 0; c < steps; ++c) {
    const int l = static_cast<int>(rng.uniform_index(topology.num_links()));
    if (topology.spectrum_headroom_units(l, units) > 0) units[l] += 1;
    plans.push_back(units);
  }
  return plans;
}

struct PassResult {
  long solves = 0;
  long iterations = 0;
  double seconds = 0.0;          ///< wall-clock over the whole pass
  double pricing_seconds = 0.0;  ///< time inside pricing (per lp::Solution)
  double solves_per_sec() const { return solves / seconds; }
  double iterations_per_sec() const { return iterations / seconds; }
  double mean_iterations() const {
    return solves > 0 ? static_cast<double>(iterations) / solves : 0.0;
  }
  double pricing_share() const {
    return seconds > 0.0 ? pricing_seconds / seconds : 0.0;
  }
};

/// Replay the workload over the given scenario LPs, cold or warm.
PassResult run_pass(const topo::Topology& topology,
                    const std::vector<std::vector<int>>& plans,
                    std::vector<plan::ScenarioLp>& lps, bool warm) {
  lp::SimplexOptions options;
  options.max_iterations = 1000000;

  PassResult pass;
  Stopwatch watch;
  for (const auto& plan : plans) {
    for (plan::ScenarioLp& lp : lps) {
      plan::set_plan_capacities(lp, topology, plan);
      const plan::ScenarioCheck check =
          plan::solve_scenario(lp, options, /*use_warm_start=*/warm);
      ++pass.solves;
      pass.iterations += check.lp_iterations;
      pass.pricing_seconds += check.pricing_seconds;
    }
  }
  pass.seconds = watch.seconds();
  return pass;
}

/// Timed measurement behind a discarded warm-up execution of the same
/// pass. The warm-up serves two purposes: it absorbs one-off process
/// costs (page faults into the allocator arenas, cache and
/// branch-predictor warm-up, CPU frequency ramp) that would otherwise
/// be charged to whichever configuration runs first, and it primes the
/// stored bases and kept LUs so the warm configuration measures
/// steady-state cross-step basis reuse, the state the evaluators live
/// in after the first env step, instead of charging the one-off cold
/// ramp-in to every warm number.
PassResult measure(const topo::Topology& topology,
                   const std::vector<std::vector<int>>& plans, bool aggregate,
                   bool warm) {
  std::vector<plan::ScenarioLp> lps;
  const int scenarios = topology.num_failures() + 1;
  lps.reserve(scenarios);
  for (int s = 0; s < scenarios; ++s) {
    lps.push_back(plan::build_scenario_lp(topology, s, aggregate));
  }
  run_pass(topology, plans, lps, warm);  // warm-up, discarded
  // Best-of-2: the faster execution is the estimate least polluted by
  // scheduler and frequency noise. Each timed pass starts from the
  // primed state, so both do the same work and differ only in
  // interference; a pass that started where the other ended would
  // re-solve from other bases.
  const std::vector<plan::ScenarioLp> primed = lps;
  PassResult best;
  for (int run = 0; run < 2; ++run) {
    lps = primed;
    const PassResult pass = run_pass(topology, plans, lps, warm);
    if (run > 0 && pass.iterations != best.iterations) {
      std::fprintf(stderr,
                   "lp_throughput: timed passes from the same state did %ld and "
                   "%ld iterations; the solver is not deterministic\n",
                   best.iterations, pass.iterations);
      std::exit(EXIT_FAILURE);
    }
    if (run == 0 || pass.seconds < best.seconds) best = pass;
  }
  return best;
}

struct FormulationResult {
  int rows = 0;
  PassResult cold, warm;

  /// Mean iterations cold / warm: the warm-start win.
  double warm_iteration_ratio() const {
    return warm.mean_iterations() > 0.0
               ? cold.mean_iterations() / warm.mean_iterations()
               : 0.0;
  }
};

FormulationResult run_formulation(const topo::Topology& topology,
                                  const std::vector<std::vector<int>>& plans,
                                  bool aggregate) {
  FormulationResult result;
  result.rows =
      plan::build_scenario_lp(topology, 0, aggregate).model.num_rows();
  result.cold = measure(topology, plans, aggregate, /*warm=*/false);
  result.warm = measure(topology, plans, aggregate, /*warm=*/true);
  return result;
}

struct TopologyResult {
  char preset = 'B';
  int scenarios = 0;
  FormulationResult aggregated, per_flow;
};

void print_text(const char* name, const FormulationResult& r) {
  std::printf("%s (%d rows): cold %7.1f solves/s (%6.1f iters, %4.1f%% "
              "pricing), warm %8.1f solves/s (%4.1f iters) -> %.2fx fewer "
              "iterations warm\n",
              name, r.rows, r.cold.solves_per_sec(), r.cold.mean_iterations(),
              100.0 * r.cold.pricing_share(), r.warm.solves_per_sec(),
              r.warm.mean_iterations(), r.warm_iteration_ratio());
}

void print_json_pass(std::FILE* out, const char* key, const PassResult& pass,
                     bool trailing_comma) {
  std::fprintf(out,
               "        \"%s\": {\"solves\": %ld, \"iterations\": %ld, "
               "\"seconds\": %.4f, \"solves_per_sec\": %.2f, "
               "\"iterations_per_sec\": %.1f, \"mean_iterations\": %.2f, "
               "\"pricing_seconds\": %.4f, \"pricing_share\": %.3f}%s\n",
               key, pass.solves, pass.iterations, pass.seconds,
               pass.solves_per_sec(), pass.iterations_per_sec(),
               pass.mean_iterations(), pass.pricing_seconds,
               pass.pricing_share(), trailing_comma ? "," : "");
}

void print_json_formulation(std::FILE* out, const char* name,
                            const FormulationResult& r, bool trailing_comma) {
  std::fprintf(out, "      \"%s\": {\n        \"rows\": %d,\n", name, r.rows);
  print_json_pass(out, "cold", r.cold, true);
  print_json_pass(out, "warm", r.warm, false);
  std::fprintf(out, "      }%s\n", trailing_comma ? "," : "");
}

}  // namespace

int main(int argc, char** argv) {
  obs::configure_from_env();  // NEUROPLAN_TRACE_OUT / NEUROPLAN_METRICS_OUT
  const std::string topos = env_string("NEUROPLAN_TOPOS", "BC");
  const unsigned seed = static_cast<unsigned>(env_long("NEUROPLAN_SEED", 7));
  const int checks = static_cast<int>(env_long("NEUROPLAN_LP_CHECKS", 48));

  std::vector<TopologyResult> results;
  for (const char preset : topos) {
    const topo::Topology topology = topo::make_preset(preset);
    const auto plans = make_workload(topology, checks, seed);
    TopologyResult tr;
    tr.preset = preset;
    tr.scenarios = topology.num_failures() + 1;
    std::printf("topology %c: %d scenario LPs x %d env steps\n", preset,
                tr.scenarios, checks);
    tr.aggregated = run_formulation(topology, plans, /*aggregate=*/true);
    print_text("  aggregated (stateful hot path)", tr.aggregated);
    tr.per_flow = run_formulation(topology, plans, /*aggregate=*/false);
    print_text("  per-flow (vanilla evaluator)", tr.per_flow);
    results.push_back(std::move(tr));
  }

  // Headline: the warm-start iteration win on the first topology's
  // aggregated hot path.
  const double warm_iteration_ratio =
      results.front().aggregated.warm_iteration_ratio();
  std::printf("warm vs cold (aggregated): %.2fx fewer iterations/solve\n",
              warm_iteration_ratio);

  const char* out_path = argc > 1 ? argv[1] : "BENCH_lp.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::print_json_provenance(out);
  std::fprintf(out,
               "  \"benchmark\": \"lp_throughput\",\n"
               "  \"capacity_steps\": %d,\n"
               "  \"topologies\": {\n",
               checks);
  for (std::size_t t = 0; t < results.size(); ++t) {
    const TopologyResult& tr = results[t];
    std::fprintf(out,
                 "    \"%c\": {\n      \"scenarios\": %d,\n",
                 tr.preset, tr.scenarios);
    print_json_formulation(out, "aggregated", tr.aggregated, true);
    print_json_formulation(out, "per_flow", tr.per_flow, false);
    std::fprintf(out, "    }%s\n", t + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"warm_vs_cold_iteration_ratio\": %.3f\n}\n",
               warm_iteration_ratio);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
