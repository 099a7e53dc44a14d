// Solver microbenchmarks (google-benchmark): simplex scaling on random
// LPs, LU factorization of scenario-LP bases, scenario-LP construction
// and checking, warm vs cold solves, and branch-and-bound on knapsacks.
// These are the primitives behind every figure; regressions here move
// every experiment.
#include <benchmark/benchmark.h>

#include "lp/factor.hpp"
#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "plan/evaluator.hpp"
#include "plan/scenario_lp.hpp"
#include "topo/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace np;

lp::Model random_lp(int vars, int rows, unsigned seed) {
  Rng rng(seed);
  lp::Model model;
  std::vector<double> center(vars);
  for (int j = 0; j < vars; ++j) {
    center[j] = rng.uniform(-1.0, 1.0);
    model.add_variable(center[j] - 2.0, center[j] + 2.0, rng.uniform(-1.0, 1.0));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<lp::Coefficient> coeffs;
    double activity = 0.0;
    for (int j = 0; j < vars; ++j) {
      if (rng.uniform() < 0.3) {
        const double c = rng.uniform(-2.0, 2.0);
        coeffs.push_back({j, c});
        activity += c * center[j];
      }
    }
    if (coeffs.empty()) continue;
    model.add_row(activity - 1.0, activity + 1.0, std::move(coeffs));
  }
  return model;
}

void BM_SimplexRandomLp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const lp::Model model = random_lp(n, n / 2, 42);
  for (auto _ : state) {
    lp::Solution s = lp::solve(model);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_SimplexRandomLp)->Arg(20)->Arg(80)->Arg(200)->Unit(benchmark::kMillisecond);

// One factorization of the optimal basis of a topology's aggregated
// no-failure scenario LP: the refactorization every warm re-solve
// starts with. Basic columns come in ascending variable order, slacks
// as -1 singletons, as the simplex builds them.
void BM_FactorizeScenarioBasis(benchmark::State& state) {
  const char id = static_cast<char>('A' + state.range(0));
  const topo::Topology topology = topo::make_preset(id);
  plan::ScenarioLp lp = plan::build_scenario_lp(topology, 0, true);
  plan::set_plan_capacities(lp, topology, topology.initial_units());
  const lp::Solution solved = lp::solve(lp.model);
  if (solved.status != lp::SolveStatus::kOptimal) {
    state.SkipWithError("scenario LP not solved to optimality");
    return;
  }
  const int n = lp.model.num_variables();
  const int m = lp.model.num_rows();
  std::vector<lp::SparseColumn> columns(n + m);
  for (int r = 0; r < m; ++r) {
    for (const auto& [var, coeff] : lp.model.row(r).coefficients) {
      if (coeff != 0.0) columns[var].push_back({r, coeff});
    }
    columns[n + r].push_back({r, -1.0});
  }
  std::vector<lp::ColumnView> basis;
  for (int j = 0; j < n + m; ++j) {
    if (solved.basis.statuses[j] == lp::VarStatus::kBasic) basis.emplace_back(columns[j]);
  }
  lp::BasisFactor factor;
  for (auto _ : state) {
    const bool ok = factor.factorize(m, basis);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["rows"] = m;
  state.counters["lu_entries"] = static_cast<double>(factor.stats().lu_entries);
  state.counters["positions_visited"] =
      static_cast<double>(factor.stats().reach_positions);
}
BENCHMARK(BM_FactorizeScenarioBasis)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_ScenarioLpBuild(benchmark::State& state) {
  const char id = static_cast<char>('A' + state.range(0));
  const topo::Topology topology = topo::make_preset(id);
  for (auto _ : state) {
    plan::ScenarioLp lp = plan::build_scenario_lp(topology, 0, true);
    benchmark::DoNotOptimize(lp.model.num_rows());
  }
}
BENCHMARK(BM_ScenarioLpBuild)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_ScenarioColdCheck(benchmark::State& state) {
  const char id = static_cast<char>('A' + state.range(0));
  const topo::Topology topology = topo::make_preset(id);
  const std::vector<int> units = topology.initial_units();
  for (auto _ : state) {
    plan::ScenarioLp lp = plan::build_scenario_lp(topology, 0, true);
    plan::set_plan_capacities(lp, topology, units);
    plan::ScenarioCheck check = plan::solve_scenario(lp, {}, false);
    benchmark::DoNotOptimize(check.unserved_gbps);
  }
}
BENCHMARK(BM_ScenarioColdCheck)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_ScenarioWarmCheck(benchmark::State& state) {
  const char id = static_cast<char>('A' + state.range(0));
  const topo::Topology topology = topo::make_preset(id);
  std::vector<int> units = topology.initial_units();
  plan::ScenarioLp lp = plan::build_scenario_lp(topology, 0, true);
  plan::set_plan_capacities(lp, topology, units);
  (void)plan::solve_scenario(lp, {}, false);
  for (auto _ : state) {
    units[0] = std::min(units[0] + 1, topology.link_max_units(0));
    plan::set_plan_capacities(lp, topology, units);
    plan::ScenarioCheck check = plan::solve_scenario(lp, {}, true);
    benchmark::DoNotOptimize(check.unserved_gbps);
  }
}
BENCHMARK(BM_ScenarioWarmCheck)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_StatefulFullSweep(benchmark::State& state) {
  const topo::Topology topology = topo::make_preset('B');
  // A saturated plan: every scenario passes, so the sweep visits all.
  std::vector<int> units(topology.num_links());
  for (int l = 0; l < topology.num_links(); ++l) units[l] = topology.link_max_units(l);
  for (auto _ : state) {
    plan::PlanEvaluator evaluator(topology, plan::EvaluatorMode::kStateful);
    plan::CheckResult r = evaluator.check(units);
    benchmark::DoNotOptimize(r.feasible);
  }
}
BENCHMARK(BM_StatefulFullSweep)->Unit(benchmark::kMillisecond);

void BM_MilpKnapsack(benchmark::State& state) {
  const int items = static_cast<int>(state.range(0));
  Rng rng(7);
  lp::Model model;
  std::vector<lp::Coefficient> coeffs;
  for (int j = 0; j < items; ++j) {
    model.set_integer(model.add_variable(0.0, 1.0, -rng.uniform(1.0, 10.0)), true);
    coeffs.push_back({j, rng.uniform(1.0, 5.0)});
  }
  model.add_row(-lp::kInfinity, items * 1.2, std::move(coeffs));
  for (auto _ : state) {
    milp::MilpResult r = milp::solve(model);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(10)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
