// Differential tests for the simplex. Its two live paths, a cold
// start priced with devex and a warm start (dual repair, then Dantzig
// pricing), must return the same verdicts and, for optimal solves,
// objectives within 1e-7: on the scenario feasibility LPs the
// evaluators solve, along warm-started capacity trajectories, and on
// randomized general LPs re-solved after a bound change. Plus pricing
// regressions (the rule follows the warm start; degenerate LPs must
// terminate under partial pricing; devex weights must hold their floor
// across mid-solve refactorizations), the kept LU (a warm solve that
// adopts the LU its scenario kept must equal, bit for bit, one that
// refactorizes, and must skip that refactorization), a resident
// compressed scenario LP against models built afresh at every step
// (bit for bit), property tests of BasisFactor
// itself (including how many pivot positions a factorization visits),
// BasisFactor checked solve by solve against a dense Gauss-Jordan
// inverse (tests/reference_basis.hpp), before and after product-form
// eta accumulation, and the bits of its solves on B's and C's scenario
// LPs pinned by a hash.
//
// All randomness is seeded; NEUROPLAN_TEST_SEED offsets every seed so
// a different corpus can be swept reproducibly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "lp/factor.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "plan/scenario_lp.hpp"
#include "reference_basis.hpp"
#include "topo/generator.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace np::lp {
namespace {

std::uint64_t test_seed(unsigned salt) {
  return static_cast<std::uint64_t>(env_long("NEUROPLAN_TEST_SEED", 0)) +
         salt * 7919u + 131u;
}

SimplexOptions solver_options(const Basis* warm_start = nullptr) {
  SimplexOptions options;
  options.max_iterations = 1000000;
  options.warm_start = warm_start;
  return options;
}

/// Objective agreement tolerance: absolute for small values, relative
/// for large ones (1e-7).
void expect_objectives_match(double got, double want) {
  EXPECT_NEAR(got, want, 1e-7 * std::max(1.0, std::abs(want)));
}

// ---- warm (Dantzig, dual repair) vs cold (devex) ----

TEST(SolverAgreement, ScenarioLpsAgreeAcrossCapacityPlans) {
  // Random monotone capacity plans, scarce to plentiful: each plan is
  // solved cold and warm from the previous plan's basis.
  const topo::Topology topology = topo::make_preset('B');
  Rng rng(test_seed(1));
  for (const bool aggregate : {true, false}) {
    for (int scenario = 0; scenario <= topology.num_failures(); scenario += 3) {
      plan::ScenarioLp lp = plan::build_scenario_lp(topology, scenario, aggregate);
      std::vector<int> units = topology.initial_units();
      Basis previous;
      for (int trial = 0; trial < 4; ++trial) {
        for (int l = 0; l < topology.num_links(); ++l) {
          const int headroom = topology.spectrum_headroom_units(l, units);
          units[l] += static_cast<int>(
              rng.uniform_index(static_cast<std::size_t>(headroom) + 1));
        }
        plan::set_plan_capacities(lp, topology, units);
        const Solution cold = solve(lp.model, solver_options());
        SCOPED_TRACE(::testing::Message()
                     << (aggregate ? "aggregated" : "per-flow") << " scenario "
                     << scenario << " trial " << trial << " seed "
                     << test_seed(1));
        ASSERT_EQ(cold.status, SolveStatus::kOptimal);
        EXPECT_EQ(cold.start_path, StartPath::kCold);
        if (trial > 0) {
          const Solution warm = solve(lp.model, solver_options(&previous));
          ASSERT_EQ(warm.status, SolveStatus::kOptimal);
          EXPECT_NE(warm.start_path, StartPath::kCold);
          expect_objectives_match(warm.objective, cold.objective);
          // Identical feasibility verdicts under the evaluator's rule.
          const double tol = 1e-6 * std::max(1.0, lp.total_demand);
          EXPECT_EQ(warm.objective <= tol, cold.objective <= tol);
          previous = warm.basis;
        } else {
          previous = cold.basis;
        }
      }
    }
  }
}

TEST(SolverAgreement, WarmTrajectoriesAgree) {
  // Replay one env-like trajectory (one link upgraded per step, every
  // scenario re-checked) twice in lockstep: warm from the previous
  // step's basis, as the stateful evaluator does, and cold. Both must
  // produce the same verdicts and objectives at every step.
  const topo::Topology topology = topo::make_preset('B');
  const int scenarios = topology.num_failures() + 1;
  std::vector<plan::ScenarioLp> warm_lps, cold_lps;
  for (int s = 0; s < scenarios; ++s) {
    warm_lps.push_back(plan::build_scenario_lp(topology, s, true));
    cold_lps.push_back(plan::build_scenario_lp(topology, s, true));
  }
  obs::Counter& warm_hits = obs::counter("plan.warm_start_hits");
  const long hits_before = warm_hits.value();
  Rng rng(test_seed(2));
  std::vector<int> units = topology.initial_units();
  for (int step = 0; step < 25; ++step) {
    const int l = static_cast<int>(rng.uniform_index(topology.num_links()));
    if (topology.spectrum_headroom_units(l, units) > 0) units[l] += 1;
    for (int s = 0; s < scenarios; ++s) {
      plan::set_plan_capacities(warm_lps[s], topology, units);
      plan::set_plan_capacities(cold_lps[s], topology, units);
      const plan::ScenarioCheck warm =
          plan::solve_scenario(warm_lps[s], solver_options(), true);
      const plan::ScenarioCheck cold =
          plan::solve_scenario(cold_lps[s], solver_options(), false);
      SCOPED_TRACE(::testing::Message() << "step " << step << " scenario " << s
                                        << " seed " << test_seed(2));
      EXPECT_EQ(warm.feasible, cold.feasible);
      expect_objectives_match(warm.unserved_gbps, cold.unserved_gbps);
    }
  }
  // Every step after the first had a basis to start from.
  EXPECT_GT(warm_hits.value() - hits_before, 0);
}

TEST(SolverAgreement, RandomGeneralLpsAgree) {
  // Random small LPs with every bound flavor (finite/infinite/fixed,
  // free variables, equality and range rows), solved cold, then
  // re-solved warm after one variable bound moves past the optimum (the
  // branch-and-bound pattern). The warm result must agree with a cold
  // solve of the changed model: same verdict, and when optimal the
  // same objective and a point that satisfies the model.
  Rng rng(test_seed(3));
  int optimal = 0;
  for (int trial = 0; trial < 120; ++trial) {
    Model m;
    const int n = 2 + static_cast<int>(rng.uniform_index(6));
    const int rows = 1 + static_cast<int>(rng.uniform_index(6));
    for (int j = 0; j < n; ++j) {
      const double lo = rng.uniform_index(4) == 0
                            ? -kInfinity
                            : -2.0 + 4.0 * rng.uniform();
      double hi = rng.uniform_index(4) == 0 ? kInfinity
                                            : 1.0 + 4.0 * rng.uniform();
      if (std::isfinite(lo) && hi < lo) hi = lo;  // occasional fixed variable
      m.add_variable(lo, hi, -2.0 + 4.0 * rng.uniform());
    }
    for (int r = 0; r < rows; ++r) {
      std::vector<Coefficient> coeffs;
      for (int j = 0; j < n; ++j) {
        if (rng.uniform_index(3) != 0) {
          coeffs.push_back({j, -3.0 + 6.0 * rng.uniform()});
        }
      }
      const double mid = -2.0 + 4.0 * rng.uniform();
      const double half = 3.0 * rng.uniform();
      switch (rng.uniform_index(4)) {
        case 0: m.add_row(mid, mid, std::move(coeffs)); break;        // equality
        case 1: m.add_row(mid, kInfinity, std::move(coeffs)); break;  // >=
        case 2: m.add_row(-kInfinity, mid, std::move(coeffs)); break; // <=
        default: m.add_row(mid - half, mid + half, std::move(coeffs)); break;
      }
    }
    const Solution first = solve(m, solver_options());
    if (first.status != SolveStatus::kOptimal) continue;

    // Cut the optimum off: move one bound of one variable past its
    // optimal value (a fixed variable when the bounds would cross).
    const int j = static_cast<int>(rng.uniform_index(static_cast<std::size_t>(n)));
    double lo = m.variable(j).lower;
    double hi = m.variable(j).upper;
    if (rng.uniform_index(2) == 0) {
      hi = first.x[j] - 0.5 * rng.uniform();
      if (hi < lo) hi = lo;
    } else {
      lo = first.x[j] + 0.5 * rng.uniform();
      if (hi < lo) lo = hi;
    }
    m.set_variable_bounds(j, lo, hi);

    const Solution warm = solve(m, solver_options(&first.basis));
    const Solution cold = solve(m, solver_options());
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " seed "
                                      << test_seed(3));
    EXPECT_EQ(warm.status, cold.status);
    if (warm.status == SolveStatus::kOptimal &&
        cold.status == SolveStatus::kOptimal) {
      expect_objectives_match(warm.objective, cold.objective);
      EXPECT_LE(m.max_violation(warm.x), 1e-6);
      ++optimal;
    }
  }
  EXPECT_GE(optimal, 30);  // the sweep must actually exercise optimal solves
}

// ---- pricing regressions ----

TEST(Pricing, OnlyColdSolvesUseDevexWeights) {
  // The rule follows the warm start: a cold solve prices with devex and
  // resets its weights at least once; warm re-solves price with Dantzig
  // and keep no weights, whether the basis is still optimal or needs a
  // dual repair after a capacity change.
  const topo::Topology topology = topo::make_preset('B');
  plan::ScenarioLp lp = plan::build_scenario_lp(topology, 0, false);
  plan::set_plan_capacities(lp, topology, topology.initial_units());
  obs::Counter& resets = obs::counter("lp.pricing.weight_resets");

  long before = resets.value();
  const Solution cold = solve(lp.model, solver_options());
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_GT(cold.iterations, 0);
  EXPECT_GT(resets.value() - before, 0);

  before = resets.value();
  const Solution again = solve(lp.model, solver_options(&cold.basis));
  ASSERT_EQ(again.status, SolveStatus::kOptimal);
  EXPECT_EQ(again.start_path, StartPath::kWarmPrimal);
  expect_objectives_match(again.objective, cold.objective);
  EXPECT_EQ(resets.value() - before, 0);

  std::vector<int> units = topology.initial_units();
  for (int& u : units) u += 1;
  plan::set_plan_capacities(lp, topology, units);
  before = resets.value();
  const Solution changed = solve(lp.model, solver_options(&cold.basis));
  ASSERT_EQ(changed.status, SolveStatus::kOptimal);
  EXPECT_NE(changed.start_path, StartPath::kCold);
  EXPECT_EQ(resets.value() - before, 0);
}

/// A degenerate LP: rows x_a + x_b <= 0 with x >= 0 pin every variable
/// to zero while profitable-looking reduced costs (cost -1) keep
/// tempting entering candidates whose ratio test allows no movement.
/// Regression for the partial-pricing fall-through: the solver must
/// still terminate at the (all-zero) optimum with the candidate list
/// on. 80 variables and 40 rows make 160 columns with slacks and
/// artificials, past the 128-column partial-pricing threshold. The
/// cold solve prices with devex; the warm one starts from the all-slack
/// basis (the crash basis) and prices with Dantzig.
TEST(Pricing, DegenerateLpTerminatesUnderPartialPricing) {
  Model m;
  const int n = 80;
  for (int j = 0; j < n; ++j) m.add_variable(0.0, kInfinity, -1.0);
  for (int j = 0; j + 1 < n; j += 2) {
    m.add_row(-kInfinity, 0.0, {{j, 1.0}, {j + 1, 1.0}});
  }
  Basis slack_basis;
  slack_basis.statuses.assign(n, VarStatus::kAtLower);
  slack_basis.statuses.resize(n + m.num_rows(), VarStatus::kBasic);
  const Basis* const starts[] = {nullptr, &slack_basis};
  for (const Basis* warm : starts) {
    SimplexOptions options = solver_options(warm);
    options.max_iterations = 10000;  // termination, not a time out
    const Solution solution = solve(m, options);
    SCOPED_TRACE(warm == nullptr ? "cold" : "warm");
    ASSERT_EQ(solution.status, SolveStatus::kOptimal);
    EXPECT_NEAR(solution.objective, 0.0, 1e-9);
  }
}

/// A cold solve long enough to refactorize mid-solve exercises the
/// devex reset-to-reference and its weight contract (checks-on builds:
/// devex weights >= 1). A solve that never refactorizes mid-solve makes
/// at most three factorizations: the crash basis and one fresh one per
/// phase terminal. In release builds this still pins down the verdict
/// against the warm path.
TEST(Pricing, WeightInvariantsHoldUnderFrequentRefactorization) {
  const topo::Topology topology = topo::make_preset('D');
  plan::ScenarioLp lp = plan::build_scenario_lp(topology, 0, false);
  plan::set_plan_capacities(lp, topology, topology.initial_units());
  obs::Counter& refactorizations = obs::counter("lp.refactorizations");
  const long before = refactorizations.value();
  const Solution cold = solve(lp.model, solver_options());
  const long factorized = refactorizations.value() - before;
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_GT(factorized, 3) << cold.iterations << " iterations";

  std::vector<int> units = topology.initial_units();
  for (int& u : units) u += 1;
  plan::set_plan_capacities(lp, topology, units);
  const Solution warm = solve(lp.model, solver_options(&cold.basis));
  const Solution recold = solve(lp.model, solver_options());
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  ASSERT_EQ(recold.status, SolveStatus::kOptimal);
  expect_objectives_match(warm.objective, recold.objective);
}

// ---- kept LU (KeptFactor) ----

/// One warm step the way plan::solve_scenario takes it, returning the
/// whole Solution: warm from lp.basis when there is one, reading and
/// refreshing lp.factor.
Solution warm_step(plan::ScenarioLp& lp) {
  Solution solution =
      solve(lp.model, solver_options(lp.basis.empty() ? nullptr : &lp.basis), &lp.factor);
  if (solution.status == SolveStatus::kOptimal) lp.basis = solution.basis;
  return solution;
}

/// The basic variables of `basis` in ascending order: the order a warm
/// start lists them in, and so the only order worth keeping an LU for.
std::vector<int> ascending_basic(const Basis& basis) {
  std::vector<int> basic;
  for (std::size_t j = 0; j < basis.statuses.size(); ++j) {
    if (basis.statuses[j] == VarStatus::kBasic) basic.push_back(static_cast<int>(j));
  }
  return basic;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(KeptFactor, WarmTrajectoriesMatchRefactorizingTwinBitForBit) {
  // Every scenario LP of B and C, both formulations, through one warm
  // trajectory that mixes monotone steps, repeats of the same plan and
  // capacity cuts (dual repair). Each step is solved on a ScenarioLp
  // that keeps its LU and on a twin whose kept LU is dropped before
  // every solve, so the twin refactorizes at each warm start. Adopting
  // the kept LU must change no bit of the result. One step first
  // re-solves both sides cold at zero capacity, which replaces the
  // stored basis but not the kept LU: the warm start that follows must
  // see that the LU belongs to another basis.
  obs::Counter& refactorizations = obs::counter("lp.refactorizations");
  long adopted = 0;  // warm starts the kept side did not refactorize
  for (const char id : {'B', 'C'}) {
    const topo::Topology topology = topo::make_preset(id);
    for (const bool aggregate : {true, false}) {
      for (int scenario = 0; scenario <= topology.num_failures(); ++scenario) {
        plan::ScenarioLp kept = plan::build_scenario_lp(topology, scenario, aggregate);
        plan::ScenarioLp twin = plan::build_scenario_lp(topology, scenario, aggregate);
        Rng rng(test_seed(11) + static_cast<unsigned>(scenario));
        std::vector<int> units = topology.initial_units();
        for (int step = 0; step < 9; ++step) {
          const int l = static_cast<int>(rng.uniform_index(topology.num_links()));
          if (step % 3 == 0 && topology.spectrum_headroom_units(l, units) > 0) {
            units[l] += 1;  // monotone
          } else if (step % 3 == 2) {
            units[l] = std::max(0, units[l] - 2);  // non-monotone
          }  // step % 3 == 1: the same plan again
          if (step == 7) {
            const std::vector<int> none(topology.num_links(), 0);
            for (plan::ScenarioLp* lp : {&kept, &twin}) {
              plan::set_plan_capacities(*lp, topology, none);
              (void)plan::solve_scenario(*lp, solver_options(), false);
            }
          }
          plan::set_plan_capacities(kept, topology, units);
          plan::set_plan_capacities(twin, topology, units);
          twin.factor = {};
          const long r0 = refactorizations.value();
          const Solution a = warm_step(kept);
          const long r1 = refactorizations.value();
          const Solution b = warm_step(twin);
          adopted += (refactorizations.value() - r1) - (r1 - r0);
          SCOPED_TRACE(::testing::Message()
                       << id << (aggregate ? " aggregated" : " per-flow")
                       << " scenario " << scenario << " step " << step);
          ASSERT_EQ(a.status, b.status);
          EXPECT_TRUE(same_bits({a.objective}, {b.objective}))
              << a.objective << " vs " << b.objective;
          EXPECT_TRUE(same_bits(a.x, b.x));
          EXPECT_TRUE(a.basis.statuses == b.basis.statuses);
          EXPECT_EQ(a.iterations, b.iterations);
          EXPECT_EQ(a.start_path, b.start_path);
          // What is kept factorizes the returned basis, as listed.
          EXPECT_TRUE(kept.factor.basis.empty() ||
                      kept.factor.basis == ascending_basic(kept.basis));
        }
      }
    }
  }
  // Each adopted LU is one refactorization the twin did and the kept
  // side did not; the trajectory's repeats guarantee some.
  EXPECT_GT(adopted, 0);
}

TEST(ResidentModel, WarmTrajectoriesMatchFreshlyBuiltModelsBitForBit) {
  // A scenario LP is compressed once and re-solved at every check, so
  // nothing a solve does may stay behind in it: not the artificial
  // signs a cold start sets, not a stale column. Every scenario LP of B
  // and C, both formulations, runs the trajectory of
  // KeptFactor.WarmTrajectoriesMatchRefactorizingTwinBitForBit; each
  // step is solved on the resident model and on a model built afresh
  // for that step, given the resident's warm basis and kept LU.
  for (const char id : {'B', 'C'}) {
    const topo::Topology topology = topo::make_preset(id);
    for (const bool aggregate : {true, false}) {
      for (int scenario = 0; scenario <= topology.num_failures(); ++scenario) {
        plan::ScenarioLp resident = plan::build_scenario_lp(topology, scenario, aggregate);
        Rng rng(test_seed(11) + static_cast<unsigned>(scenario));
        std::vector<int> units = topology.initial_units();
        for (int step = 0; step < 9; ++step) {
          const int l = static_cast<int>(rng.uniform_index(topology.num_links()));
          if (step % 3 == 0 && topology.spectrum_headroom_units(l, units) > 0) {
            units[l] += 1;  // monotone
          } else if (step % 3 == 2) {
            units[l] = std::max(0, units[l] - 2);  // non-monotone
          }  // step % 3 == 1: the same plan again
          SCOPED_TRACE(::testing::Message()
                       << id << (aggregate ? " aggregated" : " per-flow")
                       << " scenario " << scenario << " step " << step);
          plan::ScenarioLp fresh = plan::build_scenario_lp(topology, scenario, aggregate);
          if (step == 7) {
            // Cold at zero capacity: phase 1 sets artificial signs.
            const std::vector<int> none(topology.num_links(), 0);
            plan::set_plan_capacities(resident, topology, none);
            plan::set_plan_capacities(fresh, topology, none);
            const Solution a = solve(resident.model, solver_options());
            const Solution b = solve(fresh.model, solver_options());
            ASSERT_EQ(a.status, b.status);
            EXPECT_TRUE(same_bits(a.x, b.x));
            EXPECT_TRUE(a.basis.statuses == b.basis.statuses);
            EXPECT_EQ(a.iterations, b.iterations);
            if (a.status == SolveStatus::kOptimal) resident.basis = a.basis;
            fresh = plan::build_scenario_lp(topology, scenario, aggregate);
          }
          fresh.basis = resident.basis;
          fresh.factor = resident.factor;
          plan::set_plan_capacities(resident, topology, units);
          plan::set_plan_capacities(fresh, topology, units);
          const Solution a = warm_step(resident);
          const Solution b = warm_step(fresh);
          ASSERT_EQ(a.status, b.status);
          EXPECT_TRUE(same_bits({a.objective}, {b.objective}))
              << a.objective << " vs " << b.objective;
          EXPECT_TRUE(same_bits(a.x, b.x));
          EXPECT_TRUE(a.basis.statuses == b.basis.statuses);
          EXPECT_EQ(a.iterations, b.iterations);
          EXPECT_EQ(a.start_path, b.start_path);
          EXPECT_EQ(resident.factor.basis, fresh.factor.basis);
        }
      }
    }
  }
}

TEST(KeptFactor, WarmResolveAtUnchangedCapacitiesDoesNotRefactorize) {
  const topo::Topology topology = topo::make_preset('C');
  plan::ScenarioLp lp = plan::build_scenario_lp(topology, 0, true);
  plan::set_plan_capacities(lp, topology, topology.initial_units());
  (void)plan::solve_scenario(lp, solver_options(), true);  // no basis yet: cold
  (void)plan::solve_scenario(lp, solver_options(), true);  // warm: keeps its LU
  ASSERT_FALSE(lp.factor.basis.empty());
  obs::Counter& refactorizations = obs::counter("lp.refactorizations");
  const long before = refactorizations.value();
  const plan::ScenarioCheck check = plan::solve_scenario(lp, solver_options(), true);
  EXPECT_EQ(refactorizations.value() - before, 0);
  EXPECT_NE(check.verdict, plan::Verdict::kUnknown);
  EXPECT_FALSE(lp.factor.basis.empty());
}

TEST(KeptFactor, ColdSolvesKeepNothing) {
  const topo::Topology topology = topo::make_preset('B');
  plan::ScenarioLp lp = plan::build_scenario_lp(topology, 0, true);
  plan::set_plan_capacities(lp, topology, topology.initial_units());
  (void)plan::solve_scenario(lp, solver_options(), false);
  EXPECT_TRUE(lp.factor.basis.empty());
  (void)plan::solve_scenario(lp, solver_options(), true);
  ASSERT_FALSE(lp.factor.basis.empty());
  EXPECT_EQ(lp.factor.basis, ascending_basic(lp.basis));
  EXPECT_EQ(lp.factor.lu.m, lp.model.num_rows());
}

// ---- BasisFactor properties ----

/// Dense row-space product B·w over the basis columns (w by position).
std::vector<double> multiply_basis(const std::vector<SparseColumn>& columns,
                                   const std::vector<double>& w) {
  std::vector<double> out(columns.size(), 0.0);
  for (std::size_t p = 0; p < columns.size(); ++p) {
    if (w[p] == 0.0) continue;
    for (const auto& [r, v] : columns[p]) out[r] += v * w[p];
  }
  return out;
}

std::vector<ColumnView> views_of(const std::vector<SparseColumn>& columns) {
  return {columns.begin(), columns.end()};
}

/// Random sparse diagonally-dominant basis: guaranteed nonsingular, a
/// few off-diagonal entries per column like the scenario-LP bases.
std::vector<SparseColumn> random_basis(int m, Rng& rng) {
  std::vector<SparseColumn> columns(m);
  for (int p = 0; p < m; ++p) {
    columns[p].push_back({p, 3.0 + rng.uniform()});
    const int extras = static_cast<int>(rng.uniform_index(3));
    for (int e = 0; e < extras; ++e) {
      const int r = static_cast<int>(rng.uniform_index(m));
      if (r != p) columns[p].push_back({r, -1.0 + 2.0 * rng.uniform()});
    }
  }
  return columns;
}

/// w = B^{-1} a must reproduce a when multiplied back by the basis.
void expect_solves_basis(const BasisFactor& factor,
                         const std::vector<SparseColumn>& columns,
                         const SparseColumn& a, const char* what) {
  std::vector<double> w;
  factor.ftran_column(a, w);
  const std::vector<double> reconstructed = multiply_basis(columns, w);
  std::vector<double> dense_a(columns.size(), 0.0);
  double scale = 1.0;
  for (const auto& [r, v] : a) {
    dense_a[r] += v;
    scale = std::max(scale, std::abs(v));
  }
  for (std::size_t r = 0; r < columns.size(); ++r) {
    ASSERT_NEAR(reconstructed[r], dense_a[r], 1e-6 * scale) << what << " row " << r;
  }
}

SparseColumn random_rhs(int m, Rng& rng) {
  SparseColumn a;
  const int nnz = 1 + static_cast<int>(rng.uniform_index(3));
  for (int e = 0; e < nnz; ++e) {
    a.push_back({static_cast<int>(rng.uniform_index(m)),
                 -2.0 + 4.0 * rng.uniform()});
  }
  return a;
}

TEST(BasisFactorProperty, FactorizationSolvesItsBasis) {
  for (const int m : {1, 4, 17, 60}) {
    Rng rng(test_seed(4) + m);
    const std::vector<SparseColumn> columns = random_basis(m, rng);
    BasisFactor factor;
    ASSERT_TRUE(factor.factorize(m, views_of(columns)));
    EXPECT_EQ(factor.dim(), m);
    EXPECT_EQ(factor.eta_count(), 0);
    for (int trial = 0; trial < 10; ++trial) {
      expect_solves_basis(factor, columns, random_rhs(m, rng), "fresh factor");
    }
    // FTRAN/BTRAN adjoint consistency: <y, B^{-1}x> == <B^{-T}y, x>.
    std::vector<double> x(m), y(m);
    for (int i = 0; i < m; ++i) {
      x[i] = -1.0 + 2.0 * rng.uniform();
      y[i] = -1.0 + 2.0 * rng.uniform();
    }
    std::vector<double> binv_x = x, btrans_y = y;
    factor.ftran(binv_x);
    factor.btran(btrans_y);
    double lhs = 0.0, rhs = 0.0;
    for (int i = 0; i < m; ++i) {
      lhs += y[i] * binv_x[i];
      rhs += btrans_y[i] * x[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-8 * std::max(1.0, std::abs(lhs)));
  }
}

TEST(BasisFactorProperty, SingularBasisRejected) {
  // Two identical columns: structurally nonsingular by counts, but
  // numerically rank deficient.
  std::vector<SparseColumn> columns(3);
  columns[0] = {{0, 1.0}, {1, 2.0}};
  columns[1] = {{0, 1.0}, {1, 2.0}};
  columns[2] = {{2, 1.0}};
  BasisFactor factor;
  EXPECT_FALSE(factor.factorize(3, views_of(columns)));
}

TEST(BasisFactorProperty, EtaFileTracksBasisExchanges) {
  const int m = 40;
  Rng rng(test_seed(5));
  std::vector<SparseColumn> columns = random_basis(m, rng);
  BasisFactor factor;
  ASSERT_TRUE(factor.factorize(m, views_of(columns)));

  bool saw_refactor_preference = false;
  int exchanges = 0;
  for (int update = 0; update < 400; ++update) {
    SparseColumn entering;
    if (update % 3 == 0) {
      // Degenerate exchange: the entering column is a scaled copy of a
      // basis column, so the eta is (near-)trivial — the historical
      // breeding ground for drift and bookkeeping bugs.
      const int p = static_cast<int>(rng.uniform_index(m));
      entering = columns[p];
      for (auto& [r, v] : entering) v *= 2.0;
    } else {
      entering = random_rhs(m, rng);
      entering.push_back({static_cast<int>(rng.uniform_index(m)),
                          3.0 + rng.uniform()});
    }
    std::vector<double> w;
    factor.ftran_column(entering, w);
    int p = -1;
    for (int i = 0; i < m; ++i) {
      if (std::abs(w[i]) > 1e-4 && (p < 0 || std::abs(w[i]) > std::abs(w[p]))) p = i;
    }
    if (p < 0) continue;  // numerically unusable exchange, as in the simplex
    factor.append_eta(p, w);
    columns[p] = entering;
    ++exchanges;
    if (factor.prefers_refactor()) saw_refactor_preference = true;
    if (exchanges % 8 == 0) {
      expect_solves_basis(factor, columns, random_rhs(m, rng), "eta file");
    }
  }
  ASSERT_GT(exchanges, 150);
  // Long eta files must eventually ask for refactorization...
  EXPECT_TRUE(saw_refactor_preference);
  EXPECT_GT(factor.eta_count(), 0);
  // ...and refactorizing the exchanged basis resets the eta file while
  // still solving the same (updated) basis.
  ASSERT_TRUE(factor.factorize(m, views_of(columns)));
  EXPECT_EQ(factor.eta_count(), 0);
  for (int trial = 0; trial < 10; ++trial) {
    expect_solves_basis(factor, columns, random_rhs(m, rng), "refactorized");
  }
}

TEST(BasisFactorProperty, StatsReflectFactorizationAndEtas) {
  const int m = 10;
  Rng rng(test_seed(6));
  std::vector<SparseColumn> columns = random_basis(m, rng);
  BasisFactor factor;
  ASSERT_TRUE(factor.factorize(m, views_of(columns)));
  const long factorizations = factor.stats().factorizations;
  EXPECT_GE(factor.stats().lu_entries, m);  // at least the diagonal
  EXPECT_EQ(factor.stats().eta_entries, 0);
  std::vector<double> w;
  factor.ftran_column(columns[0], w);  // w = e_0
  factor.append_eta(0, w);
  EXPECT_EQ(factor.eta_count(), 1);
  EXPECT_GE(factor.stats().eta_entries, 1);
  ASSERT_TRUE(factor.factorize(m, views_of(columns)));
  EXPECT_EQ(factor.stats().factorizations, factorizations + 1);
  EXPECT_EQ(factor.stats().eta_entries, 0);
}

TEST(BasisFactorProperty, AdoptedLuSolvesLikeItsFactorization) {
  const int m = 12;
  Rng rng(test_seed(12));
  const std::vector<SparseColumn> columns = random_basis(m, rng);
  BasisFactor fresh;
  ASSERT_TRUE(fresh.factorize(m, views_of(columns)));
  // Another factor, mid-solve on a different basis with an eta, adopts
  // a copy of the fresh LU and must then solve exactly as it does.
  BasisFactor adopting;
  ASSERT_TRUE(adopting.factorize(m, views_of(random_basis(m, rng))));
  std::vector<double> w;
  adopting.ftran_column(columns[0], w);
  adopting.append_eta(0, w);
  adopting.adopt(fresh.lu());
  EXPECT_EQ(adopting.eta_count(), 0);
  EXPECT_EQ(adopting.stats().eta_entries, 0);
  EXPECT_EQ(adopting.stats().lu_entries, fresh.stats().lu_entries);
  EXPECT_EQ(adopting.prefers_refactor(), fresh.prefers_refactor());
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> x(m);
    for (double& v : x) v = -2.0 + 4.0 * rng.uniform();
    std::vector<double> y = x, bx = x, by = x;
    fresh.ftran(x);
    adopting.ftran(bx);
    fresh.btran(y);
    adopting.btran(by);
    EXPECT_EQ(std::memcmp(x.data(), bx.data(), m * sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(y.data(), by.data(), m * sizeof(double)), 0);
  }
}

TEST(BasisFactorProperty, FactorizeWorkFollowsFill) {
  // A scenario-LP-shaped basis: ~2,000 slack singletons plus a cyclic
  // block of 3-entry structural columns. Left-looking elimination may
  // visit only the pivot positions each column reaches through L; a
  // scan over every earlier position would visit m(m-1)/2 ~ 2e6.
  const int m = 2000;
  const int structural = 10;
  std::vector<SparseColumn> columns(m);
  for (int p = 0; p < structural; ++p) {
    columns[p] = {{p, 2.0}, {(p + 1) % structural, 1.0}, {structural + 7 * p, 0.5}};
  }
  for (int p = structural; p < m; ++p) columns[p] = {{p, -1.0}};
  long column_entries = 0;
  for (const SparseColumn& c : columns) column_entries += static_cast<long>(c.size());

  BasisFactor factor;
  ASSERT_TRUE(factor.factorize(m, views_of(columns)));
  // The last structural column closes the cycle and so walks the L
  // columns of all the others.
  EXPECT_GE(factor.stats().reach_positions, structural);
  EXPECT_LE(factor.stats().reach_positions,
            factor.stats().lu_entries + column_entries);
  Rng rng(test_seed(9));
  for (int trial = 0; trial < 10; ++trial) {
    expect_solves_basis(factor, columns, random_rhs(m, rng), "cyclic block");
  }
}

// ---- BasisFactor vs the dense reference inverse ----

/// Entries of `got` within 1e-9 of `want`, relative to want's largest
/// magnitude (at least 1).
void expect_vectors_match(const std::vector<double>& got,
                          const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  double scale = 1.0;
  for (const double v : want) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-9 * scale) << what << " entry " << i;
  }
}

std::vector<double> random_dense(int m, Rng& rng) {
  std::vector<double> x(m);
  for (double& v : x) v = -1.0 + 2.0 * rng.uniform();
  return x;
}

/// ftran_column on `probe`, ftran and btran on random right-hand sides,
/// and btran_unit at every position, each against the reference.
void expect_factor_matches_reference(const BasisFactor& factor,
                                     const ref::DenseBasisInverse& reference,
                                     int m, const SparseColumn& probe,
                                     Rng& rng) {
  std::vector<double> got, want;
  factor.ftran_column(probe, got);
  reference.ftran_column(probe, want);
  expect_vectors_match(got, want, "ftran_column");

  got = want = random_dense(m, rng);
  factor.ftran(got);
  reference.ftran(want);
  expect_vectors_match(got, want, "ftran");

  got = want = random_dense(m, rng);
  factor.btran(got);
  reference.btran(want);
  expect_vectors_match(got, want, "btran");

  for (int p = 0; p < m; ++p) {
    factor.btran_unit(p, got);
    reference.btran_unit(p, want);
    expect_vectors_match(got, want, "btran_unit");
  }
}

/// Factorize `columns` in both, compare, then run `exchanges` basis
/// exchanges with entering columns drawn from `candidates` (the
/// position of the largest FTRAN entry leaves, as a ratio test with a
/// well-conditioned pivot would pick), comparing after every eta.
void check_against_reference(std::vector<SparseColumn> columns,
                             const std::vector<SparseColumn>& candidates,
                             int exchanges, Rng& rng) {
  const int m = static_cast<int>(columns.size());
  BasisFactor factor;
  ref::DenseBasisInverse reference;
  ASSERT_TRUE(factor.factorize(m, views_of(columns)));
  ASSERT_TRUE(reference.factorize(m, views_of(columns)));
  expect_factor_matches_reference(factor, reference, m, candidates.front(), rng);
  if (::testing::Test::HasFatalFailure()) return;

  int done = 0;
  for (int attempt = 0; done < exchanges && attempt < 20 * exchanges; ++attempt) {
    const SparseColumn& entering =
        candidates[rng.uniform_index(candidates.size())];
    std::vector<double> w, w_ref;
    factor.ftran_column(entering, w);
    int p = 0;
    for (int i = 1; i < m; ++i) {
      if (std::abs(w[i]) > std::abs(w[p])) p = i;
    }
    if (std::abs(w[p]) < 1e-2) continue;
    reference.ftran_column(entering, w_ref);
    factor.append_eta(p, w);
    reference.append_eta(p, w_ref);
    columns[p] = entering;
    ++done;
    SCOPED_TRACE(::testing::Message() << "after eta " << done);
    expect_factor_matches_reference(
        factor, reference, m, candidates[rng.uniform_index(candidates.size())],
        rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(done, exchanges);
}

TEST(BasisFactorReference, RandomBasesMatchDenseInverse) {
  for (const int m : {1, 4, 17, 60}) {
    Rng rng(test_seed(7) + m);
    SCOPED_TRACE(::testing::Message() << "m " << m << " seed " << test_seed(7));
    std::vector<SparseColumn> candidates;
    for (int k = 0; k < 3 * m; ++k) {
      SparseColumn a = random_rhs(m, rng);
      a.push_back({static_cast<int>(rng.uniform_index(m)), 3.0 + rng.uniform()});
      candidates.push_back(std::move(a));
    }
    check_against_reference(random_basis(m, rng), candidates, 40, rng);
  }
}

/// Columns of a compressed model's computational form: its structural
/// columns as stored, then one slack per row (coefficient -1, as the
/// simplex makes them).
std::vector<SparseColumn> computational_columns(const Model& model) {
  std::vector<SparseColumn> columns(model.num_variables() + model.num_rows());
  for (int j = 0; j < model.num_variables(); ++j) {
    const auto column = model.columns().line(j);
    columns[j].assign(column.begin(), column.end());
  }
  for (int r = 0; r < model.num_rows(); ++r) {
    columns[model.num_variables() + r].push_back({r, -1.0});
  }
  return columns;
}

TEST(BasisFactorReference, ScenarioLpBasesMatchDenseInverse) {
  // The optimal bases the evaluators warm-start from: every scenario LP
  // of topology B, both formulations, at its initial capacities.
  const topo::Topology topology = topo::make_preset('B');
  Rng rng(test_seed(8));
  for (const bool aggregate : {true, false}) {
    for (int scenario = 0; scenario <= topology.num_failures(); ++scenario) {
      plan::ScenarioLp lp = plan::build_scenario_lp(topology, scenario, aggregate);
      plan::set_plan_capacities(lp, topology, topology.initial_units());
      const Solution solved = solve(lp.model, solver_options());
      ASSERT_EQ(solved.status, SolveStatus::kOptimal);
      const std::vector<SparseColumn> all = computational_columns(lp.model);
      std::vector<SparseColumn> basic, nonbasic;
      for (std::size_t j = 0; j < all.size(); ++j) {
        (solved.basis.statuses[j] == VarStatus::kBasic ? basic : nonbasic)
            .push_back(all[j]);
      }
      SCOPED_TRACE(::testing::Message()
                   << (aggregate ? "aggregated" : "per-flow") << " scenario "
                   << scenario << " seed " << test_seed(8));
      ASSERT_EQ(static_cast<int>(basic.size()), lp.model.num_rows());
      check_against_reference(std::move(basic), nonbasic, 12, rng);
      if (HasFatalFailure()) return;
    }
  }
}

/// FNV-1a over the bit patterns of `values`, folded into `hash`.
void fnv1a_bits(const std::vector<double>& values, std::uint64_t& hash) {
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3u;
    }
  }
}

TEST(BasisFactorReference, ScenarioLpFactorsAreBitStable) {
  // Pins the factorization's bits, not just its accuracy: the optimal
  // basis of every scenario LP of B and C, both formulations, with the
  // basic columns in ascending variable order (as the simplex's warm
  // start lists them), hashed through ftran and btran of a fixed
  // right-hand side and btran_unit at every position. A change to the
  // elimination that reorders any floating-point operation moves the
  // hash; the simplex's verdicts and the perfbench digests rest on it.
  std::uint64_t hash = 0xcbf29ce484222325u;
  int factorizations = 0;
  for (const char id : {'B', 'C'}) {
    const topo::Topology topology = topo::make_preset(id);
    for (const bool aggregate : {true, false}) {
      for (int scenario = 0; scenario <= topology.num_failures(); ++scenario) {
        plan::ScenarioLp lp = plan::build_scenario_lp(topology, scenario, aggregate);
        plan::set_plan_capacities(lp, topology, topology.initial_units());
        const Solution solved = solve(lp.model, solver_options());
        ASSERT_EQ(solved.status, SolveStatus::kOptimal);
        const std::vector<SparseColumn> all = computational_columns(lp.model);
        std::vector<SparseColumn> basic;
        for (std::size_t j = 0; j < all.size(); ++j) {
          if (solved.basis.statuses[j] == VarStatus::kBasic) basic.push_back(all[j]);
        }
        const int m = lp.model.num_rows();
        ASSERT_EQ(static_cast<int>(basic.size()), m);
        BasisFactor factor;
        ASSERT_TRUE(factor.factorize(m, views_of(basic)));
        ++factorizations;

        std::vector<double> x(m);
        for (int i = 0; i < m; ++i) x[i] = 1.0 + 0.25 * (i % 7) - 0.5 * (i % 3);
        std::vector<double> y = x;
        factor.ftran(x);
        factor.btran(y);
        fnv1a_bits(x, hash);
        fnv1a_bits(y, hash);
        std::vector<double> rho;
        for (int p = 0; p < m; ++p) {
          factor.btran_unit(p, rho);
          fnv1a_bits(rho, hash);
        }
      }
    }
  }
  EXPECT_GT(factorizations, 40);
  EXPECT_EQ(hash, 0x855ca9a9fd483c7cu) << "hash 0x" << std::hex << hash;
}

}  // namespace
}  // namespace np::lp
