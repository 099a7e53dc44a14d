// Simplex correctness: hand-checked LPs covering every status, bound
// structure and warm starts, plus a randomized property sweep comparing
// against brute-force vertex enumeration on small dense LPs.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace np::lp {
namespace {

TEST(Model, AddAndQuery) {
  Model m;
  const int x = m.add_variable(0.0, 10.0, 1.0);
  const int y = m.add_variable(-kInfinity, kInfinity, -2.0);
  const int r = m.add_row(-kInfinity, 5.0, {{x, 1.0}, {y, 2.0}});
  EXPECT_EQ(m.num_variables(), 2);
  EXPECT_EQ(m.num_rows(), 1);
  EXPECT_DOUBLE_EQ(m.variable(x).upper, 10.0);
  EXPECT_DOUBLE_EQ(m.row(r).upper, 5.0);
  EXPECT_FALSE(m.variable(y).is_integer);
  m.set_integer(y, true);
  EXPECT_TRUE(m.variable(y).is_integer);
}

TEST(Model, RejectsInvertedBounds) {
  Model m;
  EXPECT_THROW(m.add_variable(1.0, 0.0, 0.0), std::invalid_argument);
  m.add_variable(0.0, 1.0, 0.0);
  EXPECT_THROW(m.add_row(2.0, 1.0, {}), std::invalid_argument);
  EXPECT_THROW(m.set_variable_bounds(0, 3.0, 2.0), std::invalid_argument);
}

TEST(Model, RejectsUnknownVariableInRow) {
  Model m;
  m.add_variable(0.0, 1.0, 0.0);
  EXPECT_THROW(m.add_row(0.0, 1.0, {{5, 1.0}}), std::out_of_range);
}

TEST(Model, RejectsNonFiniteCoefficients) {
  Model m;
  m.add_variable(0.0, 1.0, 0.0);
  EXPECT_THROW(m.add_row(0.0, 1.0, {{0, std::nan("")}}), std::invalid_argument);
  EXPECT_THROW(m.set_objective_coefficient(0, kInfinity), std::invalid_argument);
}

TEST(Model, ObjectiveAndViolation) {
  Model m;
  const int x = m.add_variable(0.0, 10.0, 2.0);
  const int y = m.add_variable(0.0, 10.0, 3.0);
  m.add_row(-kInfinity, 4.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_DOUBLE_EQ(m.objective_value({1.0, 2.0}), 8.0);
  EXPECT_DOUBLE_EQ(m.max_violation({1.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.max_violation({3.0, 2.0}), 1.0);   // row violated by 1
  EXPECT_DOUBLE_EQ(m.max_violation({-1.0, 0.0}), 1.0);  // bound violated by 1
}

// ---- basic solves ----

TEST(Simplex, SimpleMaximizationAsMinimization) {
  // max x + y st x + 2y <= 4, 3x + y <= 6, x,y >= 0 -> optimum (1.6, 1.2), 2.8.
  Model m;
  const int x = m.add_variable(0.0, kInfinity, -1.0);
  const int y = m.add_variable(0.0, kInfinity, -1.0);
  m.add_row(-kInfinity, 4.0, {{x, 1.0}, {y, 2.0}});
  m.add_row(-kInfinity, 6.0, {{x, 3.0}, {y, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -2.8, 1e-7);
  EXPECT_NEAR(s.x[x], 1.6, 1e-7);
  EXPECT_NEAR(s.x[y], 1.2, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y st x + y = 3, x <= 1 -> (1, 2), objective 3 (unique on x).
  Model m;
  const int x = m.add_variable(0.0, 1.0, 2.0);
  const int y = m.add_variable(0.0, kInfinity, 1.0);
  m.add_row(3.0, 3.0, {{x, 1.0}, {y, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[x] + s.x[y], 3.0, 1e-7);
  EXPECT_NEAR(s.objective, 3.0 + s.x[x], 1e-7);
  EXPECT_NEAR(s.x[x], 0.0, 1e-7);  // cheaper to use y
}

TEST(Simplex, GreaterEqualRows) {
  // min 2x + y st x + y >= 4, x >= 1, y >= 0 -> (1, 3), objective 5.
  Model m;
  const int x = m.add_variable(1.0, kInfinity, 2.0);
  const int y = m.add_variable(0.0, kInfinity, 1.0);
  m.add_row(4.0, kInfinity, {{x, 1.0}, {y, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-7);
}

TEST(Simplex, RangeRow) {
  // min x st 2 <= x + y <= 5, y <= 1 -> x = 1.
  Model m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  const int y = m.add_variable(0.0, 1.0, 0.0);
  m.add_row(2.0, 5.0, {{x, 1.0}, {y, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-7);
}

TEST(Simplex, FreeVariable) {
  // min x st x >= -7 via row (free variable).
  Model m;
  const int x = m.add_variable(-kInfinity, kInfinity, 1.0);
  m.add_row(-7.0, kInfinity, {{x, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -7.0, 1e-7);
}

TEST(Simplex, InfeasibleDetected) {
  Model m;
  const int x = m.add_variable(0.0, 1.0, 1.0);
  m.add_row(5.0, kInfinity, {{x, 1.0}});  // x >= 5 but x <= 1
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, InfeasibleEqualitySystem) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, 0.0);
  const int y = m.add_variable(0.0, kInfinity, 0.0);
  m.add_row(1.0, 1.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(3.0, 3.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, -1.0);  // min -x, x unbounded above
  m.add_row(0.0, kInfinity, {{x, 1.0}});
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, UnboundedFreeVariableNoRows) {
  Model m;
  m.add_variable(-kInfinity, kInfinity, 1.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, NoRowsPicksCheapestBounds) {
  Model m;
  const int x = m.add_variable(-1.0, 2.0, 1.0);   // min -> lower bound
  const int y = m.add_variable(-1.0, 2.0, -1.0);  // min -> upper bound
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[x], -1.0, 1e-9);
  EXPECT_NEAR(s.x[y], 2.0, 1e-9);
}

TEST(Simplex, EmptyModelIsOptimalZero) {
  Model m;
  Solution s = solve(m);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(Simplex, FixedVariablesRespected) {
  Model m;
  const int x = m.add_variable(2.0, 2.0, 1.0);
  const int y = m.add_variable(0.0, kInfinity, 1.0);
  m.add_row(5.0, kInfinity, {{x, 1.0}, {y, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 2.0, 1e-9);
  EXPECT_NEAR(s.x[y], 3.0, 1e-7);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y st x + y >= -4, bounds [-3, 0].
  Model m;
  const int x = m.add_variable(-3.0, 0.0, 1.0);
  const int y = m.add_variable(-3.0, 0.0, 1.0);
  m.add_row(-4.0, kInfinity, {{x, 1.0}, {y, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-7);
}

TEST(Simplex, DegenerateLpTerminates) {
  // Multiple redundant constraints through the same vertex.
  Model m;
  const int x = m.add_variable(0.0, kInfinity, -1.0);
  const int y = m.add_variable(0.0, kInfinity, -1.0);
  m.add_row(-kInfinity, 2.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(-kInfinity, 2.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(-kInfinity, 4.0, {{x, 2.0}, {y, 2.0}});
  m.add_row(-kInfinity, 1.0, {{x, 1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-7);
}

TEST(Simplex, IterationLimitReported) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, -1.0);
  m.add_row(-kInfinity, 10.0, {{x, 1.0}});
  SimplexOptions options;
  options.max_iterations = 0;
  EXPECT_EQ(solve(m, options).status, SolveStatus::kIterationLimit);
}

TEST(Simplex, TimeLimitReported) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, -1.0);
  m.add_row(-kInfinity, 10.0, {{x, 1.0}});
  SimplexOptions options;
  options.time_limit_seconds = 0.0;
  EXPECT_EQ(solve(m, options).status, SolveStatus::kTimeLimit);
}

TEST(Simplex, WarmStartReproducesOptimum) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, -1.0);
  const int y = m.add_variable(0.0, kInfinity, -2.0);
  m.add_row(-kInfinity, 4.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(-kInfinity, 5.0, {{x, 2.0}, {y, 1.0}});
  Solution cold = solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);

  SimplexOptions options;
  options.warm_start = &cold.basis;
  Solution warm = solve(m, options);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  // Warm solve from the optimal basis should barely iterate.
  EXPECT_LE(warm.iterations, 2);
  EXPECT_EQ(warm.start_path, StartPath::kWarmPrimal);
}

TEST(Simplex, WarmStartAfterRelaxingBoundStaysValid) {
  // Loosening an upper bound keeps the old basis primal feasible, so the
  // warm start must be accepted and improved from.
  Model m;
  const int x = m.add_variable(0.0, 1.0, -1.0);
  m.add_row(-kInfinity, 10.0, {{x, 1.0}});
  Solution first = solve(m);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_NEAR(first.objective, -1.0, 1e-9);

  m.set_variable_bounds(x, 0.0, 5.0);
  SimplexOptions options;
  options.warm_start = &first.basis;
  Solution second = solve(m, options);
  ASSERT_EQ(second.status, SolveStatus::kOptimal);
  EXPECT_NEAR(second.objective, -5.0, 1e-9);
}

TEST(Simplex, BogusWarmStartFallsBackToColdStart) {
  Model m;
  const int x = m.add_variable(0.0, 2.0, -1.0);
  m.add_row(-kInfinity, 1.5, {{x, 1.0}});
  Basis bogus;
  bogus.statuses = {VarStatus::kBasic, VarStatus::kBasic};  // two basics, one row
  SimplexOptions options;
  options.warm_start = &bogus;
  Solution s = solve(m, options);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -1.5, 1e-7);
}

TEST(Simplex, RedundantRowsStillWarmStartable) {
  // Duplicate equality rows leave artificials basic after phase 1 in
  // many pivot orders; the exported basis must still be valid for warm
  // starts (purge_artificials) or fall back gracefully.
  Model m;
  const int x = m.add_variable(0.0, 10.0, 1.0);
  const int y = m.add_variable(0.0, 10.0, 2.0);
  m.add_row(6.0, 6.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(6.0, 6.0, {{x, 1.0}, {y, 1.0}});  // redundant copy
  m.add_row(12.0, 12.0, {{x, 2.0}, {y, 2.0}});  // scaled copy
  Solution first = solve(m);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_NEAR(first.objective, 6.0, 1e-7);  // all on x

  // Warm start after a bound change must agree with a cold solve.
  m.set_variable_bounds(x, 0.0, 2.0);
  SimplexOptions options;
  options.warm_start = &first.basis;
  Solution warm = solve(m, options);
  Solution cold = solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
  EXPECT_NEAR(warm.objective, 2.0 + 2.0 * 4.0, 1e-7);
}

TEST(Simplex, SquareEqualitySystem) {
  // As many equality rows as variables: the unique solution.
  Model m;
  const int x = m.add_variable(-kInfinity, kInfinity, 1.0);
  const int y = m.add_variable(-kInfinity, kInfinity, 1.0);
  m.add_row(5.0, 5.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(1.0, 1.0, {{x, 1.0}, {y, -1.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 3.0, 1e-7);
  EXPECT_NEAR(s.x[y], 2.0, 1e-7);
}

TEST(Simplex, StartPathTelemetry) {
  Model m;
  const int x = m.add_variable(0.0, 4.0, -1.0);
  m.add_row(-kInfinity, 3.0, {{x, 1.0}});
  Solution cold = solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_EQ(cold.start_path, StartPath::kCold);

  SimplexOptions warm_options;
  warm_options.warm_start = &cold.basis;
  // Unchanged model: warm basis is primal feasible.
  Solution warm = solve(m, warm_options);
  EXPECT_EQ(warm.start_path, StartPath::kWarmPrimal);

  // Tightened bound below the optimum: repair via the dual simplex.
  m.set_variable_bounds(x, 0.0, 2.0);
  Solution repaired = solve(m, warm_options);
  ASSERT_EQ(repaired.status, SolveStatus::kOptimal);
  EXPECT_EQ(repaired.start_path, StartPath::kDualRepair);
  EXPECT_NEAR(repaired.objective, -2.0, 1e-9);
}

TEST(Simplex, DualRepairDetectsInfeasibleChild) {
  Model m;
  const int x = m.add_variable(0.0, 10.0, 1.0);
  const int y = m.add_variable(0.0, 10.0, 1.0);
  m.add_row(4.0, kInfinity, {{x, 1.0}, {y, 1.0}});
  Solution first = solve(m);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  // Force x + y <= 3 via bounds: x <= 1, y <= 1 makes the row impossible.
  m.set_variable_bounds(x, 0.0, 1.0);
  m.set_variable_bounds(y, 0.0, 1.0);
  SimplexOptions warm_options;
  warm_options.warm_start = &first.basis;
  Solution warm = solve(m, warm_options);
  Solution cold = solve(m);
  EXPECT_EQ(cold.status, SolveStatus::kInfeasible);
  EXPECT_EQ(warm.status, SolveStatus::kInfeasible);
}

// Dual-simplex repair: warm-starting after a bound tightening (the
// branch-and-bound pattern) must agree with a cold solve of the
// modified LP — across statuses, including newly infeasible children.
class DualRepairSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(DualRepairSweep, WarmAfterBoundChangeMatchesCold) {
  Rng rng(5000 + GetParam());
  const int n = 4 + static_cast<int>(rng.uniform_index(10));
  Model m;
  std::vector<double> center(n);
  for (int j = 0; j < n; ++j) {
    center[j] = rng.uniform(-1.0, 1.0);
    m.add_variable(center[j] - 2.0, center[j] + 2.0, rng.uniform(-1.0, 1.0));
  }
  const int rows = 3 + static_cast<int>(rng.uniform_index(8));
  for (int r = 0; r < rows; ++r) {
    std::vector<Coefficient> coeffs;
    double activity = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.uniform() < 0.4) {
        const double coeff = rng.uniform(-2.0, 2.0);
        coeffs.push_back({j, coeff});
        activity += coeff * center[j];
      }
    }
    if (coeffs.empty()) continue;
    m.add_row(activity - rng.uniform(0.0, 2.0), activity + rng.uniform(0.0, 2.0),
              std::move(coeffs));
  }
  Solution first = solve(m);
  ASSERT_EQ(first.status, SolveStatus::kOptimal) << "seed " << GetParam();

  // Tighten one variable's box around/away from its optimal value, as a
  // branching step would.
  const int var = static_cast<int>(rng.uniform_index(n));
  const Variable& v = m.variable(var);
  double new_lower = v.lower, new_upper = v.upper;
  if (rng.uniform() < 0.5) {
    new_upper = std::floor(first.x[var] - 0.3);
  } else {
    new_lower = std::ceil(first.x[var] + 0.3);
  }
  if (new_lower > new_upper) return;  // branching produced an empty box
  m.set_variable_bounds(var, new_lower, new_upper);

  SimplexOptions warm_options;
  warm_options.warm_start = &first.basis;
  Solution warm = solve(m, warm_options);
  Solution cold = solve(m);
  ASSERT_EQ(warm.status, cold.status) << "seed " << GetParam();
  if (cold.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(warm.objective, cold.objective, 1e-5) << "seed " << GetParam();
    EXPECT_LE(m.max_violation(warm.x), 1e-6);
    // The whole point: the warm path must be much cheaper.
    EXPECT_LE(warm.iterations, cold.iterations + 5) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualRepairSweep, ::testing::Range(0u, 50u));

// ---- property sweep vs brute force ----

struct RandomLpCase {
  unsigned seed;
};

class RandomLpSweep : public ::testing::TestWithParam<unsigned> {};

/// Brute-force optimum of min c.x over { l <= x <= u, A x <= b } for 2-3
/// variables by enumerating all basic points (intersections of active
/// constraint/bound pairs) and keeping the feasible minimum. Exact for
/// LPs whose optimum is attained at a vertex (always, when bounded).
double brute_force_min(const Model& m, bool* feasible, bool* bounded) {
  const int n = m.num_variables();
  std::vector<std::vector<double>> hyperplanes;  // a.x = rhs rows incl bounds
  std::vector<double> rhs;
  for (int j = 0; j < n; ++j) {
    std::vector<double> row(n, 0.0);
    row[j] = 1.0;
    hyperplanes.push_back(row);
    rhs.push_back(m.variable(j).lower);
    hyperplanes.push_back(row);
    rhs.push_back(m.variable(j).upper);
  }
  for (int r = 0; r < m.num_rows(); ++r) {
    std::vector<double> row(n, 0.0);
    for (const auto& [var, coeff] : m.row(r).coefficients) row[var] += coeff;
    if (std::isfinite(m.row(r).upper)) {
      hyperplanes.push_back(row);
      rhs.push_back(m.row(r).upper);
    }
    if (std::isfinite(m.row(r).lower)) {
      hyperplanes.push_back(row);
      rhs.push_back(m.row(r).lower);
    }
  }
  const int h = static_cast<int>(hyperplanes.size());
  double best = kInfinity;
  *feasible = false;
  // Enumerate all n-subsets (n is 2 or 3 here) and solve the linear system.
  std::vector<int> idx(n);
  std::function<void(int, int)> recurse = [&](int start, int depth) {
    if (depth == n) {
      // Solve hyperplanes[idx] x = rhs[idx] by Gaussian elimination.
      std::vector<std::vector<double>> a(n, std::vector<double>(n + 1));
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) a[i][j] = hyperplanes[idx[i]][j];
        a[i][n] = rhs[idx[i]];
      }
      for (int col = 0; col < n; ++col) {
        int pivot = -1;
        double mag = 1e-9;
        for (int r2 = col; r2 < n; ++r2) {
          if (std::abs(a[r2][col]) > mag) { mag = std::abs(a[r2][col]); pivot = r2; }
        }
        if (pivot < 0) return;
        std::swap(a[col], a[pivot]);
        for (int r2 = 0; r2 < n; ++r2) {
          if (r2 == col) continue;
          const double f = a[r2][col] / a[col][col];
          for (int c2 = col; c2 <= n; ++c2) a[r2][c2] -= f * a[col][c2];
        }
      }
      std::vector<double> x(n);
      for (int i = 0; i < n; ++i) x[i] = a[i][n] / a[i][i];
      if (m.max_violation(x) <= 1e-7) {
        *feasible = true;
        best = std::min(best, m.objective_value(x));
      }
      return;
    }
    for (int i = start; i < h; ++i) {
      if (!std::isfinite(rhs[i])) continue;
      idx[depth] = i;
      recurse(i + 1, depth + 1);
    }
  };
  recurse(0, 0);
  *bounded = std::isfinite(best) || !*feasible;
  return best;
}

TEST_P(RandomLpSweep, MatchesBruteForceVertexEnumeration) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.uniform_index(2));  // 2 or 3 vars
  Model m;
  for (int j = 0; j < n; ++j) {
    const double lo = rng.uniform(-3.0, 0.0);
    const double hi = lo + rng.uniform(0.5, 5.0);
    m.add_variable(lo, hi, rng.uniform(-2.0, 2.0));
  }
  const int rows = 1 + static_cast<int>(rng.uniform_index(4));
  for (int r = 0; r < rows; ++r) {
    std::vector<Coefficient> coeffs;
    for (int j = 0; j < n; ++j) {
      if (rng.uniform() < 0.8) coeffs.push_back({j, rng.uniform(-2.0, 2.0)});
    }
    if (coeffs.empty()) coeffs.push_back({0, 1.0});
    const double kind = rng.uniform();
    if (kind < 0.4) {
      m.add_row(-kInfinity, rng.uniform(-1.0, 4.0), std::move(coeffs));
    } else if (kind < 0.8) {
      m.add_row(rng.uniform(-4.0, 1.0), kInfinity, std::move(coeffs));
    } else {
      const double lo = rng.uniform(-2.0, 0.0);
      m.add_row(lo, lo + rng.uniform(0.0, 2.0), std::move(coeffs));
    }
  }

  bool feasible = false, bounded = false;
  const double expected = brute_force_min(m, &feasible, &bounded);
  Solution s = solve(m);
  if (!feasible) {
    EXPECT_EQ(s.status, SolveStatus::kInfeasible) << "seed " << GetParam();
  } else {
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "seed " << GetParam();
    EXPECT_NEAR(s.objective, expected, 1e-5) << "seed " << GetParam();
    EXPECT_LE(m.max_violation(s.x), 1e-6);
  }
  (void)bounded;  // bounded by construction (finite variable boxes)
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpSweep, ::testing::Range(0u, 60u));

// Larger random LPs: no external oracle, but the solution must satisfy
// feasibility and basic optimality sanity (objective <= objective of a
// known feasible point).
class LargerRandomLp : public ::testing::TestWithParam<unsigned> {};

TEST_P(LargerRandomLp, FeasibleAndNoWorseThanCenterPoint) {
  Rng rng(1000 + GetParam());
  const int n = 10 + static_cast<int>(rng.uniform_index(20));
  Model m;
  std::vector<double> center(n);
  for (int j = 0; j < n; ++j) {
    center[j] = rng.uniform(-1.0, 1.0);
    m.add_variable(center[j] - 2.0, center[j] + 2.0, rng.uniform(-1.0, 1.0));
  }
  // Rows built to be satisfied at `center`, so the LP is feasible.
  const int rows = 5 + static_cast<int>(rng.uniform_index(15));
  for (int r = 0; r < rows; ++r) {
    std::vector<Coefficient> coeffs;
    double activity = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.uniform() < 0.3) {
        const double coeff = rng.uniform(-2.0, 2.0);
        coeffs.push_back({j, coeff});
        activity += coeff * center[j];
      }
    }
    if (coeffs.empty()) continue;
    m.add_row(activity - rng.uniform(0.0, 3.0), activity + rng.uniform(0.0, 3.0),
              std::move(coeffs));
  }
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_LE(m.max_violation(s.x), 1e-6);
  EXPECT_LE(s.objective, m.objective_value(center) + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LargerRandomLp, ::testing::Range(0u, 25u));

// Every core verdict and the warm-start contract on small models of
// their own, instantiated once per basis factorization the simplex
// ships. Sparse LU (lp/factor.hpp) is the only one; the dense
// Gauss-Jordan inverse survives as a check on it in
// tests/reference_basis.hpp, not as a solver engine.
enum class Factorization { kSparseLu };

class SimplexEngines : public ::testing::TestWithParam<Factorization> {};

TEST_P(SimplexEngines, OptimalWithMixedRowTypes) {
  Model m;
  const int x = m.add_variable(0.0, 10.0, -3.0);
  const int y = m.add_variable(0.0, kInfinity, -5.0);
  m.add_row(-kInfinity, 4.0, {{x, 1.0}});
  m.add_row(-kInfinity, 12.0, {{y, 2.0}});
  m.add_row(-kInfinity, 18.0, {{x, 3.0}, {y, 2.0}});
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-7);
  EXPECT_NEAR(s.x[x], 2.0, 1e-7);
  EXPECT_NEAR(s.x[y], 6.0, 1e-7);
}

TEST_P(SimplexEngines, InfeasibleDetected) {
  Model m;
  const int x = m.add_variable(0.0, 1.0, 0.0);
  m.add_row(2.0, kInfinity, {{x, 1.0}});
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST_P(SimplexEngines, UnboundedDetected) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, -1.0);
  m.add_row(0.0, kInfinity, {{x, 1.0}});
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST_P(SimplexEngines, WarmStartReproducesOptimum) {
  Model m;
  const int x = m.add_variable(0.0, 4.0, -2.0);
  const int y = m.add_variable(0.0, 4.0, -3.0);
  m.add_row(-kInfinity, 6.0, {{x, 1.0}, {y, 1.0}});
  Solution cold = solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  SimplexOptions options;
  options.warm_start = &cold.basis;
  Solution warm = solve(m, options);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_LE(warm.iterations, 2);
  EXPECT_EQ(warm.start_path, StartPath::kWarmPrimal);
}

TEST_P(SimplexEngines, WarmStartSurvivesBoundTightening) {
  // Tightening a bound makes the warm basis primal infeasible: the
  // dual-repair path must recover the new optimum.
  Model m;
  const int x = m.add_variable(0.0, 5.0, -1.0);
  const int y = m.add_variable(0.0, 5.0, -1.0);
  m.add_row(-kInfinity, 8.0, {{x, 1.0}, {y, 1.0}});
  Solution first = solve(m);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  m.set_variable_bounds(x, 0.0, 2.0);
  SimplexOptions options;
  options.warm_start = &first.basis;
  Solution repaired = solve(m, options);
  ASSERT_EQ(repaired.status, SolveStatus::kOptimal);
  EXPECT_NEAR(repaired.objective, -7.0, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Engines, SimplexEngines,
                         ::testing::Values(Factorization::kSparseLu),
                         [](const ::testing::TestParamInfo<Factorization>&) {
                           return "SparseLu";
                         });

}  // namespace
}  // namespace np::lp
