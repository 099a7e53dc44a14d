// Branch-and-bound correctness: knapsacks and covering problems with
// known optima, status/limit handling, warm starts, and a property
// sweep against exhaustive enumeration over small integer boxes.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "milp/branch_and_bound.hpp"
#include "util/rng.hpp"

namespace np::milp {
namespace {

using lp::kInfinity;

/// Add an integer variable to `m`; returns its index.
int add_integer(lp::Model& m, double lower, double upper, double objective) {
  const int j = m.add_variable(lower, upper, objective);
  m.set_integer(j, true);
  return j;
}

TEST(Milp, PureLpPassesThrough) {
  lp::Model m;
  const int x = m.add_variable(0.0, 4.0, -1.0);
  m.add_row(-kInfinity, 2.5, {{x, 1.0}});
  MilpResult r = np::milp::solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -2.5, 1e-7);  // no integer vars: LP optimum
}

TEST(Milp, IntegerRoundingMatters) {
  // max x st x <= 2.5, x integer -> 2 (LP would give 2.5).
  lp::Model m;
  const int x = add_integer(m, 0.0, 10.0, -1.0);
  m.add_row(-kInfinity, 2.5, {{x, 1.0}});
  MilpResult r = np::milp::solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -2.0, 1e-7);
  EXPECT_NEAR(r.x[x], 2.0, 1e-9);
}

TEST(Milp, KnapsackKnownOptimum) {
  // max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binary -> a=0 b=c=1 value 20.
  lp::Model m;
  const int a = add_integer(m, 0.0, 1.0, -10.0);
  const int b = add_integer(m, 0.0, 1.0, -13.0);
  const int c = add_integer(m, 0.0, 1.0, -7.0);
  m.add_row(-kInfinity, 6.0, {{a, 3.0}, {b, 4.0}, {c, 2.0}});
  MilpResult r = np::milp::solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -20.0, 1e-7);
  EXPECT_NEAR(r.x[a], 0.0, 1e-9);
  EXPECT_NEAR(r.x[b], 1.0, 1e-9);
  EXPECT_NEAR(r.x[c], 1.0, 1e-9);
}

TEST(Milp, MixedIntegerContinuous) {
  // min 2u + v st u + v >= 3.5, u integer, v in [0, 1] -> u=3, v=0.5, obj 6.5.
  lp::Model m;
  const int u = add_integer(m, 0.0, 10.0, 2.0);
  const int v = m.add_variable(0.0, 1.0, 1.0);
  m.add_row(3.5, kInfinity, {{u, 1.0}, {v, 1.0}});
  MilpResult r = np::milp::solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.5, 1e-7);
  EXPECT_NEAR(r.x[u], 3.0, 1e-9);
  EXPECT_NEAR(r.x[v], 0.5, 1e-7);
}

TEST(Milp, InfeasibleIntegerBox) {
  // 0.4 <= x <= 0.6 with x integer has no solution.
  lp::Model m;
  add_integer(m, 0.4, 0.6, 1.0);
  EXPECT_EQ(np::milp::solve(m).status, MilpStatus::kInfeasible);
}

TEST(Milp, InfeasibleLpRelaxation) {
  lp::Model m;
  const int x = add_integer(m, 0.0, 1.0, 1.0);
  m.add_row(5.0, kInfinity, {{x, 1.0}});
  EXPECT_EQ(np::milp::solve(m).status, MilpStatus::kInfeasible);
}

TEST(Milp, UnboundedDetected) {
  lp::Model m;
  add_integer(m, 0.0, kInfinity, -1.0);
  EXPECT_EQ(np::milp::solve(m).status, MilpStatus::kUnbounded);
}

TEST(Milp, TimeLimitKeepsIncumbent) {
  lp::Model m;
  const int x = add_integer(m, 0.0, 9.0, -1.0);
  m.add_row(-kInfinity, 7.2, {{x, 1.0}});
  MilpOptions options;
  options.time_limit_seconds = 0.0;
  std::vector<double> start = {3.0};
  options.warm_start = &start;
  MilpResult r = np::milp::solve(m, options);
  EXPECT_EQ(r.status, MilpStatus::kTimeLimit);
  EXPECT_TRUE(r.has_incumbent);
  EXPECT_NEAR(r.objective, -3.0, 1e-9);
}

TEST(Milp, NodeLimitReported) {
  lp::Model m;
  // A knapsack that needs at least a couple of nodes.
  std::vector<int> vars;
  for (int j = 0; j < 8; ++j) {
    vars.push_back(add_integer(m, 0.0, 1.0, -(1.0 + 0.1 * j)));
  }
  std::vector<lp::Coefficient> coeffs;
  for (int j = 0; j < 8; ++j) coeffs.push_back({vars[j], 1.0 + 0.3 * j});
  m.add_row(-kInfinity, 5.0, std::move(coeffs));
  MilpOptions options;
  options.max_nodes = 1;
  options.heuristic_interval = 0;
  MilpResult r = np::milp::solve(m, options);
  EXPECT_TRUE(r.status == MilpStatus::kNodeLimit || r.status == MilpStatus::kOptimal);
}

TEST(Milp, WarmStartAcceptedAndImproved) {
  lp::Model m;
  const int x = add_integer(m, 0.0, 10.0, -1.0);
  m.add_row(-kInfinity, 6.3, {{x, 1.0}});
  std::vector<double> start = {2.0};  // feasible but suboptimal
  MilpOptions options;
  options.warm_start = &start;
  MilpResult r = np::milp::solve(m, options);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -6.0, 1e-7);
}

TEST(Milp, InfeasibleWarmStartIgnored) {
  lp::Model m;
  const int x = add_integer(m, 0.0, 10.0, -1.0);
  m.add_row(-kInfinity, 6.3, {{x, 1.0}});
  std::vector<double> start = {9.0};  // violates the row
  MilpOptions options;
  options.warm_start = &start;
  MilpResult r = np::milp::solve(m, options);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -6.0, 1e-7);
}

TEST(Milp, FractionalWarmStartIgnored) {
  lp::Model m;
  const int x = add_integer(m, 0.0, 10.0, -1.0);
  m.add_row(-kInfinity, 6.3, {{x, 1.0}});
  std::vector<double> start = {2.5};
  MilpOptions options;
  options.warm_start = &start;
  MilpResult r = np::milp::solve(m, options);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -6.0, 1e-7);
}

TEST(Milp, GapIsReportedAsClosedAtOptimum) {
  lp::Model m;
  const int x = add_integer(m, 0.0, 10.0, -1.0);
  m.add_row(-kInfinity, 4.5, {{x, 1.0}});
  MilpResult r = np::milp::solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_LE(r.gap, 1e-6);
}

TEST(Milp, EqualityWithIntegers) {
  // 3x + 5y = 19, x,y >= 0 integer, min x + y -> x=3, y=2.
  lp::Model m;
  const int x = add_integer(m, 0.0, 20.0, 1.0);
  const int y = add_integer(m, 0.0, 20.0, 1.0);
  m.add_row(19.0, 19.0, {{x, 3.0}, {y, 5.0}});
  MilpResult r = np::milp::solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 3.0, 1e-9);
  EXPECT_NEAR(r.x[y], 2.0, 1e-9);
}

TEST(Milp, IntegerWarmStartSeedsIncumbent) {
  // Mixed problem where the continuous part must be re-derived: the
  // integer warm start fixes u and solves for v.
  lp::Model m;
  const int u = add_integer(m, 0.0, 10.0, 2.0);
  const int v = m.add_variable(0.0, 1.0, 1.0);
  m.add_row(3.5, lp::kInfinity, {{u, 1.0}, {v, 1.0}});
  std::vector<double> seed = {5.0, 0.0};  // integer part only; v ignored
  MilpOptions options;
  options.integer_warm_start = &seed;
  options.max_nodes = 0;  // forbid exploration: incumbent must come from the seed
  MilpResult r = np::milp::solve(m, options);
  ASSERT_TRUE(r.has_incumbent);
  EXPECT_NEAR(r.objective, 2.0 * 5.0 + 0.0, 1e-7);  // u=5 needs no v
}

TEST(Milp, IntegerWarmStartClampedIntoBounds) {
  lp::Model m;
  const int x = add_integer(m, 0.0, 3.0, -1.0);
  m.add_row(-lp::kInfinity, 10.0, {{x, 1.0}});
  std::vector<double> seed = {99.0};  // clamped to 3
  MilpOptions options;
  options.integer_warm_start = &seed;
  MilpResult r = np::milp::solve(m, options);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -3.0, 1e-9);
}

TEST(Milp, WrongSizeIntegerWarmStartIgnored) {
  lp::Model m;
  add_integer(m, 0.0, 3.0, -1.0);
  std::vector<double> seed = {1.0, 2.0};
  MilpOptions options;
  options.integer_warm_start = &seed;
  EXPECT_EQ(np::milp::solve(m, options).status, MilpStatus::kOptimal);
}

// ---- property sweep: exhaustive enumeration oracle ----

class RandomMilpSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomMilpSweep, MatchesExhaustiveEnumeration) {
  Rng rng(GetParam() * 7919 + 13);
  const int n = 2 + static_cast<int>(rng.uniform_index(3));  // 2-4 integer vars
  const int box = 4;                                         // each in [0, 4]
  lp::Model m;
  for (int j = 0; j < n; ++j) {
    add_integer(m, 0.0, box, rng.uniform(-3.0, 3.0));
  }
  const int rows = 1 + static_cast<int>(rng.uniform_index(3));
  for (int r = 0; r < rows; ++r) {
    std::vector<lp::Coefficient> coeffs;
    for (int j = 0; j < n; ++j) {
      if (rng.uniform() < 0.7) coeffs.push_back({j, rng.uniform(-2.0, 2.0)});
    }
    if (coeffs.empty()) coeffs.push_back({0, 1.0});
    if (rng.uniform() < 0.5) {
      m.add_row(-kInfinity, rng.uniform(0.0, 2.0 * n), std::move(coeffs));
    } else {
      m.add_row(rng.uniform(-2.0 * n, 0.0), kInfinity, std::move(coeffs));
    }
  }

  // Oracle: enumerate (box+1)^n integer points.
  double best = kInfinity;
  std::vector<double> point(n, 0.0);
  long total = 1;
  for (int j = 0; j < n; ++j) total *= (box + 1);
  for (long code = 0; code < total; ++code) {
    long rem = code;
    for (int j = 0; j < n; ++j) {
      point[j] = static_cast<double>(rem % (box + 1));
      rem /= (box + 1);
    }
    if (m.max_violation(point) <= 1e-9) {
      best = std::min(best, m.objective_value(point));
    }
  }

  MilpResult r = np::milp::solve(m);
  if (!std::isfinite(best)) {
    EXPECT_EQ(r.status, MilpStatus::kInfeasible) << "seed " << GetParam();
  } else {
    ASSERT_EQ(r.status, MilpStatus::kOptimal) << "seed " << GetParam();
    EXPECT_NEAR(r.objective, best, 1e-6) << "seed " << GetParam();
    EXPECT_LE(m.max_violation(r.x), 1e-6);
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(r.x[j], std::round(r.x[j]), 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMilpSweep, ::testing::Range(0u, 40u));

}  // namespace
}  // namespace np::milp
