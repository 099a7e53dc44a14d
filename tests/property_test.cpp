// Additional cross-cutting property sweeps:
//  * MILP optimum vs its LP relaxation (weak duality of relaxations),
//  * node-link transformation vs a brute-force restatement of its
//    definition on generated topologies,
//  * CoS reliability-policy semantics end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "plan/evaluator.hpp"
#include "topo/generator.hpp"
#include "topo/transform.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace np {
namespace {

/// Deterministic per-test seed: fixed in (suite parameter, stride),
/// offset as a whole by NEUROPLAN_TEST_SEED for reproducible
/// alternative sweeps. Failures report it via SCOPED_TRACE.
std::uint64_t sweep_seed(unsigned param, unsigned stride, unsigned base) {
  return static_cast<std::uint64_t>(env_long("NEUROPLAN_TEST_SEED", 0)) +
         param * stride + base;
}

// ---- MILP vs LP relaxation ----

class MilpRelaxationSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(MilpRelaxationSweep, OptimumDominatedByRelaxation) {
  const std::uint64_t seed = sweep_seed(GetParam(), 271, 17);
  SCOPED_TRACE(::testing::Message()
               << "sweep seed " << seed
               << " (offset the sweep with NEUROPLAN_TEST_SEED=<n>)");
  RecordProperty("seed", static_cast<int>(seed));
  Rng rng(seed);
  const int n = 3 + static_cast<int>(rng.uniform_index(4));
  lp::Model m;
  for (int j = 0; j < n; ++j) {
    const bool integer = rng.uniform() < 0.6;
    m.set_integer(m.add_variable(0.0, 5.0, rng.uniform(-2.0, 2.0)), integer);
  }
  for (int r = 0; r < 3; ++r) {
    std::vector<lp::Coefficient> coeffs;
    for (int j = 0; j < n; ++j) {
      if (rng.uniform() < 0.6) coeffs.push_back({j, rng.uniform(-1.5, 1.5)});
    }
    if (coeffs.empty()) coeffs.push_back({0, 1.0});
    m.add_row(-lp::kInfinity, rng.uniform(1.0, 6.0), std::move(coeffs));
  }
  const lp::Solution relaxed = lp::solve(m);
  const milp::MilpResult integral = milp::solve(m);
  if (integral.status == milp::MilpStatus::kOptimal) {
    ASSERT_EQ(relaxed.status, lp::SolveStatus::kOptimal);
    // Weak duality of relaxations: LP optimum <= MILP optimum.
    EXPECT_LE(relaxed.objective, integral.objective + 1e-6) << "seed " << GetParam();
    // Integrality of the integer coordinates.
    for (int j = 0; j < n; ++j) {
      if (m.variable(j).is_integer) {
        EXPECT_NEAR(integral.x[j], std::round(integral.x[j]), 1e-6);
      }
    }
    EXPECT_LE(m.max_violation(integral.x), 1e-6);
  } else if (integral.status == milp::MilpStatus::kInfeasible) {
    // The relaxation may still be feasible; nothing to assert beyond
    // the LP not being unbounded-infeasible nonsense.
    EXPECT_NE(relaxed.status, lp::SolveStatus::kIterationLimit);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpRelaxationSweep, ::testing::Range(0u, 30u));

// ---- node-link transformation vs definition ----

class TransformDefinitionSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(TransformDefinitionSweep, EdgesMatchBruteForceDefinition) {
  topo::GeneratorParams p = topo::preset('B');
  p.seed = static_cast<unsigned>(sweep_seed(GetParam(), 1, 300));
  SCOPED_TRACE(::testing::Message()
               << "generator seed " << p.seed
               << " (offset the sweep with NEUROPLAN_TEST_SEED=<n>)");
  RecordProperty("seed", static_cast<int>(p.seed));
  p.parallel_link_fraction = 0.5;  // stress the parallel-link exclusion
  const topo::Topology t = topo::generate(p);
  const topo::TransformedGraph g = topo::node_link_transform(t);
  ASSERT_EQ(g.num_nodes, t.num_links());

  std::set<std::pair<int, int>> got(g.edges.begin(), g.edges.end());
  std::set<std::pair<int, int>> expected;
  for (int i = 0; i < t.num_links(); ++i) {
    for (int j = i + 1; j < t.num_links(); ++j) {
      const auto& a = t.link(i);
      const auto& b = t.link(j);
      const bool share = a.site_a == b.site_a || a.site_a == b.site_b ||
                         a.site_b == b.site_a || a.site_b == b.site_b;
      const bool parallel =
          std::minmax(a.site_a, a.site_b) == std::minmax(b.site_a, b.site_b);
      if (share && !parallel) expected.insert({i, j});
    }
  }
  EXPECT_EQ(got, expected) << "seed " << p.seed;

  // The normalized adjacency has a positive diagonal (self loops) and
  // matches the edge set's sparsity pattern off-diagonal.
  for (int i = 0; i < g.num_nodes; ++i) {
    EXPECT_GT(g.normalized_adjacency->at(i, i), 0.0);
  }
  for (const auto& [i, j] : expected) {
    EXPECT_GT(g.normalized_adjacency->at(i, j), 0.0);
    EXPECT_GT(g.normalized_adjacency->at(j, i), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformDefinitionSweep, ::testing::Range(0u, 6u));

// ---- CoS reliability-policy semantics ----

TEST(CosPolicy, SilverFlowsAreNotProtectedUnderFailures) {
  // Two flows A->D: gold 100G and silver 100G; both links carry 1 unit.
  // Healthy: need 200G total -> 2 units on some path; under a failure
  // only the gold 100G must survive.
  topo::Topology t;
  t.set_capacity_unit_gbps(100.0);
  for (const char* name : {"A", "B", "D"}) t.add_site({name, 0, 0, 0});
  auto fiber = [&](int a, int b) {
    topo::Fiber f;
    f.site_a = a; f.site_b = b; f.length_km = 10.0; f.spectrum_ghz = 4000.0;
    return t.add_fiber(f);
  };
  const int f_ab = fiber(0, 1), f_bd = fiber(1, 2), f_ad = fiber(0, 2);
  auto link = [&](int a, int b, std::vector<int> path) {
    topo::IpLink l;
    l.site_a = a; l.site_b = b; l.fiber_path = std::move(path);
    l.spectrum_per_unit_ghz = 40.0;
    return t.add_ip_link(std::move(l));
  };
  link(0, 2, {f_ab, f_bd});  // A-B-D
  link(0, 2, {f_ad});        // A-D direct (different fiber path)
  t.add_flow({0, 2, 100.0, topo::CoS::kGold});
  t.add_flow({0, 2, 100.0, topo::CoS::kSilver});
  t.add_failure({{f_ad}, {}, "cut-direct"});

  plan::PlanEvaluator eval(t, plan::EvaluatorMode::kSourceAggregation);
  // 1 unit each: healthy needs 200G -> ok (two 100G paths); under the
  // cut only gold's 100G must fit the surviving link -> feasible.
  EXPECT_TRUE(eval.check({1, 1}).feasible);
  eval.reset();
  // 2 + 0: healthy ok (200G on A-B-D), failure trivially ok.
  EXPECT_TRUE(eval.check({2, 0}).feasible);
  eval.reset();
  // 0 + 2: healthy ok, but the cut kills everything -> gold unserved.
  plan::CheckResult r = eval.check({0, 2});
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.violated_scenario, 1);
  EXPECT_NEAR(r.unserved_gbps, 100.0, 1e-6);  // only gold is required

  // Flip the policy to protect silver too: {1, 1} no longer suffices
  // under the cut (200G on a 100G link).
  t.set_reliability_policy({topo::CoS::kSilver});
  plan::PlanEvaluator strict(t, plan::EvaluatorMode::kSourceAggregation);
  EXPECT_FALSE(strict.check({1, 1}).feasible);
  EXPECT_TRUE(strict.check({2, 2}).feasible);
}

}  // namespace
}  // namespace np
