// Tests for the §3.2 extensions: region decomposition and parameter
// checkpoints.
#include <gtest/gtest.h>

#include <sstream>

#include "ad/checkpoint.hpp"
#include "core/baselines.hpp"
#include "core/decomposition.hpp"
#include "nn/actor_critic.hpp"
#include "temp_path.hpp"
#include "topo/generator.hpp"
#include "util/rng.hpp"

namespace np {
namespace {

// ---- region decomposition ----

TEST(Decomposition, ProducesFeasiblePlan) {
  topo::Topology t = topo::make_preset('B');
  core::LazySolveConfig regional;
  regional.time_limit_per_solve_seconds = 20.0;
  regional.total_time_limit_seconds = 60.0;
  regional.relative_gap = 1e-2;
  const core::DecompositionResult r = core::solve_region_decomposition(t, regional);
  ASSERT_TRUE(r.plan.feasible) << r.plan.detail;
  EXPECT_EQ(r.regions, 2);
  EXPECT_TRUE(core::verify_result(t, r.plan).feasible);
}

TEST(Decomposition, NoWorseThanGreedyEverywhere) {
  // The repair pass takes elementwise max with greedy only when needed,
  // so cost <= greedy + regional refinement can only shave regional fat
  // ... but stitching may also overprovision; assert feasibility and a
  // sane bound instead of strict dominance.
  topo::Topology t = topo::make_preset('A');
  const core::DecompositionResult r = core::solve_region_decomposition(t, {});
  const core::PlanResult greedy = core::solve_greedy(t);
  ASSERT_TRUE(r.plan.feasible);
  ASSERT_TRUE(greedy.feasible);
  EXPECT_LE(r.plan.cost, 2.0 * greedy.cost);
}

// ---- checkpoints ----

TEST(Checkpoint, RoundTripRestoresValues) {
  Rng rng(5);
  nn::NetworkConfig c;
  c.feature_dim = 4;
  c.gcn_layers = 1;
  c.gcn_hidden = 8;
  c.mlp_hidden = {8};
  c.max_units_per_step = 2;
  nn::ActorCritic a(c, rng), b(c, rng);
  // Perturb b so it differs from a.
  for (ad::Parameter* p : b.all_parameters()) {
    for (double& v : p->value.flat()) v += 1.0;
  }
  std::stringstream buffer;
  ad::save_parameters(a.all_parameters(), buffer);
  ad::load_parameters(b.all_parameters(), buffer);
  const auto pa = a.all_parameters();
  const auto pb = b.all_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_LT(la::max_abs_diff(pa[i]->value, pb[i]->value), 1e-15) << pa[i]->name;
  }
}

TEST(Checkpoint, ShapeMismatchThrows) {
  ad::Parameter small("w", la::Matrix(2, 2, 1.0));
  ad::Parameter big("w", la::Matrix(3, 3, 1.0));
  std::stringstream buffer;
  ad::save_parameters({&small}, buffer);
  EXPECT_THROW(ad::load_parameters({&big}, buffer), std::runtime_error);
}

TEST(Checkpoint, UnknownParameterThrows) {
  ad::Parameter a("a", la::Matrix(1, 1, 1.0));
  ad::Parameter b("b", la::Matrix(1, 1, 1.0));
  std::stringstream buffer;
  ad::save_parameters({&a}, buffer);
  EXPECT_THROW(ad::load_parameters({&b}, buffer), std::runtime_error);
}

TEST(Checkpoint, MissingParameterThrows) {
  ad::Parameter a("a", la::Matrix(1, 1, 1.0));
  ad::Parameter b("b", la::Matrix(1, 1, 1.0));
  std::stringstream buffer;
  ad::save_parameters({&a}, buffer);
  EXPECT_THROW(ad::load_parameters({&a, &b}, buffer), std::runtime_error);
}

TEST(Checkpoint, RejectsWhitespaceNames) {
  ad::Parameter bad("has space", la::Matrix(1, 1, 1.0));
  std::stringstream buffer;
  EXPECT_THROW(ad::save_parameters({&bad}, buffer), std::invalid_argument);
}

TEST(Checkpoint, FileRoundTrip) {
  ad::Parameter p("w", la::Matrix{{1.5, -2.25}});
  const std::string path = test::temp_path("np_ckpt_test.txt");
  ad::save_parameters_file({&p}, path);
  p.value(0, 0) = 0.0;
  ad::load_parameters_file({&p}, path);
  EXPECT_DOUBLE_EQ(p.value(0, 0), 1.5);
  EXPECT_THROW(ad::load_parameters_file({&p}, "/nonexistent/x.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace np
