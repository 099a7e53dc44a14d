// GAT encoder: attention-aggregation gradients vs finite differences,
// attention normalization, and the actor-critic GAT configuration.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "nn/actor_critic.hpp"
#include "nn/gat.hpp"
#include "util/rng.hpp"

namespace np::nn {
namespace {

using la::Matrix;

std::shared_ptr<la::CsrMatrix> ring_adjacency(int n) {
  std::vector<la::Triplet> t;
  const double w = 1.0 / 3.0;
  for (int i = 0; i < n; ++i) {
    t.push_back({static_cast<std::size_t>(i), static_cast<std::size_t>(i), w});
    t.push_back({static_cast<std::size_t>(i), static_cast<std::size_t>((i + 1) % n), w});
    t.push_back({static_cast<std::size_t>(i),
                 static_cast<std::size_t>((i + n - 1) % n), w});
  }
  return std::make_shared<la::CsrMatrix>(
      la::CsrMatrix(static_cast<std::size_t>(n), static_cast<std::size_t>(n), t));
}

std::shared_ptr<std::vector<std::vector<int>>> ring_neighbors(int n) {
  auto lists = std::make_shared<std::vector<std::vector<int>>>(n);
  for (int i = 0; i < n; ++i) {
    (*lists)[i] = {i, (i + 1) % n, (i + n - 1) % n};
  }
  return lists;
}

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng, double scale = 1.0) {
  Matrix m(r, c);
  for (double& v : m.flat()) v = rng.normal() * scale;
  return m;
}

void check_gradient(ad::Parameter& param,
                    const std::function<ad::Tensor(ad::Tape&)>& build,
                    double tolerance = 1e-5) {
  ad::Tape tape;
  param.zero_grad();
  tape.backward(build(tape));
  const Matrix analytic = param.grad;
  const double h = 1e-6;
  for (std::size_t i = 0; i < param.value.flat().size(); ++i) {
    const double saved = param.value.flat()[i];
    param.value.flat()[i] = saved + h;
    ad::Tape tp;
    const double up = tp.value(build(tp))(0, 0);
    param.value.flat()[i] = saved - h;
    ad::Tape tm;
    const double down = tm.value(build(tm))(0, 0);
    param.value.flat()[i] = saved;
    EXPECT_NEAR(analytic.flat()[i], (up - down) / (2 * h), tolerance)
        << param.name << " entry " << i;
  }
}

TEST(GatAggregate, AttentionWeightsFormConvexCombination) {
  // With all scores equal, the output is the neighborhood mean.
  ad::Tape tape;
  const int n = 4;
  ad::Tensor src = tape.constant(Matrix(n, 1, 0.0));
  ad::Tensor dst = tape.constant(Matrix(n, 1, 0.0));
  Matrix z(n, 2);
  for (int i = 0; i < n; ++i) {
    z(i, 0) = i;
    z(i, 1) = 2.0 * i;
  }
  ad::Tensor out = tape.gat_aggregate(src, dst, tape.constant(z), ring_neighbors(n));
  // Node 0's neighborhood = {0, 1, 3}: mean of rows.
  EXPECT_NEAR(tape.value(out)(0, 0), (0.0 + 1.0 + 3.0) / 3.0, 1e-12);
  EXPECT_NEAR(tape.value(out)(0, 1), (0.0 + 2.0 + 6.0) / 3.0, 1e-12);
}

TEST(GatAggregate, GradientWrtFeatures) {
  Rng rng(1);
  ad::Parameter z("z", random_matrix(5, 3, rng));
  auto neighbors = ring_neighbors(5);
  const Matrix src = random_matrix(5, 1, rng, 0.3);
  const Matrix dst = random_matrix(5, 1, rng, 0.3);
  check_gradient(z, [&](ad::Tape& t) {
    return t.sum(t.square(t.gat_aggregate(t.constant(src), t.constant(dst),
                                          t.parameter(z), neighbors)));
  });
}

TEST(GatAggregate, GradientWrtScores) {
  Rng rng(2);
  ad::Parameter src("src", random_matrix(5, 1, rng, 0.3));
  ad::Parameter dst("dst", random_matrix(5, 1, rng, 0.3));
  const Matrix z = random_matrix(5, 3, rng);
  auto neighbors = ring_neighbors(5);
  check_gradient(src, [&](ad::Tape& t) {
    return t.sum(t.square(t.gat_aggregate(t.parameter(src), t.constant(dst.value),
                                          t.constant(z), neighbors)));
  });
  check_gradient(dst, [&](ad::Tape& t) {
    return t.sum(t.square(t.gat_aggregate(t.constant(src.value), t.parameter(dst),
                                          t.constant(z), neighbors)));
  });
}

TEST(GatAggregate, ValidatesInputs) {
  ad::Tape tape;
  ad::Tensor src = tape.constant(Matrix(3, 1, 0.0));
  ad::Tensor dst = tape.constant(Matrix(3, 1, 0.0));
  ad::Tensor z = tape.constant(Matrix(3, 2, 0.0));
  EXPECT_THROW(tape.gat_aggregate(src, dst, z, nullptr), std::invalid_argument);
  auto wrong_size = std::make_shared<std::vector<std::vector<int>>>(2);
  EXPECT_THROW(tape.gat_aggregate(src, dst, z, wrong_size), std::invalid_argument);
  auto out_of_range = std::make_shared<std::vector<std::vector<int>>>(
      std::vector<std::vector<int>>{{0}, {5}, {2}});
  EXPECT_THROW(tape.gat_aggregate(src, dst, z, out_of_range), std::invalid_argument);
  auto empty_list = std::make_shared<std::vector<std::vector<int>>>(
      std::vector<std::vector<int>>{{0}, {}, {2}});
  EXPECT_THROW(tape.gat_aggregate(src, dst, z, empty_list), std::invalid_argument);
}

TEST(GatEncoder, ShapesAndParameters) {
  Rng rng(3);
  GatEncoder gat("g", 4, 8, 2, rng);
  EXPECT_EQ(gat.output_dim(), 8);
  EXPECT_EQ(gat.num_layers(), 2);
  EXPECT_EQ(gat.parameters().size(), 8u);  // 2 layers x (W, b, a_src, a_dst)
  ad::Tape tape;
  ad::Tensor out = gat.forward(tape, ring_adjacency(6), tape.constant(Matrix(6, 4, 0.5)));
  EXPECT_EQ(tape.value(out).rows(), 6u);
  EXPECT_EQ(tape.value(out).cols(), 8u);
  EXPECT_FALSE(tape.value(out).has_non_finite());
}

TEST(GatEncoder, ZeroLayersIsIdentity) {
  Rng rng(4);
  GatEncoder gat("g", 4, 8, 0, rng);
  EXPECT_EQ(gat.output_dim(), 4);
  ad::Tape tape;
  Matrix x(3, 4, 1.25);
  ad::Tensor out = gat.forward(tape, nullptr, tape.constant(x));
  EXPECT_EQ(tape.value(out), x);
}

TEST(GatEncoder, EndToEndGradientThroughLayer) {
  Rng rng(5);
  GatEncoder gat("g", 3, 4, 1, rng);
  auto adjacency = ring_adjacency(5);
  const Matrix x = random_matrix(5, 3, rng);
  for (ad::Parameter* p : gat.parameters()) p->zero_grad();
  ad::Tape tape;
  tape.backward(tape.sum(tape.square(gat.forward(tape, adjacency, tape.constant(x)))));
  bool any = false;
  for (ad::Parameter* p : gat.parameters()) any = any || p->grad.max_abs() > 0.0;
  EXPECT_TRUE(any);
}

TEST(ActorCritic, GatBackendProducesValidPolicy) {
  Rng rng(6);
  NetworkConfig c;
  c.feature_dim = 4;
  c.gnn_type = GnnType::kGat;
  c.gcn_layers = 2;
  c.gcn_hidden = 8;
  c.mlp_hidden = {8};
  c.max_units_per_step = 2;
  ActorCritic net(c, rng);
  EXPECT_EQ(net.gnn_parameters().size(), 8u);
  ad::Tape tape;
  std::vector<std::uint8_t> mask(5 * 2, 1);
  ad::Tensor lp = net.policy_log_probs(tape, ring_adjacency(5), Matrix(5, 4, 0.1), mask);
  double total = 0.0;
  for (std::size_t i = 0; i < mask.size(); ++i) total += std::exp(tape.value(lp)(0, i));
  EXPECT_NEAR(total, 1.0, 1e-9);
  ad::Tensor v = net.value(tape, ring_adjacency(5), Matrix(5, 4, 0.1));
  EXPECT_FALSE(tape.value(v).has_non_finite());
}

/// Same node count as ring_adjacency(n), different pattern: every node
/// attends to itself and to node 0.
std::shared_ptr<la::CsrMatrix> star_adjacency(int n) {
  std::vector<la::Triplet> t;
  for (int i = 0; i < n; ++i) {
    t.push_back({static_cast<std::size_t>(i), static_cast<std::size_t>(i), 0.5});
    if (i != 0) t.push_back({static_cast<std::size_t>(i), 0, 0.5});
  }
  return std::make_shared<la::CsrMatrix>(
      la::CsrMatrix(static_cast<std::size_t>(n), static_cast<std::size_t>(n), t));
}

TEST(GatEncoderCache, DeadAdjacencyAddressNeverServesStaleNeighbors) {
  Rng rng_cached(91), rng_fresh(91);
  GatEncoder cached("g", 4, 8, 2, rng_cached);
  GatEncoder fresh("g", 4, 8, 2, rng_fresh);
  Rng data(92);
  const Matrix x = random_matrix(6, 4, data);
  {
    // Forward through X, then drop X: the allocator may hand its
    // address to the next matrix of the same size.
    auto ring = ring_adjacency(6);
    ad::Tape tape;
    cached.forward(tape, ring, tape.constant(x));
  }
  auto star = star_adjacency(6);
  ad::Tape got_tape, want_tape;
  const Matrix got = got_tape.value(cached.forward(got_tape, star, got_tape.constant(x)));
  const Matrix want =
      want_tape.value(fresh.forward(want_tape, star, want_tape.constant(x)));
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace np::nn
