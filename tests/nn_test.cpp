// Neural-network layers: shapes, gradient checks through composed
// GCN + MLP graphs, the actor-critic policy head semantics, and the
// acting forward (one encoder pass) against the two training forwards.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "nn/actor_critic.hpp"
#include "nn/gcn.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace np::nn {
namespace {

using la::Matrix;

std::shared_ptr<la::CsrMatrix> ring_adjacency(int n) {
  // Normalized ring: each node linked to its two neighbors + self loop.
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

TEST(Linear, ShapeAndBias) {
  Rng rng(1);
  Linear layer("l", 3, 5, rng);
  ad::Tape tape;
  ad::Tensor y = layer.forward(tape, tape.constant(Matrix(4, 3, 1.0)));
  EXPECT_EQ(tape.value(y).rows(), 4u);
  EXPECT_EQ(tape.value(y).cols(), 5u);
  EXPECT_EQ(layer.parameters().size(), 2u);
}

TEST(Linear, RejectsBadDimensions) {
  Rng rng(1);
  EXPECT_THROW(Linear("l", 0, 5, rng), std::invalid_argument);
  EXPECT_THROW(Linear("l", 3, 0, rng), std::invalid_argument);
}

TEST(Linear, InitializationIsScaled) {
  Rng rng(2);
  Linear layer("l", 100, 100, rng);
  // Kaiming: std ~ sqrt(2/100) ~ 0.141; the max over 10k samples should
  // stay well under 1.
  EXPECT_LT(layer.parameters()[0]->value.max_abs(), 1.0);
  EXPECT_DOUBLE_EQ(layer.parameters()[1]->value.max_abs(), 0.0);  // zero bias
}

TEST(Mlp, DepthAndShapes) {
  Rng rng(3);
  Mlp mlp("m", 4, {8, 8}, 2, rng);
  EXPECT_EQ(mlp.in_features(), 4);
  EXPECT_EQ(mlp.out_features(), 2);
  EXPECT_EQ(mlp.parameters().size(), 6u);  // 3 layers x (W, b)
  ad::Tape tape;
  ad::Tensor y = mlp.forward(tape, tape.constant(Matrix(5, 4, 0.5)));
  EXPECT_EQ(tape.value(y).rows(), 5u);
  EXPECT_EQ(tape.value(y).cols(), 2u);
}

TEST(Mlp, NoHiddenLayersIsLinear) {
  Rng rng(4);
  Mlp mlp("m", 3, {}, 2, rng);
  EXPECT_EQ(mlp.parameters().size(), 2u);
}

TEST(Mlp, GradientFlowsToAllParameters) {
  Rng rng(5);
  Mlp mlp("m", 3, {6}, 1, rng);
  ad::Tape tape;
  Matrix x(2, 3);
  for (double& v : x.flat()) v = rng.normal();
  ad::Tensor loss = tape.sum(tape.square(mlp.forward(tape, tape.constant(x))));
  for (ad::Parameter* p : mlp.parameters()) p->zero_grad();
  tape.backward(loss);
  // Weights of both layers should receive nonzero gradient (bias of the
  // last layer always does).
  EXPECT_GT(mlp.parameters()[0]->grad.max_abs(), 0.0);
  EXPECT_GT(mlp.parameters()[2]->grad.max_abs(), 0.0);
  EXPECT_GT(mlp.parameters()[3]->grad.max_abs(), 0.0);
}

TEST(Gcn, ZeroLayersIsIdentity) {
  Rng rng(6);
  GcnEncoder gcn("g", 4, 16, 0, rng);
  EXPECT_EQ(gcn.output_dim(), 4);
  EXPECT_EQ(gcn.num_layers(), 0);
  EXPECT_TRUE(gcn.parameters().empty());
  ad::Tape tape;
  Matrix x(3, 4, 1.5);
  ad::Tensor y = gcn.forward(tape, nullptr, tape.constant(x));  // adjacency unused
  EXPECT_EQ(tape.value(y), x);
}

TEST(Gcn, LayersProjectToHidden) {
  Rng rng(7);
  GcnEncoder gcn("g", 4, 16, 2, rng);
  EXPECT_EQ(gcn.output_dim(), 16);
  EXPECT_EQ(gcn.parameters().size(), 4u);
  ad::Tape tape;
  ad::Tensor y = gcn.forward(tape, ring_adjacency(5), tape.constant(Matrix(5, 4, 1.0)));
  EXPECT_EQ(tape.value(y).rows(), 5u);
  EXPECT_EQ(tape.value(y).cols(), 16u);
}

TEST(Gcn, NullAdjacencyWithLayersThrows) {
  Rng rng(8);
  GcnEncoder gcn("g", 4, 8, 1, rng);
  ad::Tape tape;
  EXPECT_THROW(gcn.forward(tape, nullptr, tape.constant(Matrix(3, 4, 1.0))),
               std::invalid_argument);
}

TEST(Gcn, MessagePassingPropagatesInformation) {
  // With identical features everywhere except one node, a 2-layer GCN
  // must produce different embeddings for neighbors vs distant nodes.
  Rng rng(9);
  GcnEncoder gcn("g", 1, 8, 2, rng);
  ad::Tape tape;
  Matrix x(6, 1, 0.0);
  x(0, 0) = 1.0;
  ad::Tensor y = gcn.forward(tape, ring_adjacency(6), tape.constant(x));
  const Matrix& e = tape.value(y);
  double diff_neighbor = 0.0, diff_far = 0.0;
  for (std::size_t c = 0; c < e.cols(); ++c) {
    diff_neighbor += std::abs(e(1, c) - e(3, c));
    diff_far += std::abs(e(3, c) - e(3, c));
  }
  EXPECT_GT(diff_neighbor, 1e-9);
  EXPECT_DOUBLE_EQ(diff_far, 0.0);
}

TEST(Gcn, InvalidConstructionThrows) {
  Rng rng(10);
  EXPECT_THROW(GcnEncoder("g", 0, 8, 1, rng), std::invalid_argument);
  EXPECT_THROW(GcnEncoder("g", 4, 0, 1, rng), std::invalid_argument);
  EXPECT_THROW(GcnEncoder("g", 4, 8, -1, rng), std::invalid_argument);
}

// ---- actor-critic ----

NetworkConfig small_config() {
  NetworkConfig c;
  c.feature_dim = 4;
  c.gcn_layers = 2;
  c.gcn_hidden = 8;
  c.mlp_hidden = {8};
  c.max_units_per_step = 3;
  return c;
}

TEST(ActorCritic, PolicyIsMaskedDistribution) {
  Rng rng(11);
  ActorCritic net(small_config(), rng);
  const int n = 5;
  Matrix features(n, 4, 0.3);
  std::vector<std::uint8_t> mask(n * 3, 0);
  mask[0] = mask[4] = mask[7] = 1;
  ad::Tape tape;
  ad::Tensor lp = net.policy_log_probs(tape, ring_adjacency(n), features, mask);
  const Matrix& v = tape.value(lp);
  ASSERT_EQ(v.cols(), static_cast<std::size_t>(n * 3));
  double total = 0.0;
  for (std::size_t i = 0; i < v.cols(); ++i) {
    if (mask[i]) {
      total += std::exp(v(0, i));
    } else {
      EXPECT_LT(v(0, i), -1e20);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ActorCritic, ValueIsScalar) {
  Rng rng(12);
  ActorCritic net(small_config(), rng);
  ad::Tape tape;
  ad::Tensor v = net.value(tape, ring_adjacency(4), Matrix(4, 4, 0.1));
  EXPECT_EQ(tape.value(v).rows(), 1u);
  EXPECT_EQ(tape.value(v).cols(), 1u);
}

TEST(ActorCritic, ActionEncodingRoundTrip) {
  Rng rng(13);
  ActorCritic net(small_config(), rng);
  for (int link = 0; link < 7; ++link) {
    for (int units = 1; units <= 3; ++units) {
      const int flat = net.encode_action({link, units});
      const ActionId decoded = net.decode_action(flat);
      EXPECT_EQ(decoded.link, link);
      EXPECT_EQ(decoded.units, units);
    }
  }
  EXPECT_THROW(net.encode_action({0, 0}), std::invalid_argument);
  EXPECT_THROW(net.encode_action({0, 4}), std::invalid_argument);
  EXPECT_THROW(net.encode_action({-1, 1}), std::invalid_argument);
  EXPECT_THROW(net.decode_action(-1), std::invalid_argument);
}

TEST(ActorCritic, ParameterGroupsAreDisjointAndComplete) {
  Rng rng(14);
  ActorCritic net(small_config(), rng);
  const auto gnn = net.gnn_parameters();
  const auto actor = net.actor_parameters();
  const auto critic = net.critic_parameters();
  EXPECT_EQ(gnn.size() + actor.size() + critic.size(), net.all_parameters().size());
  for (ad::Parameter* g : gnn) {
    for (ad::Parameter* a : actor) EXPECT_NE(g, a);
    for (ad::Parameter* c : critic) EXPECT_NE(g, c);
  }
}

TEST(ActorCritic, MaskSizeMismatchThrows) {
  Rng rng(15);
  ActorCritic net(small_config(), rng);
  ad::Tape tape;
  EXPECT_THROW(
      net.policy_log_probs(tape, ring_adjacency(4), Matrix(4, 4, 0.0), {1, 1}),
      std::invalid_argument);
}

TEST(ActorCritic, ZeroGcnLayersUsesRawFeatures) {
  Rng rng(16);
  NetworkConfig c = small_config();
  c.gcn_layers = 0;
  ActorCritic net(c, rng);
  EXPECT_TRUE(net.gnn_parameters().empty());
  ad::Tape tape;
  std::vector<std::uint8_t> mask(4 * 3, 1);
  ad::Tensor lp = net.policy_log_probs(tape, nullptr, Matrix(4, 4, 0.2), mask);
  EXPECT_FALSE(tape.value(lp).has_non_finite());
}

TEST(ActorCritic, RejectsBadConfig) {
  Rng rng(17);
  NetworkConfig c = small_config();
  c.max_units_per_step = 0;
  EXPECT_THROW(ActorCritic(c, rng), std::invalid_argument);
}

TEST(ActorCritic, GradientsReachAllGroupsThroughPolicyLoss) {
  Rng rng(18);
  ActorCritic net(small_config(), rng);
  for (ad::Parameter* p : net.all_parameters()) p->zero_grad();
  ad::Tape tape;
  std::vector<std::uint8_t> mask(5 * 3, 1);
  ad::Tensor lp = net.policy_log_probs(tape, ring_adjacency(5), Matrix(5, 4, 0.4), mask);
  tape.backward(tape.pick(lp, 0, 2));
  bool gnn_touched = false, actor_touched = false;
  for (ad::Parameter* p : net.gnn_parameters()) {
    gnn_touched = gnn_touched || p->grad.max_abs() > 0.0;
  }
  for (ad::Parameter* p : net.actor_parameters()) {
    actor_touched = actor_touched || p->grad.max_abs() > 0.0;
  }
  EXPECT_TRUE(gnn_touched);
  EXPECT_TRUE(actor_touched);
  // Critic untouched by the policy head.
  for (ad::Parameter* p : net.critic_parameters()) {
    EXPECT_DOUBLE_EQ(p->grad.max_abs(), 0.0);
  }
}

// ---- the acting forward ----

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (double& v : m.flat()) v = rng.normal();
  return m;
}

std::vector<std::uint8_t> random_mask(std::size_t size, Rng& rng) {
  std::vector<std::uint8_t> mask(size, 0);
  for (std::uint8_t& valid : mask) valid = rng.uniform() < 0.7 ? 1 : 0;
  mask[size / 2] = 1;  // at least one valid action
  return mask;
}

/// Same shape and the same bytes (so +0.0 and -0.0 differ).
bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct ActCase {
  GnnType gnn;
  int layers;
  int hidden;
  std::vector<int> mlp;
  int m;
  int nodes;
};

/// act() on a fresh tape against policy_log_probs and value, each on a
/// fresh tape of its own, over three random states.
void expect_act_matches_two_forwards(const ActCase& c, unsigned seed) {
  Rng init(seed);
  NetworkConfig config;
  config.feature_dim = 4;
  config.gnn_type = c.gnn;
  config.gcn_layers = c.layers;
  config.gcn_hidden = c.hidden;
  config.mlp_hidden = c.mlp;
  config.max_units_per_step = c.m;
  ActorCritic network(config, init);

  Rng data(seed + 100);
  const auto adjacency = ring_adjacency(c.nodes);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Matrix features = random_matrix(c.nodes, 4, data);
    const std::vector<std::uint8_t> mask =
        random_mask(static_cast<std::size_t>(c.nodes) * c.m, data);
    ad::Tape acting, policy, value;
    const ActorCritic::Acting out = network.act(acting, adjacency, features, mask);
    EXPECT_TRUE(same_bits(
        acting.value(out.log_probs),
        policy.value(network.policy_log_probs(policy, adjacency, features, mask))));
    EXPECT_TRUE(same_bits(acting.value(out.value),
                          value.value(network.value(value, adjacency, features))));
  }
}

TEST(ActorCriticAct, GcnMatchesPolicyAndValueBitwise) {
  expect_act_matches_two_forwards({GnnType::kGcn, 2, 16, {16, 16}, 4, 11}, 21);
  expect_act_matches_two_forwards({GnnType::kGcn, 4, 8, {8}, 2, 6}, 22);
  expect_act_matches_two_forwards({GnnType::kGcn, 1, 96, {}, 3, 15}, 23);
}

TEST(ActorCriticAct, GatMatchesPolicyAndValueBitwise) {
  expect_act_matches_two_forwards({GnnType::kGat, 2, 12, {16}, 4, 10}, 31);
  expect_act_matches_two_forwards({GnnType::kGat, 1, 8, {8, 8}, 2, 7}, 32);
}

TEST(ActorCriticAct, ZeroLayerEncoderMatchesPolicyAndValueBitwise) {
  // The identity encoder of the Fig. 10 "without GNN" ablation.
  expect_act_matches_two_forwards({GnnType::kGcn, 0, 16, {12}, 4, 9}, 24);
  expect_act_matches_two_forwards({GnnType::kGat, 0, 16, {12}, 4, 9}, 25);
}

TEST(ActorCriticAct, SecondActOnClearedTapeMakesNoArenaReallocation) {
  Rng init(61);
  NetworkConfig config;
  config.feature_dim = 4;
  config.gcn_layers = 2;
  config.gcn_hidden = 32;
  config.mlp_hidden = {32, 32};
  ActorCritic network(config, init);

  Rng data(62);
  const auto adjacency = ring_adjacency(19);
  const Matrix features = random_matrix(19, 4, data);
  const std::vector<std::uint8_t> mask = random_mask(19 * 4, data);
  ad::Tape tape;
  const Matrix first = tape.value(network.act(tape, adjacency, features, mask).log_probs);
  const long warm = tape.arena_reallocations();
  const std::size_t reserved = tape.reserved_bytes();

  tape.clear();
  const Matrix second = tape.value(network.act(tape, adjacency, features, mask).log_probs);
  EXPECT_TRUE(same_bits(second, first));
  EXPECT_EQ(tape.arena_reallocations(), warm);
  EXPECT_EQ(tape.reserved_bytes(), reserved);
  // Other states of the same graph fit the same storage.
  for (int step = 0; step < 8; ++step) {
    tape.clear();
    network.act(tape, adjacency, random_matrix(19, 4, data), random_mask(19 * 4, data));
  }
  EXPECT_EQ(tape.arena_reallocations(), warm);
  EXPECT_EQ(tape.reserved_bytes(), reserved);
}

}  // namespace
}  // namespace np::nn
