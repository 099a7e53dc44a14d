// ad::Tape on la/kernels: adjoints bit-identical to the whole-matrix
// formulas of the reference tape, node storage that stops growing after
// the first chunk, and the by-reference parameter contract.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "ad/adam.hpp"
#include "ad/tape.hpp"
#include "nn/actor_critic.hpp"
#include "reference_tape.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace np {
namespace {

using la::Matrix;
using ref::RefTape;

/// Ring with self loops and a chord from node 0, row-normalized.
std::shared_ptr<const la::CsrMatrix> graph(int n) {
  std::vector<la::Triplet> t;
  for (int i = 0; i < n; ++i) {
    std::vector<int> cols = {i, (i + 1) % n, (i + n - 1) % n};
    if (i == 0) cols.push_back(n / 2);
    for (int c : cols) {
      t.push_back({static_cast<std::size_t>(i), static_cast<std::size_t>(c),
                   1.0 / static_cast<double>(cols.size())});
    }
  }
  return std::make_shared<const la::CsrMatrix>(
      static_cast<std::size_t>(n), static_cast<std::size_t>(n), t);
}

struct Step {
  Matrix features;
  std::vector<std::uint8_t> mask;
  std::size_t action = 0;
  double advantage = 0.0;
  double target = 0.0;
};

std::vector<Step> make_steps(const nn::NetworkConfig& config, std::size_t n,
                             int count, Rng& rng) {
  std::vector<Step> steps(static_cast<std::size_t>(count));
  const std::size_t actions = n * static_cast<std::size_t>(config.max_units_per_step);
  for (Step& s : steps) {
    s.features = Matrix(n, static_cast<std::size_t>(config.feature_dim));
    for (double& v : s.features.flat()) v = rng.normal();
    s.mask.assign(actions, 0);
    for (auto& m : s.mask) m = rng.uniform() < 0.6 ? 1 : 0;
    s.action = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(actions) - 1));
    s.mask[s.action] = 1;
    s.advantage = rng.normal();
    s.target = rng.normal();
  }
  return steps;
}

nn::NetworkConfig small_config(nn::GnnType type) {
  nn::NetworkConfig config;
  config.gnn_type = type;
  config.feature_dim = 4;
  config.gcn_layers = 2;
  config.gcn_hidden = 12;  // one 8-wide and one 4-wide tile
  config.mlp_hidden = {16, 9};
  config.max_units_per_step = 3;
  return config;
}

constexpr double kEntropyWeight = 0.01;

// ---- the loss, built on ad::Tape through the network ----

ad::Tensor tape_policy_loss(ad::Tape& tape, nn::ActorCritic& net,
                            const std::shared_ptr<const la::CsrMatrix>& adjacency,
                            const std::vector<Step>& steps) {
  ad::Tensor loss = tape.scalar(0.0);
  for (const Step& s : steps) {
    ad::Tensor lp = net.policy_log_probs(tape, adjacency, s.features, s.mask);
    loss = tape.add(loss, tape.scale(tape.pick(lp, 0, s.action), -s.advantage));
    loss = tape.add(loss, tape.scale(tape.entropy_from_log_probs(lp), -kEntropyWeight));
  }
  return loss;
}

ad::Tensor tape_value_loss(ad::Tape& tape, nn::ActorCritic& net,
                           const std::shared_ptr<const la::CsrMatrix>& adjacency,
                           const std::vector<Step>& steps) {
  ad::Tensor loss = tape.scalar(0.0);
  for (const Step& s : steps) {
    ad::Tensor diff =
        tape.sub(net.value(tape, adjacency, s.features), tape.scalar(s.target));
    loss = tape.add(loss, tape.scale(tape.square(diff), 0.5));
  }
  return loss;
}

// ---- the same loss on the reference tape, reading the network's own
// parameters in the order its layers register them ----

RefTape::Id ref_linear(RefTape& t, ad::Parameter& w, ad::Parameter& b, RefTape::Id x) {
  const RefTape::Id wi = t.parameter(w);
  const RefTape::Id bi = t.parameter(b);
  return t.add_row_broadcast(t.matmul(x, wi), bi);
}

RefTape::Id ref_mlp(RefTape& t, const std::vector<ad::Parameter*>& p, RefTape::Id x) {
  for (std::size_t i = 0; i + 2 < p.size(); i += 2) {
    x = t.relu(ref_linear(t, *p[i], *p[i + 1], x));
  }
  return ref_linear(t, *p[p.size() - 2], *p.back(), x);
}

RefTape::Id ref_encoder(RefTape& t, nn::ActorCritic& net, const la::CsrMatrix& adjacency,
                        RefTape::Id h) {
  const std::vector<ad::Parameter*> p = net.gnn_parameters();
  if (net.config().gnn_type == nn::GnnType::kGat) {
    for (std::size_t i = 0; i < p.size(); i += 4) {
      const RefTape::Id z = ref_linear(t, *p[i], *p[i + 1], h);
      const RefTape::Id src = t.matmul(z, t.parameter(*p[i + 2]));
      const RefTape::Id dst = t.matmul(z, t.parameter(*p[i + 3]));
      h = t.relu(t.gat_aggregate(src, dst, z, adjacency));
    }
  } else {
    for (std::size_t i = 0; i < p.size(); i += 2) {
      h = t.relu(ref_linear(t, *p[i], *p[i + 1], t.spmm(adjacency, h)));
    }
  }
  return h;
}

RefTape::Id ref_policy_loss(RefTape& t, nn::ActorCritic& net,
                            const la::CsrMatrix& adjacency, const std::vector<Step>& steps) {
  RefTape::Id loss = t.constant(Matrix(1, 1, 0.0));
  for (const Step& s : steps) {
    const RefTape::Id embedding = ref_encoder(t, net, adjacency, t.constant(s.features));
    const RefTape::Id logits = ref_mlp(t, net.actor_parameters(), embedding);
    const RefTape::Id lp = t.masked_log_softmax(t.flatten_to_row(logits), s.mask);
    loss = t.add(loss, t.scale(t.pick(lp, 0, s.action), -s.advantage));
    loss = t.add(loss, t.scale(t.entropy_from_log_probs(lp), -kEntropyWeight));
  }
  return loss;
}

RefTape::Id ref_value_loss(RefTape& t, nn::ActorCritic& net,
                           const la::CsrMatrix& adjacency, const std::vector<Step>& steps) {
  RefTape::Id loss = t.constant(Matrix(1, 1, 0.0));
  for (const Step& s : steps) {
    const RefTape::Id embedding = ref_encoder(t, net, adjacency, t.constant(s.features));
    const RefTape::Id value =
        ref_mlp(t, net.critic_parameters(), t.mean_rows(embedding));
    const RefTape::Id diff = t.sub(value, t.constant(Matrix(1, 1, s.target)));
    loss = t.add(loss, t.scale(t.square(diff), 0.5));
  }
  return loss;
}

std::vector<Matrix> take_grads(nn::ActorCritic& net) {
  std::vector<Matrix> grads;
  for (ad::Parameter* p : net.all_parameters()) {
    grads.push_back(p->grad);
    p->zero_grad();
  }
  return grads;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_adjoints_match_reference(nn::GnnType type, bool policy) {
  Rng init(71);
  const nn::NetworkConfig config = small_config(type);
  nn::ActorCritic net(config, init);
  const auto adjacency = graph(7);
  Rng data(72);
  const std::vector<Step> steps = make_steps(config, 7, 3, data);

  for (ad::Parameter* p : net.all_parameters()) p->zero_grad();
  ad::Tape tape;
  const ad::Tensor loss = policy ? tape_policy_loss(tape, net, adjacency, steps)
                                 : tape_value_loss(tape, net, adjacency, steps);
  tape.backward(loss);
  const std::vector<Matrix> got = take_grads(net);

  // The trainer's pattern: one cleared tape and one backward() per
  // step, each adding into Parameter::grad.
  ad::Tape step_tape;
  for (const Step& s : steps) {
    step_tape.clear();
    const std::vector<Step> one = {s};
    step_tape.backward(policy ? tape_policy_loss(step_tape, net, adjacency, one)
                              : tape_value_loss(step_tape, net, adjacency, one));
  }
  const std::vector<Matrix> got_per_step = take_grads(net);

  RefTape ref;
  const RefTape::Id ref_loss = policy ? ref_policy_loss(ref, net, *adjacency, steps)
                                      : ref_value_loss(ref, net, *adjacency, steps);
  EXPECT_EQ(tape.data(loss)[0], ref.value(ref_loss)(0, 0));
  ref.backward(ref_loss);
  const std::vector<Matrix> want = take_grads(net);

  const std::vector<ad::Parameter*> params = net.all_parameters();
  std::size_t touched = 0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i], want[i])) << params[i]->name;
    EXPECT_TRUE(same_bits(got_per_step[i], want[i])) << params[i]->name << " per step";
    if (want[i].max_abs() > 0.0) ++touched;
  }
  // The loss must reach the shared encoder and its own head.
  EXPECT_GE(touched, net.gnn_parameters().size());
}

TEST(TapeAdjoint, GcnPolicyLossBitIdenticalToReference) {
  expect_adjoints_match_reference(nn::GnnType::kGcn, /*policy=*/true);
}

TEST(TapeAdjoint, GcnValueLossBitIdenticalToReference) {
  expect_adjoints_match_reference(nn::GnnType::kGcn, /*policy=*/false);
}

TEST(TapeAdjoint, GatPolicyLossBitIdenticalToReference) {
  expect_adjoints_match_reference(nn::GnnType::kGat, /*policy=*/true);
}

TEST(TapeAdjoint, GatValueLossBitIdenticalToReference) {
  expect_adjoints_match_reference(nn::GnnType::kGat, /*policy=*/false);
}

TEST(TapeStorage, SecondIdenticalChunkGrowsNothing) {
  // The trainer's pattern: one tape, cleared per chunk, alternating
  // policy and value chunks.
  Rng init(81);
  const nn::NetworkConfig config = small_config(nn::GnnType::kGcn);
  nn::ActorCritic net(config, init);
  const auto adjacency = graph(9);
  Rng data(82);
  const std::vector<Step> steps = make_steps(config, 9, 6, data);

  ad::Tape tape;
  auto run_chunks = [&] {
    tape.clear();
    tape.backward(tape_policy_loss(tape, net, adjacency, steps));
    tape.clear();
    tape.backward(tape_value_loss(tape, net, adjacency, steps));
  };
  run_chunks();  // warm-up: storage grows to one chunk's peak here
  tape.clear();
  const long reallocations = tape.arena_reallocations();
  const std::size_t reserved = tape.reserved_bytes();
  EXPECT_GT(reserved, 0u);
  for (int round = 0; round < 3; ++round) run_chunks();
  EXPECT_EQ(tape.arena_reallocations(), reallocations);
  EXPECT_EQ(tape.reserved_bytes(), reserved);
}

TEST(TapeByReference, ParameterLeafReadsTheParameterInPlace) {
  ad::Parameter p("p", Matrix{{1.0, 2.0}, {3.0, 4.0}});
  ad::Tape tape;
  const ad::Tensor leaf = tape.parameter(p);
  EXPECT_EQ(tape.data(leaf), p.value.data());
  EXPECT_EQ(tape.rows(leaf), 2u);
  EXPECT_EQ(tape.cols(leaf), 2u);
}

TEST(TapeByReference, OptimizerStepBeforeBackwardIsAContractViolation) {
  if (!util::kChecksEnabled) GTEST_SKIP() << "contract checks compiled out";
  ad::Parameter p("p", Matrix{{1.0, -2.0}});
  ad::Adam adam;
  adam.add_parameter(p);
  ad::Tape tape;
  const ad::Tensor root = tape.sum(tape.square(tape.parameter(p)));
  p.grad = Matrix{{0.5, 0.5}};
  adam.step();  // rewrites p.value under the live tape
  EXPECT_THROW(tape.backward(root), util::ContractViolation);

  // A tape recorded after the step is fine.
  tape.clear();
  p.zero_grad();
  tape.backward(tape.sum(tape.square(tape.parameter(p))));
  EXPECT_EQ(p.grad(0, 0), 2.0 * p.value(0, 0));
}

}  // namespace
}  // namespace np
