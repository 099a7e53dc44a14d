// Tape-free inference engine: kernel and whole-network differentials
// against the tape (bit-identical, not merely close), ragged batching
// vs per-graph forwards, steady-state zero-allocation guarantees, and
// fast-vs-tape rollout determinism.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "ad/tape.hpp"
#include "la/arena.hpp"
#include "la/kernels.hpp"
#include "la/ragged.hpp"
#include "nn/actor_critic.hpp"
#include "nn/inference.hpp"
#include "reference_la.hpp"
#include "rl/rollout.hpp"
#include "topo/generator.hpp"
#include "util/rng.hpp"

namespace np {
namespace {

using la::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng, double scale = 1.0) {
  Matrix m(r, c);
  for (double& v : m.flat()) v = rng.normal() * scale;
  return m;
}

/// Ring adjacency with self loops (every node has 3 ascending-ordered
/// neighbors), normalized like a GCN propagation operator.
std::shared_ptr<la::CsrMatrix> ring_adjacency(int n) {
  std::vector<la::Triplet> t;
  const double w = 1.0 / 3.0;
  for (int i = 0; i < n; ++i) {
    t.push_back({static_cast<std::size_t>(i), static_cast<std::size_t>(i), w});
    t.push_back(
        {static_cast<std::size_t>(i), static_cast<std::size_t>((i + 1) % n), w});
    t.push_back({static_cast<std::size_t>(i),
                 static_cast<std::size_t>((i + n - 1) % n), w});
  }
  return std::make_shared<la::CsrMatrix>(
      la::CsrMatrix(static_cast<std::size_t>(n), static_cast<std::size_t>(n), t));
}

std::vector<std::uint8_t> random_mask(std::size_t size, Rng& rng) {
  std::vector<std::uint8_t> mask(size, 0);
  bool any = false;
  for (std::size_t i = 0; i < size; ++i) {
    mask[i] = rng.uniform() < 0.7 ? 1 : 0;
    any = any || mask[i];
  }
  if (!any) mask[size / 2] = 1;
  return mask;
}

// ---- arena ----

TEST(InferenceArena, BumpsAlignedAndResetsWithoutReallocating) {
  la::Arena arena;
  arena.reserve(1 << 14);
  const long after_reserve = arena.reallocations();
  EXPECT_EQ(after_reserve, 1);

  double* a = arena.alloc_doubles(10);
  double* b = arena.alloc_doubles(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  a[9] = 1.0;
  b[99] = 2.0;  // writable, non-overlapping
  EXPECT_GE(arena.used_bytes(), 110 * sizeof(double));
  const std::size_t high = arena.high_water_bytes();

  for (int pass = 0; pass < 8; ++pass) {
    arena.reset();
    EXPECT_EQ(arena.used_bytes(), 0u);
    arena.alloc_doubles(10);
    arena.alloc_doubles(100);
  }
  EXPECT_EQ(arena.reallocations(), after_reserve);  // steady state: no heap
  EXPECT_EQ(arena.high_water_bytes(), high);
}

TEST(InferenceArena, OverflowKeepsLivePointersAndLaterPassesReuseChunks) {
  la::Arena arena;
  arena.reserve(256);
  double* a = arena.alloc_doubles(16);
  for (int i = 0; i < 16; ++i) a[i] = i;
  // Overflow the 256-byte chunk: a new chunk must serve this without
  // touching `a`.
  double* b = arena.alloc_doubles(4096);
  b[4095] = 7.0;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a[i], i);
  EXPECT_GE(arena.reallocations(), 2);

  // reset() rewinds every chunk; the same shape then fits with no
  // further growth.
  arena.reset();
  const long settled = arena.reallocations();
  for (int pass = 0; pass < 4; ++pass) {
    arena.alloc_doubles(16);
    arena.alloc_doubles(4096);
    arena.reset();
  }
  EXPECT_EQ(arena.reallocations(), settled);
}

TEST(InferenceArena, ReserveIsIdempotentWhenLargeEnough) {
  la::Arena arena;
  arena.reserve(4096);
  const long once = arena.reallocations();
  arena.reserve(1024);
  arena.reserve(4096);
  EXPECT_EQ(arena.reallocations(), once);
}

// ---- ragged layout ----

TEST(InferenceRagged, LayoutComputesPrefixOffsets) {
  la::RaggedLayout layout;
  const std::size_t rows[3] = {4, 7, 2};
  layout.assign(rows, 3);
  EXPECT_EQ(layout.blocks(), 3u);
  EXPECT_EQ(layout.total_rows(), 13u);
  EXPECT_EQ(layout.offset(0), 0u);
  EXPECT_EQ(layout.offset(1), 4u);
  EXPECT_EQ(layout.offset(2), 11u);
  EXPECT_EQ(layout.rows(1), 7u);
}

TEST(InferenceRagged, LayoutRejectsEmptyBlocks) {
  la::RaggedLayout layout;
  const std::size_t rows[2] = {3, 0};
  EXPECT_THROW(layout.assign(rows, 2), std::invalid_argument);
  EXPECT_THROW(layout.assign(rows, 0), std::invalid_argument);
}

// ---- kernels vs la/ad reference ----

TEST(InferenceKernels, MatmulBitIdenticalToPlainLoops) {
  Rng rng(11);
  // Sizes straddling the register block (4) and the cache tiles (64/128).
  const std::size_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 2}, {4, 64, 128}, {7, 65, 129}, {30, 130, 140}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[1], rng);
    const Matrix b = random_matrix(s[1], s[2], rng);
    const Matrix expected = ref::naive_matmul(a, b);
    std::vector<double> out(s[0] * s[2], -1.0);
    la::kernels::matmul(a.data(), s[0], s[1], b.data(), s[2], out.data());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], expected.flat()[i]) << "entry " << i;
    }
  }
}

TEST(InferenceKernels, FusedBiasActMatchesUnfusedTapeOrder) {
  Rng rng(12);
  const Matrix x = random_matrix(9, 6, rng);
  const Matrix w = random_matrix(6, 5, rng);
  const Matrix bias = random_matrix(1, 5, rng);
  Matrix expected = x.matmul(w).add_row_broadcast(bias);
  for (double& v : expected.flat()) v = v > 0.0 ? v : 0.0;
  std::vector<double> out(9 * 5);
  la::kernels::matmul_bias_act(x.data(), 9, 6, w.data(), 5, bias.data(),
                               la::kernels::Activation::kRelu, out.data());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], expected.flat()[i]);
  }
}

TEST(InferenceKernels, SpmmBitIdenticalToCsrMultiply) {
  Rng rng(13);
  auto adj = ring_adjacency(17);
  const Matrix x = random_matrix(17, 8, rng);
  const Matrix expected = adj->multiply(x);
  std::vector<double> out(17 * 8);
  la::kernels::spmm(*adj, x.data(), 8, out.data());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], expected.flat()[i]);
  }
}

TEST(InferenceKernels, MaskedLogSoftmaxMatchesTape) {
  Rng rng(14);
  const Matrix logits = random_matrix(1, 12, rng, 3.0);
  const std::vector<std::uint8_t> mask = random_mask(12, rng);
  ad::Tape tape;
  const Matrix expected =
      tape.value(tape.masked_log_softmax(tape.constant(logits), mask));
  std::vector<double> out(12);
  la::kernels::masked_log_softmax(logits.data(), mask.data(), 12, out.data());
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(out[i], expected(0, i));
  }
  const std::vector<std::uint8_t> dead(12, 0);
  EXPECT_THROW(
      la::kernels::masked_log_softmax(logits.data(), dead.data(), 12, out.data()),
      std::invalid_argument);
}

// ---- engine vs tape differential ----

struct DifferentialCase {
  nn::GnnType gnn;
  int layers;
  int hidden;
  std::vector<int> mlp;
  int m;
  int nodes;
};

void expect_engine_matches_tape(const DifferentialCase& c, unsigned seed) {
  Rng init(seed);
  nn::NetworkConfig config;
  config.feature_dim = 4;
  config.gnn_type = c.gnn;
  config.gcn_layers = c.layers;
  config.gcn_hidden = c.hidden;
  config.mlp_hidden = c.mlp;
  config.max_units_per_step = c.m;
  nn::ActorCritic network(config, init);
  nn::InferenceEngine engine(network);

  Rng data(seed + 100);
  auto adjacency = ring_adjacency(c.nodes);
  for (int trial = 0; trial < 3; ++trial) {
    const Matrix features = random_matrix(c.nodes, 4, data);
    const std::vector<std::uint8_t> mask =
        random_mask(static_cast<std::size_t>(c.nodes) * c.m, data);

    const nn::InferenceEngine::Output out =
        engine.forward(*adjacency, features, mask, /*want_value=*/true);

    ad::Tape tape;
    const Matrix expected_lp =
        tape.value(network.policy_log_probs(tape, adjacency, features, mask));
    const double expected_value =
        tape.value(network.value(tape, adjacency, features))(0, 0);

    ASSERT_EQ(out.action_dim, expected_lp.cols());
    for (std::size_t i = 0; i < out.action_dim; ++i) {
      // Bit-identical, not approximately equal: the fast path must not
      // perturb sampling.
      ASSERT_EQ(out.log_probs[i], expected_lp(0, i))
          << "log_prob " << i << " trial " << trial;
    }
    ASSERT_EQ(out.value, expected_value);
  }
}

TEST(InferenceEngineDifferential, GcnConfigsBitIdenticalToTape) {
  expect_engine_matches_tape({nn::GnnType::kGcn, 2, 16, {16, 16}, 4, 11}, 21);
  expect_engine_matches_tape({nn::GnnType::kGcn, 4, 8, {8}, 2, 6}, 22);
  expect_engine_matches_tape({nn::GnnType::kGcn, 1, 96, {}, 3, 15}, 23);
  // Zero layers: identity encoder (the Fig. 10 "without GNN" ablation).
  expect_engine_matches_tape({nn::GnnType::kGcn, 0, 16, {12}, 4, 9}, 24);
}

TEST(InferenceEngineDifferential, GatConfigsBitIdenticalToTape) {
  expect_engine_matches_tape({nn::GnnType::kGat, 2, 12, {16}, 4, 10}, 31);
  expect_engine_matches_tape({nn::GnnType::kGat, 1, 8, {8, 8}, 2, 7}, 32);
}

TEST(InferenceEngineDifferential, RefreshPicksUpUpdatedWeights) {
  Rng init(41);
  nn::NetworkConfig config;
  config.feature_dim = 4;
  config.gcn_layers = 2;
  config.gcn_hidden = 8;
  config.mlp_hidden = {8};
  nn::ActorCritic network(config, init);
  nn::InferenceEngine engine(network);

  Rng data(42);
  auto adjacency = ring_adjacency(7);
  const Matrix features = random_matrix(7, 4, data);
  const std::vector<std::uint8_t> mask = random_mask(7 * 4, data);

  // Simulate an optimizer step, then verify a stale engine diverges and
  // a refreshed one matches again.
  for (ad::Parameter* p : network.all_parameters()) {
    for (double& v : p->value.flat()) v += 0.125;
  }
  ad::Tape tape;
  const Matrix expected =
      tape.value(network.policy_log_probs(tape, adjacency, features, mask));
  const nn::InferenceEngine::Output stale =
      engine.forward(*adjacency, features, mask, false);
  bool any_diff = false;
  for (std::size_t i = 0; i < stale.action_dim; ++i) {
    any_diff = any_diff || (stale.log_probs[i] != expected(0, i));
  }
  EXPECT_TRUE(any_diff) << "stale snapshot unexpectedly matched new weights";

  engine.refresh();
  const nn::InferenceEngine::Output fresh =
      engine.forward(*adjacency, features, mask, false);
  for (std::size_t i = 0; i < fresh.action_dim; ++i) {
    ASSERT_EQ(fresh.log_probs[i], expected(0, i));
  }
}

TEST(InferenceRagged, BatchBitIdenticalToPerGraphForwards) {
  Rng init(51);
  nn::NetworkConfig config;
  config.feature_dim = 4;
  config.gcn_layers = 2;
  config.gcn_hidden = 12;
  config.mlp_hidden = {16};
  config.max_units_per_step = 3;
  nn::ActorCritic network(config, init);
  nn::InferenceEngine engine(network);
  nn::InferenceEngine reference(network);

  // Heterogeneous node counts — ragged, pad-free.
  const int sizes[4] = {5, 11, 3, 8};
  Rng data(52);
  std::vector<std::shared_ptr<la::CsrMatrix>> adjacencies;
  std::vector<Matrix> features;
  std::vector<std::vector<std::uint8_t>> masks;
  std::vector<nn::InferenceEngine::GraphInput> inputs;
  for (int n : sizes) {
    adjacencies.push_back(ring_adjacency(n));
    features.push_back(random_matrix(n, 4, data));
    masks.push_back(random_mask(static_cast<std::size_t>(n) * 3, data));
  }
  for (std::size_t g = 0; g < 4; ++g) {
    inputs.push_back(nn::InferenceEngine::GraphInput{
        adjacencies[g].get(), &features[g], &masks[g]});
  }

  const nn::InferenceEngine::BatchOutput& batch =
      engine.forward_ragged(inputs.data(), inputs.size(), /*want_values=*/true);
  ASSERT_EQ(batch.log_probs.size(), 4u);
  ASSERT_EQ(batch.values.size(), 4u);
  for (std::size_t g = 0; g < 4; ++g) {
    const nn::InferenceEngine::Output single = reference.forward(
        *adjacencies[g], features[g], masks[g], /*want_value=*/true);
    ASSERT_EQ(batch.action_dims[g], single.action_dim);
    for (std::size_t i = 0; i < single.action_dim; ++i) {
      ASSERT_EQ(batch.log_probs[g][i], single.log_probs[i])
          << "graph " << g << " entry " << i;
    }
    ASSERT_EQ(batch.values[g], single.value);
  }
}

TEST(InferenceEngine, SteadyStateActingIsAllocationFree) {
  Rng init(61);
  nn::NetworkConfig config;
  config.feature_dim = 4;
  config.gcn_layers = 2;
  config.gcn_hidden = 32;
  config.mlp_hidden = {32, 32};
  nn::ActorCritic network(config, init);
  nn::InferenceEngine engine(network);

  Rng data(62);
  auto adjacency = ring_adjacency(19);
  // Warmup: the first forward sizes the arena.
  Matrix features = random_matrix(19, 4, data);
  std::vector<std::uint8_t> mask = random_mask(19 * 4, data);
  engine.forward(*adjacency, features, mask, true);

  const long settled = engine.arena_reallocations();
  const std::size_t high_water = engine.arena_high_water_bytes();
  for (int step = 0; step < 64; ++step) {
    features = random_matrix(19, 4, data);
    mask = random_mask(19 * 4, data);
    engine.forward(*adjacency, features, mask, true);
  }
  // The acceptance bar: zero heap allocations in steady-state acting.
  EXPECT_EQ(engine.arena_reallocations(), settled);
  EXPECT_EQ(engine.arena_high_water_bytes(), high_water);
  EXPECT_LE(engine.arena_high_water_bytes(), engine.arena_capacity_bytes());
}

// ---- rollout determinism: fast vs tape ----

TEST(InferenceDeterminism, LockstepRolloutsIdenticalFastVsTape) {
  const topo::Topology topology = topo::make_preset('A');
  rl::EnvConfig env_config;
  env_config.max_units_per_step = 4;
  env_config.max_trajectory_steps = 64;

  auto run = [&](nn::InferenceMode mode) {
    Rng init(71);
    nn::NetworkConfig net_config;
    net_config.feature_dim = 4;
    net_config.gcn_layers = 2;
    net_config.gcn_hidden = 16;
    net_config.mlp_hidden = {16};
    nn::ActorCritic network(net_config, init);
    rl::RolloutWorkers workers(topology, env_config, network, /*workers=*/3,
                               /*seed=*/7);
    workers.set_inference_mode(mode);
    return workers.collect(90);
  };

  const std::vector<rl::WorkerRollout> fast = run(nn::InferenceMode::kFast);
  const std::vector<rl::WorkerRollout> tape = run(nn::InferenceMode::kTape);
  ASSERT_EQ(fast.size(), tape.size());
  for (std::size_t w = 0; w < fast.size(); ++w) {
    ASSERT_EQ(fast[w].records.size(), tape[w].records.size()) << "worker " << w;
    for (std::size_t s = 0; s < fast[w].records.size(); ++s) {
      // Identical action SEQUENCES require identical RNG consumption,
      // which requires bit-identical log-probs at every step.
      ASSERT_EQ(fast[w].records[s].action, tape[w].records[s].action)
          << "worker " << w << " step " << s;
      ASSERT_EQ(fast[w].records[s].log_prob, tape[w].records[s].log_prob);
      ASSERT_EQ(fast[w].records[s].value, tape[w].records[s].value);
      ASSERT_EQ(fast[w].records[s].reward, tape[w].records[s].reward);
    }
    ASSERT_EQ(fast[w].last_value, tape[w].last_value);
    ASSERT_EQ(fast[w].best_cost, tape[w].best_cost);
  }
}

TEST(InferenceDeterminism, BorrowedRolloutIdenticalFastVsTape) {
  const topo::Topology topology = topo::make_preset('A');
  rl::EnvConfig env_config;
  env_config.max_units_per_step = 4;
  env_config.max_trajectory_steps = 64;

  auto run = [&](nn::InferenceMode mode) {
    Rng init(81);
    nn::NetworkConfig net_config;
    net_config.feature_dim = 4;
    net_config.gcn_layers = 2;
    net_config.gcn_hidden = 16;
    net_config.mlp_hidden = {16};
    nn::ActorCritic network(net_config, init);
    rl::PlanningEnv env(topology, env_config);
    Rng rng(9);
    rl::RolloutWorkers workers(env, rng, network);
    workers.set_inference_mode(mode);
    return workers.collect(60);
  };

  const std::vector<rl::WorkerRollout> fast = run(nn::InferenceMode::kFast);
  const std::vector<rl::WorkerRollout> tape = run(nn::InferenceMode::kTape);
  ASSERT_EQ(fast[0].records.size(), tape[0].records.size());
  for (std::size_t s = 0; s < fast[0].records.size(); ++s) {
    ASSERT_EQ(fast[0].records[s].action, tape[0].records[s].action) << s;
    ASSERT_EQ(fast[0].records[s].log_prob, tape[0].records[s].log_prob);
    ASSERT_EQ(fast[0].records[s].value, tape[0].records[s].value);
  }
  ASSERT_EQ(fast[0].last_value, tape[0].last_value);
}

// ---- env-var escape hatch ----

TEST(InferenceMode, EnvVarParsesStrictly) {
  ::unsetenv("NEUROPLAN_INFERENCE");
  EXPECT_EQ(nn::inference_mode_from_env(), nn::InferenceMode::kFast);
  ::setenv("NEUROPLAN_INFERENCE", "tape", 1);
  EXPECT_EQ(nn::inference_mode_from_env(), nn::InferenceMode::kTape);
  ::setenv("NEUROPLAN_INFERENCE", "fast", 1);
  EXPECT_EQ(nn::inference_mode_from_env(), nn::InferenceMode::kFast);
  ::setenv("NEUROPLAN_INFERENCE", "turbo", 1);
  EXPECT_THROW(nn::inference_mode_from_env(), std::invalid_argument);
  ::unsetenv("NEUROPLAN_INFERENCE");
}

}  // namespace
}  // namespace np
