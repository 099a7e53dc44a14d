// Inference-engine benchmark (nn::InferenceEngine vs tape forwards),
// written as JSON to BENCH_infer.json.
//
// Two axes:
//   single_graph — actor-critic forwards/sec on presets A, B and C,
//     tape path (policy_log_probs + value, the pre-engine acting path)
//     vs the tape-free engine (one fused policy+value forward). The
//     engine is refreshed once and the arena is warm, matching the
//     steady state of rl::RolloutWorkers acting.
//   ragged_batch — forwards/sec at batch 8 over heterogeneous graphs
//     (presets A/B/C interleaved): per-graph tape loop (the status-quo
//     acting path) and per-graph engine forward() loop vs one ragged
//     block-diagonal forward_ragged() call. The tape loop is the
//     primary baseline; the engine loop is reported too so the
//     batching-only margin is visible (it is modest on one core —
//     the fused dense kernels are compute-bound, so stacking mostly
//     recovers remainder-row and 1-row-critic inefficiency).
//
// Both comparisons are apples-to-apples by construction: the engine is
// bit-identical to the tape (tests/inference_test.cpp), so the work
// measured is the same math, minus tape bookkeeping and allocation.
//
// Every rate is the best of NEUROPLAN_INFER_REPEATS timed repeats —
// forwards here are microsecond-scale, so a single pass is at the
// mercy of scheduler noise.
//
// Knobs: NEUROPLAN_INFER_ITERS (measured forwards per repeat, default 400),
//        NEUROPLAN_INFER_REPEATS (timed repeats per rate, default 3),
//        NEUROPLAN_SEED (default 7).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ad/tape.hpp"
#include "nn/actor_critic.hpp"
#include "nn/inference.hpp"
#include "rl/env.hpp"
#include "topo/generator.hpp"
#include "topo/transform.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace np;

nn::NetworkConfig network_config(const rl::EnvConfig& env) {
  nn::NetworkConfig c;
  c.feature_dim = topo::feature_dimension(env.include_static_features);
  c.gcn_layers = 2;
  c.gcn_hidden = 32;
  c.mlp_hidden = {64, 64};
  c.max_units_per_step = env.max_units_per_step;
  return c;
}

/// One preset's acting state: env-built adjacency, features and mask.
struct GraphCase {
  char preset = 'A';
  std::unique_ptr<rl::PlanningEnv> env;
  la::Matrix features;
  std::vector<std::uint8_t> mask;
  topo::Topology topology;
};

GraphCase make_case(char preset, const rl::EnvConfig& env_config) {
  GraphCase c;
  c.preset = preset;
  c.topology = topo::make_preset(preset);
  c.env = std::make_unique<rl::PlanningEnv>(c.topology, env_config);
  c.env->reset();
  c.env->features_into(c.features);
  c.env->action_mask_into(c.mask);
  return c;
}

int bench_repeats() {
  const long repeats = env_long("NEUROPLAN_INFER_REPEATS", 3);
  return repeats > 0 ? static_cast<int>(repeats) : 1;
}

/// Best-of-repeats rate for `iters` calls of `one` per repeat. The
/// first (untimed) call warms caches and the engine arena.
template <typename Fn>
double best_rate(int iters, int per_call, Fn&& one) {
  one();
  double best = 0.0;
  for (int r = 0; r < bench_repeats(); ++r) {
    Stopwatch watch;
    for (int i = 0; i < iters; ++i) one();
    const double rate =
        static_cast<double>(iters) * per_call / watch.seconds();
    if (rate > best) best = rate;
  }
  return best;
}

double tape_forwards_per_sec(nn::ActorCritic& net, const GraphCase& c,
                             int iters) {
  // volatile sink defeats dead-code elimination.
  volatile double sink = 0.0;
  return best_rate(iters, 1, [&] {
    ad::Tape tape;
    ad::Tensor lp =
        net.policy_log_probs(tape, c.env->adjacency(), c.features, c.mask);
    ad::Tensor v = net.value(tape, c.env->adjacency(), c.features);
    sink = tape.data(lp)[0] + tape.data(v)[0];
  });
}

double fast_forwards_per_sec(nn::InferenceEngine& engine, const GraphCase& c,
                             int iters) {
  volatile double sink = 0.0;
  return best_rate(iters, 1, [&] {
    const nn::InferenceEngine::Output out =
        engine.forward(*c.env->adjacency(), c.features, c.mask, true);
    sink = out.log_probs[0] + out.value;
  });
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned seed = static_cast<unsigned>(env_long("NEUROPLAN_SEED", 7));
  const int iters =
      static_cast<int>(env_long("NEUROPLAN_INFER_ITERS", 400));

  rl::EnvConfig env_config;
  env_config.max_trajectory_steps = 256;
  Rng net_rng(seed);
  nn::ActorCritic net(network_config(env_config), net_rng);
  nn::InferenceEngine engine(net);

  struct Row {
    char preset;
    std::size_t nodes;
    double tape_per_sec;
    double fast_per_sec;
  };
  std::vector<Row> rows;
  std::vector<GraphCase> cases;
  for (char preset : {'A', 'B', 'C'}) {
    cases.push_back(make_case(preset, env_config));
    const GraphCase& c = cases.back();
    Row row;
    row.preset = preset;
    row.nodes = c.features.rows();
    row.tape_per_sec = tape_forwards_per_sec(net, c, iters);
    row.fast_per_sec = fast_forwards_per_sec(engine, c, iters);
    rows.push_back(row);
    std::printf("topology %c (%zu nodes): tape %.0f fwd/s, fast %.0f fwd/s "
                "(%.2fx)\n",
                preset, row.nodes, row.tape_per_sec, row.fast_per_sec,
                row.fast_per_sec / row.tape_per_sec);
  }

  // Ragged batch 8: presets A/B/C interleaved — heterogeneous node
  // counts exercise the block-diagonal path, not just a repeated graph.
  const int kBatch = 8;
  std::vector<nn::InferenceEngine::GraphInput> batch;
  for (int i = 0; i < kBatch; ++i) {
    const GraphCase& c = cases[static_cast<std::size_t>(i) % cases.size()];
    nn::InferenceEngine::GraphInput input;
    input.adjacency = c.env->adjacency().get();
    input.features = &c.features;
    input.action_mask = &c.mask;
    batch.push_back(input);
  }
  const int batch_iters = iters / 4 > 0 ? iters / 4 : 1;
  volatile double sink = 0.0;
  // Status-quo baseline: per-graph tape forwards over the batch.
  auto tape_loop_once = [&] {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const GraphCase& c = cases[i % cases.size()];
      ad::Tape tape;
      ad::Tensor lp =
          net.policy_log_probs(tape, c.env->adjacency(), c.features, c.mask);
      ad::Tensor v = net.value(tape, c.env->adjacency(), c.features);
      sink = tape.data(lp)[0] + tape.data(v)[0];
    }
  };
  const double tape_loop_per_sec = best_rate(batch_iters, kBatch,
                                             tape_loop_once);

  // Per-graph engine loop (batch forwards/sec = graphs processed/sec).
  auto loop_once = [&] {
    for (const auto& input : batch) {
      const nn::InferenceEngine::Output out = engine.forward(
          *input.adjacency, *input.features, *input.action_mask, true);
      sink = out.log_probs[0] + out.value;
    }
  };
  const double loop_per_sec = best_rate(batch_iters, kBatch, loop_once);

  auto ragged_once = [&] {
    const nn::InferenceEngine::BatchOutput& out =
        engine.forward_ragged(batch.data(), batch.size(), true);
    sink = out.log_probs[0][0] + out.values[0];
  };
  const double ragged_per_sec = best_rate(batch_iters, kBatch, ragged_once);
  (void)sink;

  const double vs_tape_loop = ragged_per_sec / tape_loop_per_sec;
  const double vs_fast_loop = ragged_per_sec / loop_per_sec;
  std::printf("ragged batch %d (A/B/C mixed): tape loop %.0f, fast loop %.0f, "
              "ragged %.0f fwd/s (%.2fx vs tape loop, %.2fx vs fast loop)\n",
              kBatch, tape_loop_per_sec, loop_per_sec, ragged_per_sec,
              vs_tape_loop, vs_fast_loop);
  std::printf("arena high water: %zu bytes, reallocations after warmup: %zu\n",
              engine.arena_high_water_bytes(), engine.arena_reallocations());

  const char* out_path = argc > 1 ? argv[1] : "BENCH_infer.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::print_json_provenance(out);
  std::fprintf(out,
               "  \"benchmark\": \"nn_inference\",\n"
               "  \"iterations\": %d,\n"
               "  \"single_graph\": [\n",
               iters);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"topology\": \"%c\", \"nodes\": %zu, "
                 "\"tape_fwd_per_sec\": %.1f, \"fast_fwd_per_sec\": %.1f, "
                 "\"speedup\": %.3f}%s\n",
                 r.preset, r.nodes, r.tape_per_sec, r.fast_per_sec,
                 r.fast_per_sec / r.tape_per_sec,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"ragged_batch\": {\"batch\": %d, "
               "\"tape_loop_fwd_per_sec\": %.1f, "
               "\"fast_loop_fwd_per_sec\": %.1f, "
               "\"ragged_fwd_per_sec\": %.1f, "
               "\"speedup_vs_tape_loop\": %.3f, "
               "\"speedup_vs_fast_loop\": %.3f, "
               "\"arena_bytes\": %zu}\n"
               "}\n",
               kBatch, tape_loop_per_sec, loop_per_sec, ragged_per_sec,
               vs_tape_loop, vs_fast_loop, engine.arena_high_water_bytes());
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
