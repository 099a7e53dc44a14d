// Rollout-throughput benchmark for the multi-worker subsystem
// (rl::RolloutWorkers): env steps per second at 1, 2 and 4 workers,
// written as JSON for scripts/bench_rollout.sh -> BENCH_rollout.json.
//
// The 1-worker row uses borrowed mode (the exact serial trainer path),
// so speedups are measured against the true pre-threading baseline.
// Every worker runs its own acting loop on its own thread, so the
// speedup only materializes on real cores: interpreting the numbers
// needs `hardware_threads` from the JSON. Each row also reports the
// simplex time per iteration (`lp_us_per_iter`), the contention
// signal: if the workers fought over shared state (metric atomics,
// the allocator, caches), LP iterations would get slower as K grows.
//
// Knobs: NEUROPLAN_TOPOS (first letter, default B),
//        NEUROPLAN_ROLLOUT_STEPS (steps per measured collect, default 3072),
//        NEUROPLAN_SEED (default 7).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "nn/actor_critic.hpp"
#include "obs/obs.hpp"
#include "rl/rollout.hpp"
#include "topo/generator.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

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

struct Measurement {
  double steps_per_sec = 0.0;
  double wall_seconds = 0.0;
  long lp_iterations = 0;   ///< simplex iterations in the measured collect
  double lp_seconds = 0.0;  ///< seconds inside lp::solve (CPU-seconds, K > 1)

  double lp_us_per_iter() const {
    return lp_iterations > 0 ? 1e6 * lp_seconds / lp_iterations : 0.0;
  }
};

Measurement measure(const topo::Topology& topology, const rl::EnvConfig& env,
                    nn::ActorCritic& net, int workers, unsigned seed,
                    int steps) {
  // Fresh PlanningEnv per measurement so LP caches start cold for every
  // worker count; one warmup collect builds them before timing.
  auto run = [&](rl::RolloutWorkers& rollout) {
    rollout.collect(steps);  // warmup
    const long warm_iters = rollout.total_lp_iterations();
    const double warm_secs = rollout.total_lp_seconds();
    Stopwatch watch;
    const auto result = rollout.collect(steps);
    Measurement m;
    m.wall_seconds = watch.seconds();
    std::size_t collected = 0;
    for (const auto& r : result) collected += r.records.size();
    m.steps_per_sec = collected / m.wall_seconds;
    m.lp_iterations = rollout.total_lp_iterations() - warm_iters;
    m.lp_seconds = rollout.total_lp_seconds() - warm_secs;
    return m;
  };
  if (workers == 1) {
    rl::PlanningEnv serial_env(topology, env);
    Rng rng(seed);
    rl::RolloutWorkers rollout(serial_env, rng, net);
    return run(rollout);
  }
  rl::RolloutWorkers rollout(topology, env, net, workers, seed);
  return run(rollout);
}

}  // namespace

int main(int argc, char** argv) {
  obs::configure_from_env();  // NEUROPLAN_TRACE_OUT / NEUROPLAN_METRICS_OUT
  const std::string topos = env_string("NEUROPLAN_TOPOS", "B");
  const char preset = topos.empty() ? 'B' : topos[0];
  const unsigned seed = static_cast<unsigned>(env_long("NEUROPLAN_SEED", 7));
  const int steps = static_cast<int>(env_long("NEUROPLAN_ROLLOUT_STEPS", 3072));

  const topo::Topology topology = topo::make_preset(preset);
  rl::EnvConfig env;
  env.max_trajectory_steps = 256;
  Rng net_rng(seed);
  nn::ActorCritic net(network_config(env), net_rng);

  const std::vector<int> worker_counts = {1, 2, 4};
  std::vector<Measurement> rows;
  for (int k : worker_counts) {
    rows.push_back(measure(topology, env, net, k, seed, steps));
    std::printf("workers %d: %.1f steps/s (lp share %.0f%%, %.1f us per LP "
                "iteration)\n",
                k, rows.back().steps_per_sec,
                100.0 * rows.back().lp_seconds / rows.back().wall_seconds,
                rows.back().lp_us_per_iter());
  }
  const double speedup = rows.back().steps_per_sec / rows.front().steps_per_sec;
  const int hw_threads = util::ThreadPool::hardware_threads();
  std::printf("speedup 4 vs 1: %.2fx (on %d hardware threads)\n", speedup,
              hw_threads);
  // Worker counts past the core count share cores — flag it so low
  // speedups on small machines aren't misread as regressions.
  const bool oversubscribed = hw_threads < worker_counts.back();
  if (oversubscribed) {
    std::printf("warning: %d hardware threads < %d workers; speedup is "
                "thread-starved\n",
                hw_threads, worker_counts.back());
  }

  const char* out_path = argc > 1 ? argv[1] : "BENCH_rollout.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  long total_lp_iterations = 0;
  double total_lp_seconds = 0.0;
  for (const Measurement& m : rows) {
    total_lp_iterations += m.lp_iterations;
    total_lp_seconds += m.lp_seconds;
  }
  std::fprintf(out, "{\n");
  bench::print_json_provenance(out);
  std::fprintf(out,
               "  \"benchmark\": \"rollout_throughput\",\n"
               "  \"topology\": \"%c\",\n"
               "  \"steps_per_collect\": %d,\n"
               "  \"hardware_threads\": %d,\n"
               "  \"warning\": \"%s\",\n"
               "  \"workers\": [\n",
               preset, steps, hw_threads,
               oversubscribed ? "hardware_threads below max worker count; "
                                "speedup is thread-starved"
                              : "");
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    const Measurement& row = rows[i];
    std::fprintf(
        out,
        "    {\"workers\": %d, \"steps_per_sec\": %.2f, "
        "\"lp_iterations\": %ld, \"lp_seconds\": %.4f, "
        "\"lp_share\": %.3f, \"lp_us_per_iter\": %.2f}%s\n",
        worker_counts[i], row.steps_per_sec, row.lp_iterations, row.lp_seconds,
        row.wall_seconds > 0.0 ? row.lp_seconds / row.wall_seconds : 0.0,
        row.lp_us_per_iter(), i + 1 < worker_counts.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"total_lp_iterations\": %ld,\n"
               "  \"lp_seconds\": %.4f,\n"
               "  \"speedup_4v1\": %.3f\n"
               "}\n",
               total_lp_iterations, total_lp_seconds, speedup);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  obs::shutdown();
  return 0;
}
