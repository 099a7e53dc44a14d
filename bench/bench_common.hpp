// Shared helpers for the figure-reproduction benches.
//
// Every bench prints (a) the hyperparameter header (Table 2 values in
// effect), (b) the same normalized rows/series its paper figure
// reports. Scale knobs are environment variables so a user can crank
// fidelity without recompiling:
//   NEUROPLAN_TOPOS    e.g. "ABC"   — subset of preset topologies
//   NEUROPLAN_EPOCHS   e.g. "256"   — RL epochs override (0 = default)
//   NEUROPLAN_SEED     e.g. "7"     — RL / workload seed
//   NEUROPLAN_ILP_TIME e.g. "120"   — exact-ILP budget seconds
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/neuroplan.hpp"
#include "topo/generator.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace np::bench {

/// Schema version stamped into every emitted BENCH_*.json. Bump when a
/// bench changes the meaning or layout of its JSON fields, so perf
/// trajectories across PRs compare like with like.
/// v3: lp_throughput gained the per-pricing-rule breakdown (multiple
/// topologies per file, pricing_seconds/pricing_share per pass).
/// v4: rollout_throughput reports the worker curve per inference mode
/// (fast/tape) under "modes"; new nn_inference bench (BENCH_infer.json).
/// v5: new serve_throughput bench (BENCH_serve.json: QPS vs p50/p99 and
/// shed/degraded rates per worker count); shared provenance gained
/// "hw_threads" and, on single-hardware-thread hosts, a machine-readable
/// "hw_warning" block — throughput scaling numbers from a 1-thread box
/// measure contention, not parallel speedup.
/// v6: rollout_throughput lost the fast/tape mode axis (one worker
/// curve under "workers", each row with lp_us_per_iter); nn_inference
/// lost its "ragged_batch" section ("arena_bytes" moved to the top).
/// v7: lp_throughput runs one cold and one warm pass per formulation
/// under the solver's own pricing (devex cold, Dantzig warm): the
/// per-rule sections, "pricing_rules", the dense-inverse pass and the
/// cold_iterations_vs_dantzig / sparse_vs_dense_* fields are gone.
inline constexpr int kBenchSchemaVersion = 7;

/// Git revision baked in at configure time (bench/CMakeLists.txt);
/// "unknown" outside a git checkout.
inline const char* git_rev() {
#ifdef NEUROPLAN_GIT_REV
  return NEUROPLAN_GIT_REV;
#else
  return "unknown";
#endif
}

/// Emit the shared provenance fields. Call right after writing the
/// opening '{' of a BENCH_*.json document (fields end with a comma).
/// Includes hardware-thread provenance: scaling curves recorded on a
/// single-hardware-thread host are flagged with a hw_warning block
/// (thread_starved is numeric so bench_diff's numeric-leaf flattening
/// surfaces it in comparisons).
inline void print_json_provenance(std::FILE* out) {
  const int hw = util::ThreadPool::hardware_threads();
  std::fprintf(out, "  \"schema_version\": %d,\n  \"git_rev\": \"%s\",\n",
               kBenchSchemaVersion, git_rev());
  std::fprintf(out, "  \"hw_threads\": %d,\n", hw);
  if (hw <= 1) {
    std::fprintf(out,
                 "  \"hw_warning\": {\n"
                 "    \"thread_starved\": 1,\n"
                 "    \"detail\": \"single hardware thread: worker-scaling "
                 "series measure contention, not parallel speedup\"\n"
                 "  },\n");
  }
}

inline std::string topo_selection(const std::string& fallback) {
  return env_string("NEUROPLAN_TOPOS", fallback);
}

inline unsigned bench_seed() {
  return static_cast<unsigned>(env_long("NEUROPLAN_SEED", 7));
}

inline double ilp_time_budget() {
  return env_double("NEUROPLAN_ILP_TIME", 120.0);
}

/// Training config for bench runs: the shared CPU-budget defaults with
/// a per-topology epoch schedule, overridable via NEUROPLAN_EPOCHS.
inline rl::TrainConfig bench_train_config(const topo::Topology& topology,
                                          char topo_id, unsigned seed) {
  rl::TrainConfig config = core::default_train_config(topology, seed);
  switch (topo_id) {
    case 'A': config.epochs = 32; break;
    case 'B': config.epochs = 32; break;
    case 'C': config.epochs = 24; break;
    case 'D': config.epochs = 10; break;
    default:  config.epochs = 6; break;
  }
  const long override_epochs = env_long("NEUROPLAN_EPOCHS", 0);
  if (override_epochs > 0) config.epochs = static_cast<int>(override_epochs);
  return config;
}

/// Second-stage ILP budget, scaled with the topology (override with
/// NEUROPLAN_STAGE2_TIME).
inline double stage2_budget(char topo_id) {
  double fallback = 60.0;
  switch (topo_id) {
    case 'C': fallback = 120.0; break;
    case 'D': fallback = 150.0; break;
    case 'E': fallback = 180.0; break;
    default: break;
  }
  return env_double("NEUROPLAN_STAGE2_TIME", fallback);
}

inline void print_header(const char* figure, const char* description) {
  std::printf("==== %s ====\n%s\n", figure, description);
  std::printf("(Table 2 defaults in effect: gamma=0.99 gae-lambda=0.97 GNN=GCN "
              "relu; CPU-budget adaptations per EXPERIMENTS.md)\n\n");
}

}  // namespace np::bench
