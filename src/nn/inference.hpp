// Tape-free inference engine: the acting-time forward path.
//
// Training needs the autodiff tape; acting does not. A rollout worker
// selecting an action only needs the masked log-probabilities (and
// sometimes the value), so recording tape nodes, copying every weight
// matrix into tape leaves, and heap-allocating every intermediate is
// pure overhead. InferenceEngine snapshots the network's parameters
// into packed, cache-aligned buffers and runs the same forward math
// through the raw-pointer kernels in la/kernels.hpp, with every
// intermediate carved out of a preallocated la::Arena — steady-state
// forwards perform ZERO heap allocations.
//
// The engine is BIT-IDENTICAL to the tape (not merely close): every
// kernel reduces in the same ascending order as la::Matrix / ad::Tape,
// so a worker acting through the engine samples the exact action
// sequence the tape would have sampled. The tape forward stays the
// training path and the differential reference of the tests (see
// docs/INTERNALS.md §8).
//
// Threading: one engine per worker. An engine is single-threaded;
// rollout workers each own one and run it on their own thread.
// refresh() reads the live network, so refresh every engine before the
// workers start and leave the weights alone until they finish.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/arena.hpp"
#include "nn/actor_critic.hpp"

namespace np::nn {

class InferenceEngine {
 public:
  /// Snapshots `network`'s parameters immediately. The engine keeps a
  /// reference to the network only for refresh(); forwards never touch
  /// live parameters.
  explicit InferenceEngine(ActorCritic& network);

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Re-snapshot the parameters (call after every optimizer step).
  /// Allocation-free after the first call: the packed buffers are
  /// arena-backed and layer shapes never change.
  void refresh();

  struct Output {
    /// Masked log-probabilities, `action_dim` entries. Arena-backed:
    /// valid until the next forward/refresh on this engine.
    const double* log_probs = nullptr;
    std::size_t action_dim = 0;
    double value = 0.0;  ///< meaningful only when requested
  };

  /// Single-graph policy (and optionally value) forward, sharing one
  /// encoder pass. Bit-identical to ActorCritic::policy_log_probs /
  /// ::value on the same inputs.
  Output forward(const la::CsrMatrix& adjacency, const la::Matrix& features,
                 const std::vector<std::uint8_t>& action_mask, bool want_value);

  /// Critic-only single forward, bit-identical to ActorCritic::value.
  double value(const la::CsrMatrix& adjacency, const la::Matrix& features);

  // Arena introspection, used by the zero-allocation tests and the
  // nn.infer.arena_bytes gauge.
  std::size_t arena_high_water_bytes() const { return arena_.high_water_bytes(); }
  std::size_t arena_capacity_bytes() const { return arena_.capacity_bytes(); }
  long arena_reallocations() const { return arena_.reallocations(); }

 private:
  /// A packed linear layer: row-major weight (in x out) and bias (out).
  struct Lin {
    const double* w = nullptr;
    const double* b = nullptr;
    std::size_t in = 0;
    std::size_t out = 0;
  };
  struct GatLayer {
    Lin proj;
    const double* a_src = nullptr;  ///< hidden x 1
    const double* a_dst = nullptr;  ///< hidden x 1
  };

  const double* pack(const la::Matrix& m);
  Lin pack_linear(const ad::Parameter& weight, const ad::Parameter& bias);
  /// Policy (when `action_mask` is set) and/or value forward over one
  /// graph, sharing one encoder pass.
  Output run(const la::CsrMatrix& adjacency, const la::Matrix& features,
             const std::vector<std::uint8_t>* action_mask, bool want_value);
  /// Encoder pass; returns the (rows x encoder_dim) embedding (in the
  /// arena, or the features themselves for the identity encoder).
  const double* encode(const la::CsrMatrix& adjacency, const la::Matrix& features);
  /// Runs an MLP over a (rows x head[0].in) input; returns the
  /// (rows x head.back().out) output in the arena.
  const double* run_mlp(const std::vector<Lin>& head, const double* x,
                        std::size_t rows);

  ActorCritic* network_;
  NetworkConfig config_;
  std::size_t encoder_dim_ = 0;

  std::vector<Lin> gcn_;
  std::vector<GatLayer> gat_;
  std::vector<Lin> actor_;
  std::vector<Lin> critic_;

  la::Arena params_;  ///< packed parameter snapshot (reset by refresh)
  la::Arena arena_;   ///< per-forward intermediates (reset every run)
};

}  // namespace np::nn
