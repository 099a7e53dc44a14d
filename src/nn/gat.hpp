// Graph Attention Network encoder (Velickovic et al.), single head per
// layer, using the standard score decomposition
//   e_ij = LeakyReLU(a_src . W h_i + a_dst . W h_j)
// with a softmax over each node's neighborhood (self loop included).
// The paper reports GAT "did not perform as well as GCNs for our
// problem" with a larger memory footprint — the abl_gat_vs_gcn bench
// reproduces that comparison.
#pragma once

#include <unordered_map>

#include "nn/encoder.hpp"
#include "nn/linear.hpp"
#include "util/mutex.hpp"

namespace np::nn {

class GatEncoder final : public GraphEncoder {
 public:
  GatEncoder(std::string name, int in_features, int hidden, int layers, Rng& rng);

  ad::Tensor forward(ad::Tape& tape,
                     std::shared_ptr<const la::CsrMatrix> adjacency,
                     ad::Tensor features) override;

  std::vector<ad::Parameter*> parameters() override;
  int output_dim() const override { return layers_.empty() ? in_features_ : hidden_; }
  int num_layers() const { return static_cast<int>(layers_.size()); }

 private:
  struct AttentionLayer {
    Linear projection;       // W
    ad::Parameter a_src;     // h x 1
    ad::Parameter a_dst;     // h x 1
  };

  /// Neighbor lists derived from the adjacency's sparsity pattern,
  /// cached per adjacency object. Guarded by cache_mutex_ so concurrent
  /// rollout workers can share one encoder safely.
  std::shared_ptr<const std::vector<std::vector<int>>> neighbor_lists(
      const std::shared_ptr<const la::CsrMatrix>& adjacency)
      NP_EXCLUDES(cache_mutex_);

  struct NeighborEntry {
    /// Owning the adjacency keeps its address from being recycled while
    /// the entry lives, so the address key can never alias a new matrix.
    std::shared_ptr<const la::CsrMatrix> adjacency;
    std::shared_ptr<const std::vector<std::vector<int>>> lists;
  };

  int in_features_;
  int hidden_;
  std::vector<AttentionLayer> layers_;
  util::Mutex cache_mutex_;
  std::unordered_map<const la::CsrMatrix*, NeighborEntry> neighbor_cache_
      NP_GUARDED_BY(cache_mutex_);
};

}  // namespace np::nn
