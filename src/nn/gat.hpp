// Graph Attention Network encoder (Velickovic et al.), single head per
// layer, using the standard score decomposition
//   e_ij = LeakyReLU(a_src . W h_i + a_dst . W h_j)
// with a softmax over each node's neighborhood (self loop included):
// the adjacency's sparsity pattern, read in place on every forward.
// The paper reports GAT "did not perform as well as GCNs for our
// problem" with a larger memory footprint — the abl_gat_vs_gcn bench
// reproduces that comparison.
#pragma once

#include "nn/encoder.hpp"
#include "nn/linear.hpp"

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

  int in_features_;
  int hidden_;
  std::vector<AttentionLayer> layers_;
};

}  // namespace np::nn
