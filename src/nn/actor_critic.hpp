// Actor-Critic network of Figure 6.
//
// A shared GCN encodes the transformed topology into per-node (= per-
// IP-link) embeddings. The actor MLP maps each node embedding to m
// logits (one per "add k units" amount, k = 1..m); flattening gives an
// n*m-way categorical distribution over (link, amount) actions, masked
// by spectrum feasibility (§4.2 "action representation"). The critic
// mean-pools the embeddings and predicts the state value.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ad/tape.hpp"
#include "la/sparse.hpp"
#include "nn/gat.hpp"
#include "nn/gcn.hpp"
#include "nn/mlp.hpp"

namespace np::nn {

/// Graph encoder family (Table 2 "GNN type": the paper ships GCN and
/// also evaluated GAT).
enum class GnnType { kGcn, kGat };

struct NetworkConfig {
  int feature_dim = 4;        ///< columns of topo::node_features
  GnnType gnn_type = GnnType::kGcn;
  int gcn_layers = 2;         ///< paper sweeps {0, 2, 4} (Fig. 10)
  int gcn_hidden = 64;
  std::vector<int> mlp_hidden = {64, 64};  ///< paper sweeps 16^2..512^2 (Fig. 11)
  int max_units_per_step = 4; ///< m; paper sweeps {1, 4, 16} (Fig. 12)
};

/// Action id encoding over the flattened n x m logits.
struct ActionId {
  int link = 0;
  int units = 1;  ///< 1..max_units_per_step
};

class ActorCritic {
 public:
  ActorCritic(const NetworkConfig& config, Rng& rng);

  /// Masked log-probabilities over the n*m actions. `action_mask` has
  /// size n*m in the same layout as decode/encode.
  ad::Tensor policy_log_probs(ad::Tape& tape,
                              std::shared_ptr<const la::CsrMatrix> adjacency,
                              const la::Matrix& features,
                              const std::vector<std::uint8_t>& action_mask);

  /// State value estimate (1 x 1 tensor).
  ad::Tensor value(ad::Tape& tape,
                   std::shared_ptr<const la::CsrMatrix> adjacency,
                   const la::Matrix& features);

  /// The acting forward: policy and value from ONE encoder pass. Each
  /// head records exactly the ops policy_log_probs / value record, so
  /// both outputs are bit-identical to those two forwards.
  struct Acting {
    ad::Tensor log_probs;  ///< 1 x (n*m), as policy_log_probs
    ad::Tensor value;      ///< 1 x 1, as value
  };
  Acting act(ad::Tape& tape, std::shared_ptr<const la::CsrMatrix> adjacency,
             const la::Matrix& features,
             const std::vector<std::uint8_t>& action_mask);

  int encode_action(ActionId action) const;
  ActionId decode_action(int flat_index) const;

  const NetworkConfig& config() const { return config_; }

  /// Parameter groups per Algorithm 1: θ_g (GNN), θ (actor), θ_v (critic).
  std::vector<ad::Parameter*> gnn_parameters() { return encoder_->parameters(); }
  std::vector<ad::Parameter*> actor_parameters() { return actor_.parameters(); }
  std::vector<ad::Parameter*> critic_parameters() { return critic_.parameters(); }
  std::vector<ad::Parameter*> all_parameters();

 private:
  /// The heads and the shared encoder pass every forward is built from.
  ad::Tensor encode(ad::Tape& tape, std::shared_ptr<const la::CsrMatrix> adjacency,
                    const la::Matrix& features);
  ad::Tensor policy_head(ad::Tape& tape, ad::Tensor embedding,
                         const std::vector<std::uint8_t>& action_mask);
  ad::Tensor value_head(ad::Tape& tape, ad::Tensor embedding);

  NetworkConfig config_;
  std::unique_ptr<GraphEncoder> encoder_;
  Mlp actor_;   // per-node embedding -> m logits
  Mlp critic_;  // pooled embedding -> value
};

}  // namespace np::nn
