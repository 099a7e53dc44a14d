#include "nn/actor_critic.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace np::nn {

namespace {

std::unique_ptr<GraphEncoder> make_encoder(const NetworkConfig& config, Rng& rng) {
  if (config.gnn_type == GnnType::kGat) {
    return std::make_unique<GatEncoder>("gnn", config.feature_dim,
                                        config.gcn_hidden, config.gcn_layers, rng);
  }
  return std::make_unique<GcnEncoder>("gnn", config.feature_dim, config.gcn_hidden,
                                      config.gcn_layers, rng);
}

/// The mask has one entry per (link, amount) action.
void check_mask(const NetworkConfig& config, const la::Matrix& features,
                const std::vector<std::uint8_t>& action_mask) {
  if (action_mask.size() !=
      features.rows() * static_cast<std::size_t>(config.max_units_per_step)) {
    throw std::invalid_argument("ActorCritic: action mask size mismatch");
  }
}

}  // namespace

ActorCritic::ActorCritic(const NetworkConfig& config, Rng& rng)
    : config_(config),
      encoder_(make_encoder(config, rng)),
      actor_("actor", encoder_->output_dim(), config.mlp_hidden,
             config.max_units_per_step, rng),
      critic_("critic", encoder_->output_dim(), config.mlp_hidden, 1, rng) {
  if (config.max_units_per_step < 1) {
    throw std::invalid_argument("ActorCritic: max_units_per_step must be >= 1");
  }
}

ad::Tensor ActorCritic::encode(ad::Tape& tape,
                               std::shared_ptr<const la::CsrMatrix> adjacency,
                               const la::Matrix& features) {
  NP_CHECK_DIMS(features.rows(), features.cols(), -1, config_.feature_dim,
                "ActorCritic::encode");
  return encoder_->forward(tape, std::move(adjacency), tape.constant(features));
}

ad::Tensor ActorCritic::policy_head(ad::Tape& tape, ad::Tensor embedding,
                                    const std::vector<std::uint8_t>& action_mask) {
  ad::Tensor logits = actor_.forward(tape, embedding);        // n x m
  ad::Tensor flat = tape.flatten_to_row(logits);              // 1 x (n*m)
  return tape.masked_log_softmax(flat, action_mask);
}

ad::Tensor ActorCritic::value_head(ad::Tape& tape, ad::Tensor embedding) {
  return critic_.forward(tape, tape.mean_rows(embedding));
}

ad::Tensor ActorCritic::policy_log_probs(
    ad::Tape& tape, std::shared_ptr<const la::CsrMatrix> adjacency,
    const la::Matrix& features, const std::vector<std::uint8_t>& action_mask) {
  NP_SPAN("nn.policy_forward");
  static obs::Counter& forwards = obs::counter("nn.policy_forwards");
  forwards.add(1);
  check_mask(config_, features, action_mask);
  return policy_head(tape, encode(tape, std::move(adjacency), features), action_mask);
}

ad::Tensor ActorCritic::value(ad::Tape& tape,
                              std::shared_ptr<const la::CsrMatrix> adjacency,
                              const la::Matrix& features) {
  NP_SPAN("nn.value_forward");
  static obs::Counter& forwards = obs::counter("nn.value_forwards");
  forwards.add(1);
  return value_head(tape, encode(tape, std::move(adjacency), features));
}

ActorCritic::Acting ActorCritic::act(ad::Tape& tape,
                                     std::shared_ptr<const la::CsrMatrix> adjacency,
                                     const la::Matrix& features,
                                     const std::vector<std::uint8_t>& action_mask) {
  NP_SPAN("nn.infer.forward");
  static obs::Counter& forwards = obs::counter("nn.infer.forwards");
  forwards.add(1);
  check_mask(config_, features, action_mask);
  const ad::Tensor embedding = encode(tape, std::move(adjacency), features);
  Acting out;
  out.log_probs = policy_head(tape, embedding, action_mask);
  out.value = value_head(tape, embedding);
  return out;
}

int ActorCritic::encode_action(ActionId action) const {
  if (action.units < 1 || action.units > config_.max_units_per_step) {
    throw std::invalid_argument("encode_action: units out of range");
  }
  if (action.link < 0) throw std::invalid_argument("encode_action: negative link");
  return action.link * config_.max_units_per_step + (action.units - 1);
}

ActionId ActorCritic::decode_action(int flat_index) const {
  if (flat_index < 0) throw std::invalid_argument("decode_action: negative index");
  ActionId action;
  action.link = flat_index / config_.max_units_per_step;
  action.units = flat_index % config_.max_units_per_step + 1;
  return action;
}

std::vector<ad::Parameter*> ActorCritic::all_parameters() {
  std::vector<ad::Parameter*> params = encoder_->parameters();
  for (ad::Parameter* p : actor_.parameters()) params.push_back(p);
  for (ad::Parameter* p : critic_.parameters()) params.push_back(p);
  return params;
}

}  // namespace np::nn
