#include "nn/inference.hpp"

#include <algorithm>
#include <stdexcept>

#include "la/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace np::nn {

namespace {
// Matches the default of Tape::gat_aggregate (GatEncoder passes it
// implicitly); a mismatch here would silently break bit-identity.
constexpr double kLeakySlope = 0.2;

std::size_t max_row_nnz(const la::CsrMatrix& a) {
  const auto& offsets = a.row_offsets();
  std::size_t best = 0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    best = std::max(best, offsets[r + 1] - offsets[r]);
  }
  return best;
}
}  // namespace

InferenceEngine::InferenceEngine(ActorCritic& network)
    : network_(&network), config_(network.config()) {
  refresh();
}

const double* InferenceEngine::pack(const la::Matrix& m) {
  double* dst = params_.alloc_doubles(m.size());
  std::copy(m.data(), m.data() + m.size(), dst);
  return dst;
}

InferenceEngine::Lin InferenceEngine::pack_linear(const ad::Parameter& weight,
                                                  const ad::Parameter& bias) {
  NP_ASSERT(bias.value.rows() == 1 && bias.value.cols() == weight.value.cols(),
            "InferenceEngine: bias shape mismatch for ", weight.name);
  Lin lin;
  lin.in = weight.value.rows();
  lin.out = weight.value.cols();
  lin.w = pack(weight.value);
  lin.b = pack(bias.value);
  return lin;
}

void InferenceEngine::refresh() {
  static obs::Counter& refreshes = obs::counter("nn.infer.refreshes");
  refreshes.add(1);
  params_.reset();
  gcn_.clear();
  gat_.clear();
  actor_.clear();
  critic_.clear();

  const std::vector<ad::Parameter*> gnn = network_->gnn_parameters();
  if (config_.gnn_type == GnnType::kGcn) {
    NP_ASSERT(gnn.size() % 2 == 0, "InferenceEngine: odd GCN parameter count");
    for (std::size_t i = 0; i < gnn.size(); i += 2) {
      gcn_.push_back(pack_linear(*gnn[i], *gnn[i + 1]));
    }
  } else {
    NP_ASSERT(gnn.size() % 4 == 0, "InferenceEngine: bad GAT parameter count");
    for (std::size_t i = 0; i < gnn.size(); i += 4) {
      GatLayer layer;
      layer.proj = pack_linear(*gnn[i], *gnn[i + 1]);
      layer.a_src = pack(gnn[i + 2]->value);
      layer.a_dst = pack(gnn[i + 3]->value);
      gat_.push_back(layer);
    }
  }
  const std::vector<ad::Parameter*> actor = network_->actor_parameters();
  NP_ASSERT(actor.size() % 2 == 0, "InferenceEngine: odd actor parameter count");
  for (std::size_t i = 0; i < actor.size(); i += 2) {
    actor_.push_back(pack_linear(*actor[i], *actor[i + 1]));
  }
  const std::vector<ad::Parameter*> critic = network_->critic_parameters();
  NP_ASSERT(critic.size() % 2 == 0,
            "InferenceEngine: odd critic parameter count");
  for (std::size_t i = 0; i < critic.size(); i += 2) {
    critic_.push_back(pack_linear(*critic[i], *critic[i + 1]));
  }
  // The heads' input width is the encoder's output dimension (identity
  // encoders pass features through untouched).
  encoder_dim_ = actor_.front().in;
}

const double* InferenceEngine::encode(const la::CsrMatrix& adjacency,
                                      const la::Matrix& features) {
  namespace k = la::kernels;
  const std::size_t rows = features.rows();
  std::size_t width = static_cast<std::size_t>(config_.feature_dim);
  const double* h = features.data();

  // GCN: SpMM against the adjacency, then the fused dense projection.
  for (const Lin& lin : gcn_) {
    double* propagated = arena_.alloc_doubles(rows * width);
    k::spmm(adjacency, h, width, propagated);
    double* next = arena_.alloc_doubles(rows * lin.out);
    k::matmul_bias_act(propagated, rows, width, lin.w, lin.out, lin.b,
                       k::Activation::kRelu, next);
    h = next;
    width = lin.out;
  }
  if (gat_.empty()) return h;  // GCN, or the zero-layer identity encoder

  double* scratch = arena_.alloc_doubles(max_row_nnz(adjacency));
  for (const GatLayer& layer : gat_) {
    const std::size_t hidden = layer.proj.out;
    double* z = arena_.alloc_doubles(rows * hidden);
    k::matmul_bias_act(h, rows, width, layer.proj.w, hidden, layer.proj.b,
                       k::Activation::kNone, z);
    double* src = arena_.alloc_doubles(rows);
    double* dst = arena_.alloc_doubles(rows);
    k::matmul(z, rows, hidden, layer.a_src, 1, src);
    k::matmul(z, rows, hidden, layer.a_dst, 1, dst);
    double* aggregated = arena_.alloc_doubles(rows * hidden);
    k::gat_aggregate(adjacency, src, dst, z, hidden, kLeakySlope, scratch,
                     aggregated);
    k::bias_relu(aggregated, rows, hidden, nullptr, k::Activation::kRelu);
    h = aggregated;
    width = hidden;
  }
  return h;
}

const double* InferenceEngine::run_mlp(const std::vector<Lin>& head,
                                       const double* x, std::size_t rows) {
  namespace k = la::kernels;
  for (std::size_t i = 0; i < head.size(); ++i) {
    const Lin& lin = head[i];
    const k::Activation act =
        (i + 1 < head.size()) ? k::Activation::kRelu : k::Activation::kNone;
    double* y = arena_.alloc_doubles(rows * lin.out);
    k::matmul_bias_act(x, rows, lin.in, lin.w, lin.out, lin.b, act, y);
    x = y;
  }
  return x;
}

InferenceEngine::Output InferenceEngine::run(
    const la::CsrMatrix& adjacency, const la::Matrix& features,
    const std::vector<std::uint8_t>* action_mask, bool want_value) {
  namespace k = la::kernels;
  NP_SPAN("nn.infer.forward");
  static obs::Counter& forwards = obs::counter("nn.infer.forwards");
  static obs::Gauge& arena_bytes = obs::gauge("nn.infer.arena_bytes");
  forwards.add(1);
  const std::size_t rows = features.rows();
  const std::size_t m = static_cast<std::size_t>(config_.max_units_per_step);
  NP_CHECK_DIMS(rows, features.cols(), -1, config_.feature_dim,
                "InferenceEngine::run");
  if (adjacency.rows() != rows) {
    throw std::invalid_argument("InferenceEngine: adjacency/feature row mismatch");
  }
  if (action_mask != nullptr && action_mask->size() != rows * m) {
    throw std::invalid_argument("InferenceEngine: bad action mask");
  }
  arena_.reset();

  const double* embedding = encode(adjacency, features);
  Output out;
  if (action_mask != nullptr) {
    // The actor's (rows x m) logits flatten row-major to the action
    // layout.
    const double* logits = run_mlp(actor_, embedding, rows);
    out.action_dim = rows * m;
    double* log_probs = arena_.alloc_doubles(out.action_dim);
    k::masked_log_softmax(logits, action_mask->data(), out.action_dim, log_probs);
    out.log_probs = log_probs;
  }
  if (want_value) {
    double* pooled = arena_.alloc_doubles(encoder_dim_);
    k::mean_rows(embedding, rows, encoder_dim_, pooled);
    out.value = run_mlp(critic_, pooled, 1)[0];
  }
  arena_bytes.set(static_cast<double>(arena_.high_water_bytes()));
  return out;
}

InferenceEngine::Output InferenceEngine::forward(
    const la::CsrMatrix& adjacency, const la::Matrix& features,
    const std::vector<std::uint8_t>& action_mask, bool want_value) {
  return run(adjacency, features, &action_mask, want_value);
}

double InferenceEngine::value(const la::CsrMatrix& adjacency,
                              const la::Matrix& features) {
  return run(adjacency, features, nullptr, /*want_value=*/true).value;
}

}  // namespace np::nn
