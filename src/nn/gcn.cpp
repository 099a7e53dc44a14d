#include "nn/gcn.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace np::nn {

GcnEncoder::GcnEncoder(std::string name, int in_features, int hidden, int layers,
                       Rng& rng)
    : in_features_(in_features), hidden_(hidden) {
  if (in_features < 1) throw std::invalid_argument("GcnEncoder: bad input dim");
  if (layers < 0) throw std::invalid_argument("GcnEncoder: negative layer count");
  if (layers > 0 && hidden < 1) throw std::invalid_argument("GcnEncoder: bad hidden dim");
  int in = in_features;
  for (int l = 0; l < layers; ++l) {
    layers_.emplace_back(name + ".gcn" + std::to_string(l), in, hidden, rng);
    in = hidden;
  }
}

ad::Tensor GcnEncoder::forward(ad::Tape& tape,
                               std::shared_ptr<const la::CsrMatrix> adjacency,
                               ad::Tensor features) {
  if (layers_.empty()) return features;
  if (adjacency == nullptr) {
    throw std::invalid_argument("GcnEncoder: null adjacency");
  }
  // First-layer width is fixed by the node-link feature encoding; a
  // mismatch here means the env's feature builder and the network
  // config diverged.
  NP_CHECK_DIMS(tape.rows(features), tape.cols(features), -1,
                in_features_, "GcnEncoder::forward");
  ad::Tensor h = features;
  for (Linear& layer : layers_) {
    // Eq. 7: propagate, project, activate.
    h = tape.relu(layer.forward(tape, tape.spmm(adjacency, h)));
  }
  return h;
}

std::vector<ad::Parameter*> GcnEncoder::parameters() {
  std::vector<ad::Parameter*> params;
  for (Linear& layer : layers_) {
    for (ad::Parameter* p : layer.parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace np::nn
