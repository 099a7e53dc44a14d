#include "nn/gat.hpp"

#include <stdexcept>

namespace np::nn {

GatEncoder::GatEncoder(std::string name, int in_features, int hidden, int layers,
                       Rng& rng)
    : in_features_(in_features), hidden_(hidden) {
  if (in_features < 1) throw std::invalid_argument("GatEncoder: bad input dim");
  if (layers < 0) throw std::invalid_argument("GatEncoder: negative layer count");
  if (layers > 0 && hidden < 1) throw std::invalid_argument("GatEncoder: bad hidden dim");
  int in = in_features;
  for (int l = 0; l < layers; ++l) {
    const std::string tag = name + ".gat" + std::to_string(l);
    la::Matrix a1(hidden, 1), a2(hidden, 1);
    const double scale = std::sqrt(2.0 / hidden);
    for (double& v : a1.flat()) v = rng.normal() * scale;
    for (double& v : a2.flat()) v = rng.normal() * scale;
    layers_.push_back(AttentionLayer{Linear(tag + ".w", in, hidden, rng),
                                     ad::Parameter(tag + ".a_src", std::move(a1)),
                                     ad::Parameter(tag + ".a_dst", std::move(a2))});
    in = hidden;
  }
}

ad::Tensor GatEncoder::forward(ad::Tape& tape,
                               std::shared_ptr<const la::CsrMatrix> adjacency,
                               ad::Tensor features) {
  if (layers_.empty()) return features;
  if (adjacency == nullptr) {
    throw std::invalid_argument("GatEncoder: null adjacency");
  }
  ad::Tensor h = features;
  for (AttentionLayer& layer : layers_) {
    ad::Tensor z = layer.projection.forward(tape, h);           // n x hidden
    ad::Tensor src = tape.matmul(z, tape.parameter(layer.a_src));  // n x 1
    ad::Tensor dst = tape.matmul(z, tape.parameter(layer.a_dst));  // n x 1
    h = tape.relu(tape.gat_aggregate(src, dst, z, adjacency));
  }
  return h;
}

std::vector<ad::Parameter*> GatEncoder::parameters() {
  std::vector<ad::Parameter*> params;
  for (AttentionLayer& layer : layers_) {
    for (ad::Parameter* p : layer.projection.parameters()) params.push_back(p);
    params.push_back(&layer.a_src);
    params.push_back(&layer.a_dst);
  }
  return params;
}

}  // namespace np::nn
