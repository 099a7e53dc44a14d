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

std::shared_ptr<const std::vector<std::vector<int>>> GatEncoder::neighbor_lists(
    const std::shared_ptr<const la::CsrMatrix>& adjacency) {
  {
    util::LockGuard lock(cache_mutex_);
    auto it = neighbor_cache_.find(adjacency.get());
    if (it != neighbor_cache_.end()) return it->second.lists;
  }
  auto lists = std::make_shared<std::vector<std::vector<int>>>(adjacency->rows());
  for (std::size_t r = 0; r < adjacency->rows(); ++r) {
    const auto begin = adjacency->row_offsets()[r];
    const auto end = adjacency->row_offsets()[r + 1];
    (*lists)[r].reserve(end - begin);
    for (std::size_t k = begin; k < end; ++k) {
      (*lists)[r].push_back(static_cast<int>(adjacency->col_indices()[k]));
    }
  }
  util::LockGuard lock(cache_mutex_);
  // Bound the cache: each entry keeps its adjacency alive, so long-lived
  // encoders seeing many transient matrices hold at most 64 of them.
  if (neighbor_cache_.size() >= 64) neighbor_cache_.clear();
  auto [it, inserted] = neighbor_cache_.emplace(
      adjacency.get(), NeighborEntry{adjacency, std::move(lists)});
  return it->second.lists;
}

ad::Tensor GatEncoder::forward(ad::Tape& tape,
                               std::shared_ptr<const la::CsrMatrix> adjacency,
                               ad::Tensor features) {
  if (layers_.empty()) return features;
  if (adjacency == nullptr) {
    throw std::invalid_argument("GatEncoder: null adjacency");
  }
  const auto neighbors = neighbor_lists(adjacency);
  ad::Tensor h = features;
  for (AttentionLayer& layer : layers_) {
    ad::Tensor z = layer.projection.forward(tape, h);           // n x hidden
    ad::Tensor src = tape.matmul(z, tape.parameter(layer.a_src));  // n x 1
    ad::Tensor dst = tape.matmul(z, tape.parameter(layer.a_dst));  // n x 1
    h = tape.relu(tape.gat_aggregate(src, dst, z, neighbors));
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
