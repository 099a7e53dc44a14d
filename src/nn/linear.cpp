#include "nn/linear.hpp"

#include <cmath>
#include <stdexcept>

#include "util/check.hpp"

namespace np::nn {

Linear::Linear(std::string name, int in_features, int out_features, Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  if (in_features < 1 || out_features < 1) {
    throw std::invalid_argument("Linear: feature dimensions must be positive");
  }
  la::Matrix w(in_features, out_features);
  const double scale = std::sqrt(2.0 / in_features);
  for (double& v : w.flat()) v = rng.normal() * scale;
  weight_ = ad::Parameter(name + ".weight", std::move(w));
  bias_ = ad::Parameter(name + ".bias", la::Matrix(1, out_features, 0.0));
}

ad::Tensor Linear::forward(ad::Tape& tape, ad::Tensor x) {
  NP_CHECK_DIMS(tape.rows(x), tape.cols(x), -1, in_features_,
                "Linear::forward");
  ad::Tensor w = tape.parameter(weight_);
  ad::Tensor b = tape.parameter(bias_);
  return tape.add_row_broadcast(tape.matmul(x, w), b);
}

std::vector<ad::Parameter*> Linear::parameters() { return {&weight_, &bias_}; }

}  // namespace np::nn
