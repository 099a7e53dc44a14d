// A trainable parameter: a matrix value plus an accumulated gradient and
// Adam moment estimates. Parameters live outside any Tape; each forward
// pass registers them as tape leaves — by reference, not by copy — and
// Tape::backward() accumulates the leaf gradients back into
// Parameter::grad.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "la/matrix.hpp"

namespace np::ad {

struct Parameter {
  Parameter() = default;
  Parameter(std::string name_, la::Matrix value_)
      : name(std::move(name_)),
        value(std::move(value_)),
        grad(value.rows(), value.cols(), 0.0),
        adam_m(value.rows(), value.cols(), 0.0),
        adam_v(value.rows(), value.cols(), 0.0) {}

  /// Zero the gradient, in place when it already has value's shape.
  void zero_grad() {
    if (grad.same_shape(value)) {
      std::fill(grad.flat().begin(), grad.flat().end(), 0.0);
    } else {
      grad = la::Matrix(value.rows(), value.cols(), 0.0);
    }
  }

  std::string name;
  la::Matrix value;
  la::Matrix grad;
  la::Matrix adam_m;  // first-moment estimate
  la::Matrix adam_v;  // second-moment estimate
  /// Bumped by every optimizer step that rewrites `value`. A tape reads
  /// `value` in place until its backward(), and checks (in checks-on
  /// builds) that the version it registered is still current.
  std::uint64_t version = 0;
};

}  // namespace np::ad
