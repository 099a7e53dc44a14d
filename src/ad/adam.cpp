#include "ad/adam.hpp"

#include <cmath>

namespace np::ad {

void Adam::add_parameters(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) params_.push_back(p);
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  for (Parameter* p : params_) {
    double scale = 1.0;
    if (config_.grad_clip > 0.0) {
      double norm_sq = 0.0;
      for (double g : p->grad.flat()) norm_sq += g * g;
      const double norm = std::sqrt(norm_sq);
      if (norm > config_.grad_clip) scale = config_.grad_clip / norm;
    }
    for (std::size_t i = 0; i < p->value.flat().size(); ++i) {
      const double g = p->grad.flat()[i] * scale;
      double& m = p->adam_m.flat()[i];
      double& v = p->adam_v.flat()[i];
      m = config_.beta1 * m + (1.0 - config_.beta1) * g;
      v = config_.beta2 * v + (1.0 - config_.beta2) * g * g;
      const double m_hat = m / bc1;
      const double v_hat = v / bc2;
      p->value.flat()[i] -= config_.learning_rate * m_hat / (std::sqrt(v_hat) + config_.epsilon);
    }
    ++p->version;
  }
}

void Adam::zero_grad() {
  for (Parameter* p : params_) p->zero_grad();
}

}  // namespace np::ad
