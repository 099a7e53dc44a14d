#include "lp/model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace np::lp {

int Model::add_variable(double lower, double upper, double objective) {
  if (lower > upper) throw std::invalid_argument("Model: variable lower > upper");
  if (!std::isfinite(objective)) throw std::invalid_argument("Model: non-finite objective");
  variables_.push_back({lower, upper, objective, false});
  return static_cast<int>(variables_.size()) - 1;
}

int Model::add_row(double lower, double upper, std::vector<Coefficient> coefficients) {
  if (lower > upper) throw std::invalid_argument("Model: row lower > upper");
  for (const auto& [var, coeff] : coefficients) {
    check_variable_index(var);
    if (!std::isfinite(coeff)) throw std::invalid_argument("Model: non-finite coefficient");
  }
  rows_.push_back({lower, upper, std::move(coefficients)});
  return static_cast<int>(rows_.size()) - 1;
}

void Model::check_variable_index(int index) const {
  if (index < 0 || index >= num_variables()) {
    throw std::out_of_range("Model: variable index " + std::to_string(index));
  }
}

void Model::check_row_index(int index) const {
  if (index < 0 || index >= num_rows()) {
    throw std::out_of_range("Model: row index " + std::to_string(index));
  }
}

void Model::set_variable_bounds(int index, double lower, double upper) {
  check_variable_index(index);
  if (lower > upper) throw std::invalid_argument("Model: variable lower > upper");
  variables_[index].lower = lower;
  variables_[index].upper = upper;
}

void Model::set_objective_coefficient(int index, double objective) {
  check_variable_index(index);
  if (!std::isfinite(objective)) throw std::invalid_argument("Model: non-finite objective");
  variables_[index].objective = objective;
}

void Model::set_integer(int index, bool is_integer) {
  check_variable_index(index);
  variables_[index].is_integer = is_integer;
}

void Model::set_row_bounds(int index, double lower, double upper) {
  check_row_index(index);
  if (lower > upper) throw std::invalid_argument("Model: row lower > upper");
  rows_[index].lower = lower;
  rows_[index].upper = upper;
}

double Model::objective_value(const std::vector<double>& x) const {
  if (x.size() != variables_.size()) {
    throw std::invalid_argument("Model::objective_value: size mismatch");
  }
  double total = 0.0;
  for (std::size_t j = 0; j < variables_.size(); ++j) total += variables_[j].objective * x[j];
  return total;
}

double Model::max_violation(const std::vector<double>& x) const {
  if (x.size() != variables_.size()) {
    throw std::invalid_argument("Model::max_violation: size mismatch");
  }
  double worst = 0.0;
  for (std::size_t j = 0; j < variables_.size(); ++j) {
    worst = std::max(worst, variables_[j].lower - x[j]);
    worst = std::max(worst, x[j] - variables_[j].upper);
  }
  for (const Row& row : rows_) {
    double activity = 0.0;
    for (const auto& [var, coeff] : row.coefficients) activity += coeff * x[var];
    worst = std::max(worst, row.lower - activity);
    worst = std::max(worst, activity - row.upper);
  }
  return worst;
}

void Model::validate() const {
  if (validated_) return;
  for (const Variable& v : variables_) {
    if (v.lower > v.upper) throw std::invalid_argument("Model: inverted variable bounds");
  }
  for (const Row& row : rows_) {
    if (row.lower > row.upper) throw std::invalid_argument("Model: inverted row bounds");
    for (const auto& [var, coeff] : row.coefficients) {
      if (var < 0 || var >= num_variables()) {
        throw std::invalid_argument("Model: row references unknown variable");
      }
      if (!std::isfinite(coeff)) throw std::invalid_argument("Model: non-finite coefficient");
    }
  }
  validated_ = true;
}

}  // namespace np::lp
