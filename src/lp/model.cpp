#include "lp/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace np::lp {

SparseLines transpose(const SparseLines& lines, int count) {
  const int num_lines = static_cast<int>(lines.start.size()) - 1;
  SparseLines out;
  out.start.assign(count + 1, 0);
  for (const auto& [index, coeff] : lines.entries) {
    if (coeff != 0.0) ++out.start[index + 1];
  }
  for (int i = 0; i < count; ++i) out.start[i + 1] += out.start[i];
  out.entries.resize(out.start[count]);
  std::vector<int> cursor(out.start.begin(), out.start.end() - 1);
  for (int k = 0; k < num_lines; ++k) {
    for (const auto& [index, coeff] : lines.line(k)) {
      if (coeff != 0.0) out.entries[cursor[index]++] = {k, coeff};
    }
  }
  return out;
}

int Model::add_variable(double lower, double upper, double objective) {
  check_not_compressed("add_variable");
  if (lower > upper) throw std::invalid_argument("Model: variable lower > upper");
  if (!std::isfinite(objective)) throw std::invalid_argument("Model: non-finite objective");
  variables_.push_back({lower, upper, objective, false});
  return static_cast<int>(variables_.size()) - 1;
}

int Model::add_row(double lower, double upper, std::vector<Coefficient> coefficients) {
  check_not_compressed("add_row");
  if (lower > upper) throw std::invalid_argument("Model: row lower > upper");
  for (const auto& [var, coeff] : coefficients) {
    check_variable_index(var);
    if (!std::isfinite(coeff)) throw std::invalid_argument("Model: non-finite coefficient");
  }
  rows_.push_back({lower, upper});
  row_coefficients_.entries.insert(row_coefficients_.entries.end(),
                                   coefficients.begin(), coefficients.end());
  row_coefficients_.start.push_back(static_cast<int>(row_coefficients_.entries.size()));
  return static_cast<int>(rows_.size()) - 1;
}

void Model::compress() {
  if (compressed_) return;
  columns_ = transpose(row_coefficients_, num_variables());
  row_coefficients_ = SparseLines{};
  variables_.shrink_to_fit();
  rows_.shrink_to_fit();
  compressed_ = true;
}

const SparseLines& Model::columns() const {
  if (!compressed_) throw std::logic_error("Model::columns: model is not compressed");
  return columns_;
}

void Model::check_not_compressed(const char* what) const {
  if (compressed_) {
    throw std::logic_error(std::string("Model::") + what + ": model is compressed");
  }
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

std::vector<double> Model::row_activities(const std::vector<double>& x) const {
  if (x.size() != variables_.size()) {
    throw std::invalid_argument("Model::row_activities: size mismatch");
  }
  SparseLines temporary;
  const SparseLines& columns =
      compressed_ ? columns_ : (temporary = transpose(row_coefficients_, num_variables()));
  std::vector<double> activity(rows_.size(), 0.0);
  for (int j = 0; j < num_variables(); ++j) {
    for (const auto& [r, coeff] : columns.line(j)) activity[r] += coeff * x[j];
  }
  return activity;
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
  const std::vector<double> activity = row_activities(x);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    worst = std::max(worst, rows_[r].lower - activity[r]);
    worst = std::max(worst, activity[r] - rows_[r].upper);
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
  }
  // Row entries index variables, column entries index rows.
  const SparseLines& store = compressed_ ? columns_ : row_coefficients_;
  const int index_limit = compressed_ ? num_rows() : num_variables();
  for (const auto& [index, coeff] : store.entries) {
    if (index < 0 || index >= index_limit) {
      throw std::invalid_argument("Model: coefficient references an unknown index");
    }
    if (!std::isfinite(coeff)) throw std::invalid_argument("Model: non-finite coefficient");
  }
  validated_ = true;
}

}  // namespace np::lp
