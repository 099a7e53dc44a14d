#include "util/check.hpp"

#include <algorithm>
#include <cmath>

#include "obs/flight.hpp"
#include "util/log.hpp"

namespace np::util {

ContractViolation::ContractViolation(const std::string& what_arg)
    : std::logic_error(what_arg) {}

void contract_failure(const char* kind, const char* expr, const char* file,
                      int line, const std::string& detail) {
  std::string message = detail::concat(kind, " failed: ", expr, " at ", file,
                                       ":", line);
  if (!detail.empty()) message += detail::concat(" — ", detail);
  log_error(message);
  // Flight recorder: log the violation event and, when a .npcrash path
  // is armed, write the fatal report *before* the unwind destroys the
  // violating frame's state (the message is still at hand here).
  obs::fr_on_contract_violation(file, line, expr);
  throw ContractViolation(message);
}

namespace {

[[noreturn]] void fail(const char* where, const std::string& detail) {
  const std::string message =
      detail::concat("NP_CHECK failed in ", where, ": ", detail);
  log_error(message);
  // `where` is a call-site string literal, so it is stable storage for
  // the flight-recorder ring; the dynamic detail goes into the report's
  // trigger section only.
  obs::fr_on_contract_violation(where, 0, detail.c_str());
  throw ContractViolation(message);
}

}  // namespace

void check_csr(std::size_t rows, std::size_t cols,
               const std::vector<std::size_t>& row_offsets,
               const std::vector<std::size_t>& col_indices,
               std::size_t values_size, const char* where) {
  if (row_offsets.size() != rows + 1) {
    fail(where, detail::concat("row_offsets size ", row_offsets.size(),
                               " != rows+1 = ", rows + 1));
  }
  if (row_offsets.front() != 0) {
    fail(where, detail::concat("row_offsets[0] = ", row_offsets.front(),
                               ", expected 0"));
  }
  if (row_offsets.back() != col_indices.size()) {
    fail(where, detail::concat("row_offsets back ", row_offsets.back(),
                               " != nnz ", col_indices.size()));
  }
  if (values_size != col_indices.size()) {
    fail(where, detail::concat("values size ", values_size,
                               " != col_indices size ", col_indices.size()));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    if (row_offsets[r] > row_offsets[r + 1]) {
      fail(where, detail::concat("row_offsets decrease at row ", r));
    }
    for (std::size_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      if (col_indices[k] >= cols) {
        fail(where, detail::concat("column index ", col_indices[k],
                                   " out of bounds (cols = ", cols, ") in row ",
                                   r));
      }
      if (k > row_offsets[r] && col_indices[k] <= col_indices[k - 1]) {
        fail(where, detail::concat("column indices not strictly ascending in row ",
                                   r, " at nnz ", k));
      }
    }
  }
}

void check_dims(std::size_t rows, std::size_t cols, long expected_rows,
                long expected_cols, const char* where) {
  if (expected_rows >= 0 && rows != static_cast<std::size_t>(expected_rows)) {
    fail(where, detail::concat("shape (", rows, " x ", cols, ") has ", rows,
                               " rows, expected ", expected_rows));
  }
  if (expected_cols >= 0 && cols != static_cast<std::size_t>(expected_cols)) {
    fail(where, detail::concat("shape (", rows, " x ", cols, ") has ", cols,
                               " cols, expected ", expected_cols));
  }
}

void check_finite(const double* data, std::size_t count, const char* where) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::isfinite(data[i])) {
      fail(where, detail::concat("non-finite value ", data[i], " at index ", i,
                                 " of ", count));
    }
  }
}

void check_finite(const std::vector<double>& values, const char* where) {
  check_finite(values.data(), values.size(), where);
}

void check_action_mask(const std::vector<std::uint8_t>& mask,
                       const std::vector<int>& headroom_units,
                       int max_units_per_step, const char* where) {
  if (max_units_per_step < 1) {
    fail(where, detail::concat("max_units_per_step = ", max_units_per_step));
  }
  const std::size_t m = static_cast<std::size_t>(max_units_per_step);
  if (mask.size() != headroom_units.size() * m) {
    fail(where, detail::concat("mask size ", mask.size(), " != links ",
                               headroom_units.size(), " * m ", m));
  }
  for (std::size_t l = 0; l < headroom_units.size(); ++l) {
    const int allowed = std::min(headroom_units[l], max_units_per_step);
    for (std::size_t k = 1; k <= m; ++k) {
      const bool expected = static_cast<int>(k) <= allowed;
      const bool got = mask[l * m + (k - 1)] != 0;
      if (got != expected) {
        fail(where,
             detail::concat("mask[link ", l, ", add ", k, "] = ", got,
                            " but spectrum headroom ", headroom_units[l],
                            " allows <= ", allowed));
      }
    }
  }
}

void check_lu(int dim,
              const std::vector<std::vector<std::pair<int, double>>>& lower,
              const std::vector<std::vector<std::pair<int, double>>>& upper,
              const std::vector<double>& diag,
              const std::vector<std::vector<std::pair<int, double>>>& permuted_columns,
              double tolerance, const char* where) {
  const std::size_t n = static_cast<std::size_t>(dim);
  if (lower.size() != n || upper.size() != n || diag.size() != n ||
      permuted_columns.size() != n) {
    fail(where, detail::concat("LU shape mismatch for dim ", dim, ": L ",
                               lower.size(), ", U ", upper.size(), ", diag ",
                               diag.size(), ", columns ",
                               permuted_columns.size()));
  }
  for (int k = 0; k < dim; ++k) {
    if (!std::isfinite(diag[k]) || diag[k] == 0.0) {
      fail(where, detail::concat("U diagonal entry ", k, " = ", diag[k],
                                 " (singular or non-finite)"));
    }
    for (const auto& [i, v] : lower[k]) {
      if (i <= k || i >= dim) {
        fail(where, detail::concat("L entry at (", i, ", ", k,
                                   ") outside the strict lower triangle"));
      }
      if (!std::isfinite(v)) {
        fail(where, detail::concat("non-finite L entry at (", i, ", ", k, ")"));
      }
    }
    for (const auto& [i, v] : upper[k]) {
      if (i < 0 || i >= k) {
        fail(where, detail::concat("U entry at (", i, ", ", k,
                                   ") outside the strict upper triangle"));
      }
      if (!std::isfinite(v)) {
        fail(where, detail::concat("non-finite U entry at (", i, ", ", k, ")"));
      }
    }
  }
  // Residual P·B·Q - L·U, column by column: the reconstructed column
  // sum_i U_ik * L[:, i] (L's diagonal implicit 1) must match the
  // permuted basis column.
  std::vector<double> work(n, 0.0);
  std::vector<int> touched;
  for (int k = 0; k < dim; ++k) {
    touched.clear();
    double scale = 1.0;
    auto accumulate = [&](int i, double u) {
      work[i] += u;
      touched.push_back(i);
      for (const auto& [r, v] : lower[i]) {
        work[r] += v * u;
        touched.push_back(r);
      }
    };
    for (const auto& [i, u] : upper[k]) accumulate(i, u);
    accumulate(k, diag[k]);
    for (const auto& [r, v] : permuted_columns[k]) {
      work[r] -= v;
      touched.push_back(r);
      scale = std::max(scale, std::abs(v));
    }
    for (int r : touched) {
      if (std::abs(work[r]) > tolerance * scale) {
        const double residual = work[r];
        for (int t : touched) work[t] = 0.0;
        fail(where, detail::concat("P·B·Q - L·U residual ", residual,
                                   " at position (", r, ", ", k,
                                   ") exceeds ", tolerance, " * ", scale));
      }
    }
    for (int r : touched) work[r] = 0.0;
  }
}

}  // namespace np::util
