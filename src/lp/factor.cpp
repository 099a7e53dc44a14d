#include "lp/factor.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <utility>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace np::lp {

namespace {

/// Absolute floor under which a pivot candidate is treated as zero
/// (matches the simplex pivot tolerance).
constexpr double kAbsolutePivotTolerance = 1e-9;

/// Threshold partial pivoting: any candidate within this factor of the
/// column's largest magnitude is stable enough, which frees the choice
/// to prefer sparsity (the Markowitz-style row-count tie-break).
constexpr double kRelativePivotThreshold = 0.1;

/// Eta-file growth limits past which refactorizing wins.
constexpr int kMaxEtas = 128;

}  // namespace

bool BasisFactor::factorize(int m, const std::vector<ColumnView>& columns) {
  if (obs::detail_enabled() && lu_.m > 0) {
    // How long the eta file got before this refactorization — the
    // "update vs. refactor" balance the simplex is actually running at.
    static obs::Histogram& eta_len = obs::histogram(
        "lp.eta_entries_at_refactor", obs::exponential_buckets(1.0, 2.0, 14));
    eta_len.observe(static_cast<double>(stats_.eta_entries));
  }
  lu_.m = m;
  etas_.clear();
  eta_entries_.clear();
  ++stats_.factorizations;
  stats_.eta_entries = 0;
  stats_.lu_entries = 0;
  lu_.lower_entries.clear();
  lu_.upper_entries.clear();
  lu_.lower_start.assign(m + 1, 0);
  lu_.upper_start.assign(m + 1, 0);
  lu_.diag.assign(m, 0.0);
  lu_.row_of_pos.assign(m, -1);
  lu_.pos_of_row.assign(m, -1);
  lu_.col_of_pos.assign(m, -1);
  lu_.pos_of_col.assign(m, -1);
  if (m == 0) return true;

  // Static Markowitz-style column preorder: ascending nonzero count, so
  // slack/artificial singletons pivot first and generate no fill.
  // Counting sort — nonzero counts are bounded by m, and factorize()
  // runs up to a few times per solve, so the O(m log m) comparison sort
  // was measurable here.
  order_.resize(m);
  count_start_.assign(m + 2, 0);
  for (int c = 0; c < m; ++c) {
    ++count_start_[std::min(columns[c].size(), m) + 1];
  }
  for (int k = 1; k <= m + 1; ++k) count_start_[k] += count_start_[k - 1];
  for (int c = 0; c < m; ++c) {
    order_[count_start_[std::min(columns[c].size(), m)]++] = c;
  }

  // Row counts approximate the Markowitz row degree for tie-breaking.
  row_count_.assign(m, 0);
  for (int c = 0; c < m; ++c) {
    for (const auto& [r, v] : columns[c]) {
      (void)v;
      ++row_count_[r];
    }
  }

  if (scatter_.size() != m) scatter_.resize(m);
  stats_.reach_positions = 0;
  // L columns are built in original-row space during elimination (their
  // rows gain pivot positions only later); the indices are rewritten to
  // position space once the row permutation is complete.
  for (int k = 0; k < m; ++k) {
    const int col = order_[k];
    // Left-looking sparse solve: x = L_k^{-1} a_col with the L built so
    // far, accumulated in the scatter workspace (original-row space).
    // Only pivot positions the column reaches through L can hold a
    // nonzero, so the solve walks just that reach, from a min-heap.
    // Applying L column j touches only rows pivoted after j, so the
    // positions pop in ascending order: every sum accumulates in
    // position order, as a scan over all k earlier positions would.
    scatter_.clear();
    for (const auto& [r, v] : columns[col]) scatter_.add(r, v);
    const std::vector<int>& pattern = scatter_.pattern();
    std::size_t seen = 0;  // pattern entries already queued or skipped
    for (;;) {
      // A row enters the pattern once per column, so each reached
      // position is queued once.
      for (; seen < pattern.size(); ++seen) {
        const int pos = lu_.pos_of_row[pattern[seen]];
        if (pos < 0) continue;
        reach_.push_back(pos);
        std::push_heap(reach_.begin(), reach_.end(), std::greater<>());
      }
      if (reach_.empty()) break;
      std::pop_heap(reach_.begin(), reach_.end(), std::greater<>());
      const int j = reach_.back();
      reach_.pop_back();
      ++stats_.reach_positions;
      const double xj = scatter_[lu_.row_of_pos[j]];
      if (xj == 0.0) continue;
      for (int idx = lu_.lower_start[j]; idx < lu_.lower_start[j + 1]; ++idx) {
        const auto& [i, v] = lu_.lower_entries[idx];
        scatter_.add(i, -v * xj);
      }
    }
    // Split the result: entries at already-pivoted rows form U's column
    // k; the rest are pivot candidates.
    double max_abs = 0.0;
    for (int r : scatter_.pattern()) {
      const double x = scatter_[r];
      if (x == 0.0) continue;
      if (lu_.pos_of_row[r] >= 0) {
        lu_.upper_entries.emplace_back(lu_.pos_of_row[r], x);
      } else {
        max_abs = std::max(max_abs, std::abs(x));
      }
    }
    lu_.upper_start[k + 1] = static_cast<int>(lu_.upper_entries.size());
    if (max_abs < kAbsolutePivotTolerance) return false;  // singular
    // Threshold partial pivoting, preferring sparse rows among the
    // numerically acceptable candidates.
    int pivot_row = -1;
    for (int r : scatter_.pattern()) {
      const double x = scatter_[r];
      if (x == 0.0 || lu_.pos_of_row[r] >= 0) continue;
      if (std::abs(x) < kRelativePivotThreshold * max_abs) continue;
      if (pivot_row < 0 || row_count_[r] < row_count_[pivot_row] ||
          (row_count_[r] == row_count_[pivot_row] &&
           std::abs(x) > std::abs(scatter_[pivot_row]))) {
        pivot_row = r;
      }
    }
    lu_.diag[k] = scatter_[pivot_row];
    lu_.row_of_pos[k] = pivot_row;
    lu_.pos_of_row[pivot_row] = k;
    lu_.col_of_pos[k] = col;
    lu_.pos_of_col[col] = k;
    for (int r : scatter_.pattern()) {
      const double x = scatter_[r];
      if (x == 0.0 || r == pivot_row || lu_.pos_of_row[r] >= 0) continue;
      lu_.lower_entries.emplace_back(r, x / lu_.diag[k]);
    }
    lu_.lower_start[k + 1] = static_cast<int>(lu_.lower_entries.size());
  }

  // Rewrite L's indices from original rows to pivot positions.
  for (auto& [r, v] : lu_.lower_entries) {
    (void)v;
    r = lu_.pos_of_row[r];
  }
  stats_.lu_entries = static_cast<long>(lu_.lower_entries.size()) +
                      static_cast<long>(lu_.upper_entries.size()) + m;
  if (obs::detail_enabled()) {
    static obs::Histogram& lu = obs::histogram(
        "lp.lu_entries", obs::exponential_buckets(8.0, 2.0, 14));
    lu.observe(static_cast<double>(stats_.lu_entries));
  }

#if NP_CHECKS_ENABLED
  {
    std::vector<std::vector<std::pair<int, double>>> lower(m), upper(m),
        permuted(m);
    for (int k = 0; k < m; ++k) {
      lower[k].assign(lu_.lower_entries.begin() + lu_.lower_start[k],
                      lu_.lower_entries.begin() + lu_.lower_start[k + 1]);
      upper[k].assign(lu_.upper_entries.begin() + lu_.upper_start[k],
                      lu_.upper_entries.begin() + lu_.upper_start[k + 1]);
      const ColumnView col = columns[lu_.col_of_pos[k]];
      permuted[k].reserve(col.size());
      for (const auto& [r, v] : col) permuted[k].emplace_back(lu_.pos_of_row[r], v);
    }
    NP_CHECK_LU(m, lower, upper, lu_.diag, permuted, 1e-8,
                "BasisFactor::factorize");
  }
#endif
  return true;
}

void BasisFactor::adopt(LuFactors lu) {
  const auto m = static_cast<std::size_t>(lu.m);
  NP_ASSERT(lu.diag.size() == m && lu.lower_start.size() == m + 1 &&
                lu.upper_start.size() == m + 1 && lu.row_of_pos.size() == m &&
                lu.col_of_pos.size() == m,
            "BasisFactor::adopt: not a complete factorization of dimension ", m);
  lu_ = std::move(lu);
  etas_.clear();
  eta_entries_.clear();
  stats_.eta_entries = 0;
  stats_.lu_entries = static_cast<long>(lu_.lower_entries.size()) +
                      static_cast<long>(lu_.upper_entries.size()) + lu_.m;
}

LuFactors BasisFactor::release() {
  etas_.clear();
  eta_entries_.clear();
  stats_.eta_entries = 0;
  stats_.lu_entries = 0;
  return std::exchange(lu_, LuFactors{});
}

void BasisFactor::lower_solve(std::vector<double>& x) const {
  const std::pair<int, double>* entries = lu_.lower_entries.data();
  for (int k = 0; k < lu_.m; ++k) {
    const double xk = x[k];
    if (xk == 0.0) continue;
    for (int idx = lu_.lower_start[k]; idx < lu_.lower_start[k + 1]; ++idx) {
      x[entries[idx].first] -= entries[idx].second * xk;
    }
  }
}

void BasisFactor::upper_solve(std::vector<double>& x) const {
  const std::pair<int, double>* entries = lu_.upper_entries.data();
  for (int k = lu_.m - 1; k >= 0; --k) {
    double xk = x[k];
    if (xk == 0.0) continue;
    xk /= lu_.diag[k];
    x[k] = xk;
    for (int idx = lu_.upper_start[k]; idx < lu_.upper_start[k + 1]; ++idx) {
      x[entries[idx].first] -= entries[idx].second * xk;
    }
  }
}

void BasisFactor::upper_transpose_solve(std::vector<double>& x, int first) const {
  // U^T is lower triangular; column k of U is row k of U^T. Positions
  // before `first` are structurally zero in the right-hand side and
  // stay zero in the solution, so the sweep starts at `first`.
  const std::pair<int, double>* entries = lu_.upper_entries.data();
  for (int k = first; k < lu_.m; ++k) {
    double acc = x[k];
    for (int idx = lu_.upper_start[k]; idx < lu_.upper_start[k + 1]; ++idx) {
      acc -= entries[idx].second * x[entries[idx].first];
    }
    x[k] = acc / lu_.diag[k];
  }
}

void BasisFactor::lower_transpose_solve(std::vector<double>& x) const {
  const std::pair<int, double>* entries = lu_.lower_entries.data();
  for (int k = lu_.m - 1; k >= 0; --k) {
    double acc = x[k];
    for (int idx = lu_.lower_start[k]; idx < lu_.lower_start[k + 1]; ++idx) {
      acc -= entries[idx].second * x[entries[idx].first];
    }
    x[k] = acc;
  }
}

void BasisFactor::apply_etas(std::vector<double>& x) const {
  const std::pair<int, double>* entries = eta_entries_.data();
  for (const Eta& e : etas_) {
    const double t = x[e.pivot_pos] / e.pivot_value;
    x[e.pivot_pos] = t;
    if (t == 0.0) continue;
    for (int idx = e.start; idx < e.start + e.count; ++idx) {
      x[entries[idx].first] -= entries[idx].second * t;
    }
  }
}

void BasisFactor::apply_etas_transposed(std::vector<double>& x) const {
  const std::pair<int, double>* entries = eta_entries_.data();
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double acc = x[it->pivot_pos];
    for (int idx = it->start; idx < it->start + it->count; ++idx) {
      acc -= entries[idx].second * x[entries[idx].first];
    }
    x[it->pivot_pos] = acc / it->pivot_value;
  }
}

void BasisFactor::ftran(std::vector<double>& x) const {
  work_.assign(lu_.m, 0.0);
  for (int k = 0; k < lu_.m; ++k) work_[k] = x[lu_.row_of_pos[k]];
  lower_solve(work_);
  upper_solve(work_);
  for (int k = 0; k < lu_.m; ++k) x[lu_.col_of_pos[k]] = work_[k];
  apply_etas(x);
}

void BasisFactor::ftran_column(ColumnView a, std::vector<double>& w) const {
  work_.assign(lu_.m, 0.0);
  for (const auto& [r, v] : a) work_[lu_.pos_of_row[r]] += v;
  lower_solve(work_);
  upper_solve(work_);
  w.assign(lu_.m, 0.0);
  for (int k = 0; k < lu_.m; ++k) {
    if (work_[k] != 0.0) w[lu_.col_of_pos[k]] = work_[k];
  }
  apply_etas(w);
  if (obs::detail_enabled()) {
    // Result density is the whole point of the hyper-sparse solves;
    // the O(m) count scan is why this lives behind detail_enabled().
    long nnz = 0;
    for (double v : w) nnz += v != 0.0 ? 1 : 0;
    static obs::Histogram& h = obs::histogram(
        "lp.ftran_nnz", obs::exponential_buckets(1.0, 2.0, 12));
    h.observe(static_cast<double>(nnz));
  }
}

void BasisFactor::btran(std::vector<double>& x) const {
  apply_etas_transposed(x);
  work_.assign(lu_.m, 0.0);
  for (int k = 0; k < lu_.m; ++k) work_[k] = x[lu_.col_of_pos[k]];
  upper_transpose_solve(work_, 0);
  lower_transpose_solve(work_);
  for (int k = 0; k < lu_.m; ++k) x[lu_.row_of_pos[k]] = work_[k];
}

void BasisFactor::btran_unit(int p, std::vector<double>& rho) const {
  rho.assign(lu_.m, 0.0);
  rho[p] = 1.0;
  apply_etas_transposed(rho);
  work_.assign(lu_.m, 0.0);
  int first = lu_.m;
  for (int k = 0; k < lu_.m; ++k) {
    const double v = rho[lu_.col_of_pos[k]];
    if (v != 0.0) {
      work_[k] = v;
      first = std::min(first, k);
    }
  }
  upper_transpose_solve(work_, first);
  lower_transpose_solve(work_);
  for (int k = 0; k < lu_.m; ++k) rho[lu_.row_of_pos[k]] = work_[k];
  if (obs::detail_enabled()) {
    long nnz = 0;
    for (double v : rho) nnz += v != 0.0 ? 1 : 0;
    static obs::Histogram& h = obs::histogram(
        "lp.btran_nnz", obs::exponential_buckets(1.0, 2.0, 12));
    h.observe(static_cast<double>(nnz));
  }
}

void BasisFactor::append_eta(int p, const std::vector<double>& w) {
  Eta eta;
  eta.pivot_pos = p;
  eta.pivot_value = w[p];
  eta.start = static_cast<int>(eta_entries_.size());
  for (int i = 0; i < lu_.m; ++i) {
    if (i != p && w[i] != 0.0) eta_entries_.emplace_back(i, w[i]);
  }
  eta.count = static_cast<int>(eta_entries_.size()) - eta.start;
  stats_.eta_entries += static_cast<long>(eta.count) + 1;
  etas_.push_back(eta);
}

bool BasisFactor::prefers_refactor() const {
  return static_cast<int>(etas_.size()) >= kMaxEtas ||
         stats_.eta_entries > 4 * (stats_.lu_entries + lu_.m);
}

}  // namespace np::lp
