#include "lp/factor.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

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
  if (obs::detail_enabled() && stats_.factorizations > 0) {
    // How long the eta file got before this refactorization — the
    // "update vs. refactor" balance the simplex is actually running at.
    static obs::Histogram& eta_len = obs::histogram(
        "lp.eta_entries_at_refactor", obs::exponential_buckets(1.0, 2.0, 14));
    eta_len.observe(static_cast<double>(stats_.eta_entries));
  }
  m_ = m;
  etas_.clear();
  eta_entries_.clear();
  ++stats_.factorizations;
  stats_.eta_entries = 0;
  stats_.lu_entries = 0;
  lower_entries_.clear();
  upper_entries_.clear();
  lower_start_.assign(m + 1, 0);
  upper_start_.assign(m + 1, 0);
  diag_.assign(m, 0.0);
  row_of_pos_.assign(m, -1);
  pos_of_row_.assign(m, -1);
  col_of_pos_.assign(m, -1);
  pos_of_col_.assign(m, -1);
  if (m == 0) return true;

  // Static Markowitz-style column preorder: ascending nonzero count, so
  // slack/artificial singletons pivot first and generate no fill.
  // Counting sort — nonzero counts are bounded by m, and factorize()
  // runs once or twice per solve, so the O(m log m) comparison sort was
  // measurable here.
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
        const int pos = pos_of_row_[pattern[seen]];
        if (pos < 0) continue;
        reach_.push_back(pos);
        std::push_heap(reach_.begin(), reach_.end(), std::greater<>());
      }
      if (reach_.empty()) break;
      std::pop_heap(reach_.begin(), reach_.end(), std::greater<>());
      const int j = reach_.back();
      reach_.pop_back();
      ++stats_.reach_positions;
      const double xj = scatter_[row_of_pos_[j]];
      if (xj == 0.0) continue;
      for (int idx = lower_start_[j]; idx < lower_start_[j + 1]; ++idx) {
        scatter_.add(lower_entries_[idx].first, -lower_entries_[idx].second * xj);
      }
    }
    // Split the result: entries at already-pivoted rows form U's column
    // k; the rest are pivot candidates.
    double max_abs = 0.0;
    for (int r : scatter_.pattern()) {
      const double x = scatter_[r];
      if (x == 0.0) continue;
      if (pos_of_row_[r] >= 0) {
        upper_entries_.emplace_back(pos_of_row_[r], x);
      } else {
        max_abs = std::max(max_abs, std::abs(x));
      }
    }
    upper_start_[k + 1] = static_cast<int>(upper_entries_.size());
    if (max_abs < kAbsolutePivotTolerance) return false;  // singular
    // Threshold partial pivoting, preferring sparse rows among the
    // numerically acceptable candidates.
    int pivot_row = -1;
    for (int r : scatter_.pattern()) {
      const double x = scatter_[r];
      if (x == 0.0 || pos_of_row_[r] >= 0) continue;
      if (std::abs(x) < kRelativePivotThreshold * max_abs) continue;
      if (pivot_row < 0 || row_count_[r] < row_count_[pivot_row] ||
          (row_count_[r] == row_count_[pivot_row] &&
           std::abs(x) > std::abs(scatter_[pivot_row]))) {
        pivot_row = r;
      }
    }
    diag_[k] = scatter_[pivot_row];
    row_of_pos_[k] = pivot_row;
    pos_of_row_[pivot_row] = k;
    col_of_pos_[k] = col;
    pos_of_col_[col] = k;
    for (int r : scatter_.pattern()) {
      const double x = scatter_[r];
      if (x == 0.0 || r == pivot_row || pos_of_row_[r] >= 0) continue;
      lower_entries_.emplace_back(r, x / diag_[k]);
    }
    lower_start_[k + 1] = static_cast<int>(lower_entries_.size());
  }

  // Rewrite L's indices from original rows to pivot positions.
  for (auto& [r, v] : lower_entries_) {
    (void)v;
    r = pos_of_row_[r];
  }
  stats_.lu_entries = static_cast<long>(lower_entries_.size()) +
                      static_cast<long>(upper_entries_.size()) + m;
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
      lower[k].assign(lower_entries_.begin() + lower_start_[k],
                      lower_entries_.begin() + lower_start_[k + 1]);
      upper[k].assign(upper_entries_.begin() + upper_start_[k],
                      upper_entries_.begin() + upper_start_[k + 1]);
      const ColumnView col = columns[col_of_pos_[k]];
      permuted[k].reserve(col.size());
      for (const auto& [r, v] : col) permuted[k].emplace_back(pos_of_row_[r], v);
    }
    NP_CHECK_LU(m, lower, upper, diag_, permuted, 1e-8,
                "BasisFactor::factorize");
  }
#endif
  return true;
}

void BasisFactor::lower_solve(std::vector<double>& x) const {
  const std::pair<int, double>* entries = lower_entries_.data();
  for (int k = 0; k < m_; ++k) {
    const double xk = x[k];
    if (xk == 0.0) continue;
    for (int idx = lower_start_[k]; idx < lower_start_[k + 1]; ++idx) {
      x[entries[idx].first] -= entries[idx].second * xk;
    }
  }
}

void BasisFactor::upper_solve(std::vector<double>& x) const {
  const std::pair<int, double>* entries = upper_entries_.data();
  for (int k = m_ - 1; k >= 0; --k) {
    double xk = x[k];
    if (xk == 0.0) continue;
    xk /= diag_[k];
    x[k] = xk;
    for (int idx = upper_start_[k]; idx < upper_start_[k + 1]; ++idx) {
      x[entries[idx].first] -= entries[idx].second * xk;
    }
  }
}

void BasisFactor::upper_transpose_solve(std::vector<double>& x, int first) const {
  // U^T is lower triangular; column k of U is row k of U^T. Positions
  // before `first` are structurally zero in the right-hand side and
  // stay zero in the solution, so the sweep starts at `first`.
  const std::pair<int, double>* entries = upper_entries_.data();
  for (int k = first; k < m_; ++k) {
    double acc = x[k];
    for (int idx = upper_start_[k]; idx < upper_start_[k + 1]; ++idx) {
      acc -= entries[idx].second * x[entries[idx].first];
    }
    x[k] = acc / diag_[k];
  }
}

void BasisFactor::lower_transpose_solve(std::vector<double>& x) const {
  const std::pair<int, double>* entries = lower_entries_.data();
  for (int k = m_ - 1; k >= 0; --k) {
    double acc = x[k];
    for (int idx = lower_start_[k]; idx < lower_start_[k + 1]; ++idx) {
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
  work_.assign(m_, 0.0);
  for (int k = 0; k < m_; ++k) work_[k] = x[row_of_pos_[k]];
  lower_solve(work_);
  upper_solve(work_);
  for (int k = 0; k < m_; ++k) x[col_of_pos_[k]] = work_[k];
  apply_etas(x);
}

void BasisFactor::ftran_column(ColumnView a, std::vector<double>& w) const {
  work_.assign(m_, 0.0);
  for (const auto& [r, v] : a) work_[pos_of_row_[r]] += v;
  lower_solve(work_);
  upper_solve(work_);
  w.assign(m_, 0.0);
  for (int k = 0; k < m_; ++k) {
    if (work_[k] != 0.0) w[col_of_pos_[k]] = work_[k];
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
  work_.assign(m_, 0.0);
  for (int k = 0; k < m_; ++k) work_[k] = x[col_of_pos_[k]];
  upper_transpose_solve(work_, 0);
  lower_transpose_solve(work_);
  for (int k = 0; k < m_; ++k) x[row_of_pos_[k]] = work_[k];
}

void BasisFactor::btran_unit(int p, std::vector<double>& rho) const {
  rho.assign(m_, 0.0);
  rho[p] = 1.0;
  apply_etas_transposed(rho);
  work_.assign(m_, 0.0);
  int first = m_;
  for (int k = 0; k < m_; ++k) {
    const double v = rho[col_of_pos_[k]];
    if (v != 0.0) {
      work_[k] = v;
      first = std::min(first, k);
    }
  }
  upper_transpose_solve(work_, first);
  lower_transpose_solve(work_);
  for (int k = 0; k < m_; ++k) rho[row_of_pos_[k]] = work_[k];
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
  for (int i = 0; i < m_; ++i) {
    if (i != p && w[i] != 0.0) eta_entries_.emplace_back(i, w[i]);
  }
  eta.count = static_cast<int>(eta_entries_.size()) - eta.start;
  stats_.eta_entries += static_cast<long>(eta.count) + 1;
  etas_.push_back(eta);
}

bool BasisFactor::prefers_refactor() const {
  return static_cast<int>(etas_.size()) >= kMaxEtas ||
         stats_.eta_entries > 4 * (stats_.lu_entries + m_);
}

}  // namespace np::lp
