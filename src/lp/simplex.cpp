#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "la/sparse_vector.hpp"
#include "lp/factor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/stopwatch.hpp"

namespace np::lp {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
    case SolveStatus::kTimeLimit: return "time-limit";
  }
  return "unknown";
}

namespace {

constexpr double kPivotTolerance = 1e-9;
// A basic variable this far past a bound is infeasible; a reduced cost
// this far past zero in a direction its variable can move prices it in.
constexpr double kFeasibilityTolerance = 1e-7;
constexpr double kOptimalityTolerance = 1e-7;

// Partial-pricing candidate list sizing. The list holds at most
// kMaxCandidates (column, score) pairs; a refill scan stops once it
// reaches kCandidateRefill live candidates, and runs at all only when
// re-pricing left fewer than kCandidateLowWater survivors. Values
// picked by sweeping the lp_throughput bench on topology B; larger
// lists bought no iterations and cost scan time.
constexpr int kMaxCandidates = 32;
constexpr int kCandidateRefill = 8;
constexpr int kCandidateLowWater = 4;
// Models with more columns than this (structural + slack + artificial)
// price over the candidate list; smaller ones price every column every
// iteration. Covers the scenario feasibility LPs, where a full sweep
// would dominate the per-iteration cost.
constexpr int kPartialPricingThreshold = 128;

// Refactorize the basis every this many pivots (the LU also asks for an
// early refactorization when its eta file outgrows it). Product-form
// updates stay accurate for hundreds of pivots on well-scaled models;
// the cold retry after a singular basis refactorizes far more often.
constexpr int kRefactorInterval = 400;
constexpr int kRetryRefactorInterval = 50;

/// Internal solver state over the computational form A z = 0 with
/// columns [structural | slack | artificial]. The structural columns
/// are read in place from `columns` (the model's compressed store, or
/// one solve_impl built for an uncompressed model); the slack and
/// artificial columns are unit columns the solve makes for itself.
class Simplex {
 public:
  Simplex(const Model& model, const SparseLines& columns,
          const SimplexOptions& options, int refactor_period, KeptFactor* kept)
      : model_(model),
        columns_(columns),
        options_(options),
        refactor_period_(refactor_period),
        devex_(options.warm_start == nullptr),
        kept_(kept) {
    // Taken on entry, so a solve that throws leaves nothing kept.
    if (kept_ != nullptr) reusable_ = std::exchange(*kept_, {});
    n_struct_ = model.num_variables();
    m_ = model.num_rows();
    n_real_ = n_struct_ + m_;        // structural + slacks
    n_total_ = n_real_ + m_;         // + artificials
    build_unit_columns();
    build_bounds();
  }

  Solution run() {
    Stopwatch watch;
    Solution solution;
    WarmState warm = try_warm_start();
    if (warm == WarmState::kPrimalFeasible) {
      solution.start_path = StartPath::kWarmPrimal;
    }

    if (warm == WarmState::kBasisOnly) {
      check_basis_invariants("Simplex::run warm start");
      // The warm basis is primal infeasible (typical after a bound
      // change, e.g. a branch-and-bound child). If it is still DUAL
      // feasible, the dual simplex repairs primal feasibility in a few
      // pivots instead of a full phase-1 restart.
      fix_artificials();
      set_phase2_costs();
      const std::optional<SolveStatus> repaired = dual_iterate();
      if (repaired.has_value()) {
        solution.start_path = StartPath::kDualRepair;
        if (*repaired == SolveStatus::kOptimal) {
          const SolveStatus st = phase2_verified();
          finish(solution, st, watch);
          return solution;
        }
        finish(solution, *repaired, watch);
        return solution;
      }
      warm = WarmState::kNone;  // dual repair gave up: cold start
      solution.start_path = StartPath::kWarmFailed;
    }
    if (warm == WarmState::kNone) {
      if (options_.warm_start != nullptr &&
          solution.start_path == StartPath::kCold) {
        solution.start_path = StartPath::kWarmFailed;
      }
      cold_start();
      check_basis_invariants("Simplex::run cold start");
    }

    // Phase 1: drive artificial variables (and, for warm starts that
    // turned out infeasible, re-cold-start) to zero total.
    if (warm == WarmState::kNone && needs_phase1_) {
      set_phase1_costs();
      const SolveStatus st = iterate(/*phase1=*/true);
      if (st != SolveStatus::kOptimal) {
        finish(solution, st, watch);
        return solution;
      }
      // The infeasibility verdict must be read off exact basic values,
      // not the incrementally-updated (drift-prone) ones.
      refresh_factorization();
      if (phase_objective() > 1e3 * kFeasibilityTolerance) {
        finish(solution, SolveStatus::kInfeasible, watch);
        return solution;
      }
    }
    // On every path (including warm starts and already-feasible cold
    // starts) artificials must be pinned to zero before phase 2: they
    // carry zero cost there and would otherwise be free to re-enter.
    fix_artificials();

    set_phase2_costs();
    const SolveStatus st = phase2_verified();
    finish(solution, st, watch);
    return solution;
  }

 private:
  // ---- setup ----

  /// The slack and artificial columns, one entry each: slack r is
  /// unit_[r] and artificial r is unit_[m_ + r], so column j >= n_struct_
  /// is unit_[j - n_struct_]. Made per solve, so the artificial signs a
  /// cold start sets stay with this solve.
  void build_unit_columns() {
    unit_.resize(2 * m_);
    for (int r = 0; r < m_; ++r) {
      unit_[r] = {r, -1.0};       // slack: a.x - s = 0
      unit_[m_ + r] = {r, 1.0};   // artificial: sign set at a cold start
    }
  }

  ColumnView col(int j) const {
    if (j < n_struct_) {
      const int begin = columns_.start[j];
      return {columns_.entries.data() + begin, columns_.start[j + 1] - begin};
    }
    return {unit_.data() + (j - n_struct_), 1};
  }

  void build_bounds() {
    lb_.assign(n_total_, 0.0);
    ub_.assign(n_total_, 0.0);
    for (int j = 0; j < n_struct_; ++j) {
      lb_[j] = model_.variable(j).lower;
      ub_[j] = model_.variable(j).upper;
    }
    for (int r = 0; r < m_; ++r) {
      lb_[n_struct_ + r] = model_.row(r).lower;
      ub_[n_struct_ + r] = model_.row(r).upper;
    }
    for (int r = 0; r < m_; ++r) {
      lb_[n_real_ + r] = 0.0;
      ub_[n_real_ + r] = kInfinity;
    }
  }

  /// Nonbasic resting value for variable j: the finite bound nearest
  /// zero, or zero for free variables.
  double resting_value(int j, VarStatus* status_out) const {
    const bool lo_finite = std::isfinite(lb_[j]);
    const bool hi_finite = std::isfinite(ub_[j]);
    if (lo_finite && hi_finite) {
      if (std::abs(lb_[j]) <= std::abs(ub_[j])) {
        *status_out = VarStatus::kAtLower;
        return lb_[j];
      }
      *status_out = VarStatus::kAtUpper;
      return ub_[j];
    }
    if (lo_finite) {
      *status_out = VarStatus::kAtLower;
      return lb_[j];
    }
    if (hi_finite) {
      *status_out = VarStatus::kAtUpper;
      return ub_[j];
    }
    *status_out = VarStatus::kNonbasicFree;
    return 0.0;
  }

  /// Cold start with a slack crash. Structural variables rest at a
  /// bound; each row's slack then has implied value equal to the row
  /// activity (slack coefficient is -1, so A z = 0 gives s_r =
  /// activity_r). Where that value fits the slack's own bounds the
  /// slack goes basic and the row starts feasible — no artificial.
  /// Only rows whose activity violates the slack bounds (equality rows
  /// with nonzero rhs, here the commodity source/sink conservation
  /// rows) get an artificial, with the slack parked at the nearest
  /// bound so the artificial absorbs the smallest possible residual.
  /// This is what lets phase 1 scale with the number of *violated*
  /// rows instead of all of m, and it keeps the initial basis a signed
  /// diagonal (slack -1 / artificial +-1), which factorizes fill-free.
  void cold_start() {
    status_.assign(n_total_, VarStatus::kAtLower);
    val_.assign(n_total_, 0.0);
    for (int j = 0; j < n_struct_; ++j) {
      VarStatus st{};
      val_[j] = resting_value(j, &st);
      status_[j] = st;
    }
    // Row activity of the structural columns at their resting values.
    std::vector<double> activity(m_, 0.0);
    for (int j = 0; j < n_struct_; ++j) {
      if (val_[j] == 0.0) continue;
      for (const auto& [r, coeff] : col(j)) activity[r] += coeff * val_[j];
    }
    basis_.resize(m_);
    needs_phase1_ = false;
    for (int r = 0; r < m_; ++r) {
      const int slack = n_struct_ + r;
      const int art = n_real_ + r;
      if (activity[r] >= lb_[slack] - kFeasibilityTolerance &&
          activity[r] <= ub_[slack] + kFeasibilityTolerance) {
        status_[slack] = VarStatus::kBasic;
        val_[slack] = activity[r];
        basis_[r] = slack;
        status_[art] = VarStatus::kAtLower;
        val_[art] = 0.0;
        continue;
      }
      // Nearest slack bound to the activity minimizes the residual the
      // artificial has to carry.
      if (activity[r] > ub_[slack]) {
        status_[slack] = VarStatus::kAtUpper;
        val_[slack] = ub_[slack];
      } else {
        status_[slack] = VarStatus::kAtLower;
        val_[slack] = lb_[slack];
      }
      const double residual = val_[slack] - activity[r];
      unit_[m_ + r].second = residual >= 0.0 ? 1.0 : -1.0;
      val_[art] = std::abs(residual);
      status_[art] = VarStatus::kBasic;
      basis_[r] = art;
      if (val_[art] > kFeasibilityTolerance) needs_phase1_ = true;
    }
    if (!refactor()) {
      throw std::logic_error("Simplex: crash basis must be invertible");
    }
    compute_basic_values();
    factor_fresh_ = true;
  }

  enum class WarmState { kNone, kPrimalFeasible, kBasisOnly };

  WarmState try_warm_start() {
    const Basis* warm = options_.warm_start;
    if (warm == nullptr || warm->statuses.size() != static_cast<std::size_t>(n_real_)) {
      return WarmState::kNone;
    }
    status_.assign(n_total_, VarStatus::kAtLower);
    val_.assign(n_total_, 0.0);
    basis_.clear();
    for (int j = 0; j < n_real_; ++j) {
      const VarStatus st = warm->statuses[j];
      if (st == VarStatus::kBasic) {
        basis_.push_back(j);
        status_[j] = VarStatus::kBasic;
        continue;
      }
      VarStatus snapped{};
      double v = 0.0;
      switch (st) {
        case VarStatus::kAtLower:
          if (!std::isfinite(lb_[j])) { v = resting_value(j, &snapped); break; }
          snapped = VarStatus::kAtLower; v = lb_[j];
          break;
        case VarStatus::kAtUpper:
          if (!std::isfinite(ub_[j])) { v = resting_value(j, &snapped); break; }
          snapped = VarStatus::kAtUpper; v = ub_[j];
          break;
        default:
          v = resting_value(j, &snapped);
      }
      status_[j] = snapped;
      val_[j] = v;
    }
    if (static_cast<int>(basis_.size()) != m_) return WarmState::kNone;
    for (int r = 0; r < m_; ++r) {
      status_[n_real_ + r] = VarStatus::kAtLower;  // artificials parked at 0
      val_[n_real_ + r] = 0.0;
    }
    // The kept LU of this very basis, in this order, is what refactor()
    // would rebuild bit for bit.
    if (!reusable_.basis.empty() && reusable_.basis == basis_) {
      factor_.adopt(std::move(reusable_.lu));
    } else if (!refactor()) {
      return WarmState::kNone;
    }
    compute_basic_values();
    factor_fresh_ = true;
    needs_phase1_ = false;
    for (int r = 0; r < m_; ++r) {
      const int j = basis_[r];
      if (val_[j] < lb_[j] - kFeasibilityTolerance ||
          val_[j] > ub_[j] + kFeasibilityTolerance) {
        return WarmState::kBasisOnly;  // valid basis, primal infeasible
      }
    }
    return WarmState::kPrimalFeasible;
  }

  /// Dual simplex repair from a dual-feasible basis. Returns:
  ///   kOptimal        — primal feasibility restored (dual feasibility
  ///                     maintained, so the point is optimal up to a
  ///                     cleanup primal pass);
  ///   kInfeasible     — a row proves the LP primal infeasible;
  ///   kTime/IterLimit — resource limits;
  ///   nullopt         — not dual feasible / too many degenerate pivots:
  ///                     caller should cold start.
  std::optional<SolveStatus> dual_iterate() {
    std::vector<double> y, rho, w;
    // Initial dual feasibility check against phase-2 costs.
    compute_duals(y);
    for (int j = 0; j < n_total_; ++j) {
      if (status_[j] == VarStatus::kBasic || lb_[j] == ub_[j]) continue;
      double dj = cost_[j];
      for (const auto& [r, coeff] : col(j)) dj -= y[r] * coeff;
      const double slack = 1e-6;
      if ((status_[j] == VarStatus::kAtLower && dj < -slack) ||
          (status_[j] == VarStatus::kAtUpper && dj > slack) ||
          (status_[j] == VarStatus::kNonbasicFree && std::abs(dj) > slack)) {
        return std::nullopt;
      }
    }

    long dual_pivots = 0;
    const long pivot_cap = 4L * m_ + 1000;
    int pivots_since_refactor = 0;
    // Long-solve liveness for the obs watchdog: one beat per 128
    // pivots keeps the cost invisible while a genuinely wedged solve
    // (cycling, numerical livelock) goes quiet and gets flagged.
    obs::HeartbeatScope heartbeat("hb.lp_solve");
    // Terminal verdicts (optimal / dual ray) are only trusted after the
    // basis has been refactored and the basic values recomputed: the
    // incremental val_ updates drift, and a verdict read off drifted
    // numbers can be wrong in either direction (a marginally infeasible
    // LP "repaired" to optimal, or a near-degenerate basis presenting a
    // spurious ray).
    bool verified_terminal = false;
    for (;;) {
      if (options_.deadline.expired()) return SolveStatus::kTimeLimit;
      if (iterations_ >= options_.max_iterations) {
        return SolveStatus::kIterationLimit;
      }
      if (++dual_pivots > pivot_cap) return std::nullopt;
      ++iterations_;
      if ((iterations_ & 127) == 0) heartbeat.beat(iterations_);

      // Leaving variable: the most bound-violated basic.
      int p_leave = -1;
      double worst = kFeasibilityTolerance;
      bool above_upper = false;
      for (int p = 0; p < m_; ++p) {
        const int bj = basis_[p];
        const double over = val_[bj] - ub_[bj];
        const double under = lb_[bj] - val_[bj];
        if (over > worst) { worst = over; p_leave = p; above_upper = true; }
        if (under > worst) { worst = under; p_leave = p; above_upper = false; }
      }
      if (p_leave < 0) {  // primal feasible
        if (!verified_terminal) {
          if (!refactor()) return std::nullopt;
          compute_basic_values();
          factor_fresh_ = true;
          pivots_since_refactor = 0;
          verified_terminal = true;
          continue;
        }
        return SolveStatus::kOptimal;
      }

      compute_duals(y);
      factor_.btran_unit(p_leave, rho);

      // Entering variable: dual ratio test, min |d_j / alpha_j| over the
      // columns that can move the leaving variable toward its bound.
      int enter = -1;
      double enter_alpha = 0.0;
      double best_ratio = kInfinity;
      for (int j = 0; j < n_total_; ++j) {
        if (status_[j] == VarStatus::kBasic || lb_[j] == ub_[j]) continue;
        double alpha = 0.0;
        for (const auto& [r, coeff] : col(j)) alpha += rho[r] * coeff;
        if (std::abs(alpha) < kPivotTolerance) continue;
        bool eligible;
        if (above_upper) {
          // x_leave must decrease: AtLower columns with alpha > 0 (they
          // increase), AtUpper with alpha < 0 (they decrease), free both.
          eligible = (status_[j] == VarStatus::kAtLower && alpha > 0.0) ||
                     (status_[j] == VarStatus::kAtUpper && alpha < 0.0) ||
                     status_[j] == VarStatus::kNonbasicFree;
        } else {
          eligible = (status_[j] == VarStatus::kAtLower && alpha < 0.0) ||
                     (status_[j] == VarStatus::kAtUpper && alpha > 0.0) ||
                     status_[j] == VarStatus::kNonbasicFree;
        }
        if (!eligible) continue;
        double dj = cost_[j];
        for (const auto& [r, coeff] : col(j)) dj -= y[r] * coeff;
        const double ratio = std::abs(dj / alpha);
        if (ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 && enter >= 0 &&
             std::abs(alpha) > std::abs(enter_alpha))) {
          best_ratio = ratio;
          enter = j;
          enter_alpha = alpha;
        }
      }
      if (enter < 0) {  // dual ray: no primal point
        if (!verified_terminal) {
          if (!refactor()) return std::nullopt;
          compute_basic_values();
          factor_fresh_ = true;
          pivots_since_refactor = 0;
          verified_terminal = true;
          continue;
        }
        return SolveStatus::kInfeasible;
      }

      ftran(enter, w);
      const int leave = basis_[p_leave];
      const double target = above_upper ? ub_[leave] : lb_[leave];
      const double t_enter = (val_[leave] - target) / enter_alpha;
      factor_fresh_ = false;
      val_[enter] += t_enter;
      for (int p = 0; p < m_; ++p) {
        if (w[p] != 0.0) val_[basis_[p]] -= t_enter * w[p];
      }
      status_[leave] = above_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      val_[leave] = target;
      status_[enter] = VarStatus::kBasic;
      basis_[p_leave] = enter;

      factor_.append_eta(p_leave, w);
      // Primal pricing weights do not track dual pivots; rebuild them
      // lazily when (if) the primal loop runs next.
      weights_valid_ = false;
      verified_terminal = false;
      if (++pivots_since_refactor >= refactor_period_ ||
          factor_.prefers_refactor()) {
        pivots_since_refactor = 0;
        if (!refactor()) return std::nullopt;
        compute_basic_values();
        factor_fresh_ = true;
      }
    }
  }

  void set_phase1_costs() {
    cost_.assign(n_total_, 0.0);
    for (int r = 0; r < m_; ++r) cost_[n_real_ + r] = 1.0;
  }

  void set_phase2_costs() {
    cost_.assign(n_total_, 0.0);
    for (int j = 0; j < n_struct_; ++j) cost_[j] = model_.variable(j).objective;
  }

  void fix_artificials() {
    for (int r = 0; r < m_; ++r) {
      const int art = n_real_ + r;
      ub_[art] = 0.0;
      if (status_[art] != VarStatus::kBasic) {
        status_[art] = VarStatus::kAtLower;
        val_[art] = 0.0;
      } else {
        val_[art] = std::min(val_[art], 0.0);
        val_[art] = std::max(val_[art], 0.0);
      }
    }
  }

  double phase_objective() const {
    double total = 0.0;
    for (int r = 0; r < m_; ++r) total += val_[n_real_ + r];
    return total;
  }

  /// Refactorize and recompute the basic values from scratch unless nothing
  /// touched them since the last factorization. Throws on a singular
  /// basis (solve() retries cold with frequent refactorization).
  void refresh_factorization() {
    if (factor_fresh_) return;
    if (!refactor()) {
      throw std::logic_error("Simplex: basis became singular at a terminal");
    }
    compute_basic_values();
    factor_fresh_ = true;
  }

  bool basics_within_bounds() const {
    const double tol = kFeasibilityTolerance;
    for (int p = 0; p < m_; ++p) {
      const int j = basis_[p];
      if (!std::isfinite(val_[j])) return false;
      if (std::isfinite(lb_[j]) && val_[j] < lb_[j] - tol * (1.0 + std::abs(lb_[j]))) {
        return false;
      }
      if (std::isfinite(ub_[j]) && val_[j] > ub_[j] + tol * (1.0 + std::abs(ub_[j]))) {
        return false;
      }
    }
    return true;
  }

  /// Phase-2 optimum with a verified terminal. The primal loop's
  /// kOptimal verdict is read off incrementally-updated values; a
  /// near-singular pivot can corrupt them arbitrarily (not just by
  /// rounding drift), leaving an "optimal" basic variable far outside
  /// its bounds. So: recompute from a fresh factorization, and if a
  /// basic variable escaped its bounds, repair with dual pivots (the
  /// duals are optimal at this point, so dual repair preserves
  /// optimality) and re-polish. A basis that cannot be verified within
  /// a few rounds is handed to solve()'s conservative cold retry.
  SolveStatus phase2_verified() {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const SolveStatus st = iterate(/*phase1=*/false);
      if (st != SolveStatus::kOptimal) return st;
      refresh_factorization();
      if (basics_within_bounds()) return SolveStatus::kOptimal;
      const std::optional<SolveStatus> repaired = dual_iterate();
      if (!repaired.has_value()) break;
      if (*repaired != SolveStatus::kOptimal) return *repaired;
    }
    throw std::logic_error(
        "Simplex: could not verify primal feasibility at the optimum");
  }

  // ---- basis linear algebra ----

  /// Deep basis/bound invariants (Debug and sanitizer builds only):
  /// exactly m_ basic variables, basis_ and status_ agree, lb <= ub
  /// everywhere, and every nonbasic variable rests on its bound.
  void check_basis_invariants(const char* where) const {
#if NP_CHECKS_ENABLED
    NP_ASSERT(static_cast<int>(basis_.size()) == m_,
              where, ": basis has ", basis_.size(), " entries for ", m_, " rows");
    int basic_count = 0;
    for (int j = 0; j < n_total_; ++j) {
      if (status_[j] == VarStatus::kBasic) ++basic_count;
    }
    NP_ASSERT(basic_count == m_,
              where, ": ", basic_count, " variables marked basic for ", m_, " rows");
    for (int p = 0; p < m_; ++p) {
      NP_ASSERT(basis_[p] >= 0 && basis_[p] < n_total_,
                where, ": basis position ", p, " holds out-of-range index ", basis_[p]);
      NP_ASSERT(status_[basis_[p]] == VarStatus::kBasic,
                where, ": variable ", basis_[p], " in the basis but not marked basic");
    }
    const double tol = kFeasibilityTolerance;
    for (int j = 0; j < n_total_; ++j) {
      NP_ASSERT(!(lb_[j] > ub_[j]),
                where, ": bound inversion on variable ", j,
                " [", lb_[j], ", ", ub_[j], "]");
      const double rest_tol = tol * (1.0 + std::abs(val_[j]));
      switch (status_[j]) {
        case VarStatus::kAtLower:
          NP_ASSERT(!std::isfinite(lb_[j]) || std::abs(val_[j] - lb_[j]) <= rest_tol,
                    where, ": variable ", j, " at-lower but val ", val_[j],
                    " != lb ", lb_[j]);
          break;
        case VarStatus::kAtUpper:
          NP_ASSERT(!std::isfinite(ub_[j]) || std::abs(val_[j] - ub_[j]) <= rest_tol,
                    where, ": variable ", j, " at-upper but val ", val_[j],
                    " != ub ", ub_[j]);
          break;
        case VarStatus::kNonbasicFree:
          NP_ASSERT(val_[j] == 0.0,
                    where, ": free nonbasic variable ", j, " not at zero");
          break;
        case VarStatus::kBasic:
          break;
      }
    }
#else
    (void)where;
#endif
  }

  bool refactor() {
    // Chaos site: refactorization is the solver's allocation-heavy
    // moment (fresh LU fill, eta-file reset) — the realistic place for
    // a bad_alloc-shaped failure mid-solve.
    NP_FAULT_POINT("lp.refactor");
    static obs::Counter& refactorizations = obs::counter("lp.refactorizations");
    refactorizations.add(1);
    basis_cols_.resize(m_);
    for (int p = 0; p < m_; ++p) basis_cols_[p] = col(basis_[p]);
    return factor_.factorize(m_, basis_cols_);
  }

  void compute_basic_values() {
    // x_B = B^{-1} (0 - N x_N).
    rhs_.assign(m_, 0.0);
    for (int j = 0; j < n_total_; ++j) {
      if (status_[j] == VarStatus::kBasic || val_[j] == 0.0) continue;
      for (const auto& [r, coeff] : col(j)) rhs_[r] -= coeff * val_[j];
    }
    factor_.ftran(rhs_);
    for (int p = 0; p < m_; ++p) val_[basis_[p]] = rhs_[p];
  }

  /// w = B^{-1} a_j.
  void ftran(int j, std::vector<double>& w) const {
    factor_.ftran_column(col(j), w);
  }

  /// y = (c_B^T B^{-1})^T.
  void compute_duals(std::vector<double>& y) const {
    y.assign(m_, 0.0);
    bool any = false;
    for (int p = 0; p < m_; ++p) {
      const double cb = cost_[basis_[p]];
      if (cb != 0.0) { y[p] = cb; any = true; }
    }
    if (any) factor_.btran(y);
  }

  // ---- pricing ----
  //
  // Both rules maximize violation^2 / weight_j, where the violation is
  // the reduced-cost excess past the optimality tolerance in the
  // movable direction and the weight is rule-specific:
  //
  //   Dantzig  weight_j = 1 (same argmax as max |d_j|); warm solves;
  //   devex    weight_j approximates ||B^{-1} a_j||^2 against a
  //            reference framework (Forrest-Goldfarb), reset to
  //            all-ones on refactorization, invariant >= 1; cold solves.
  //
  // Per pivot (entering q at position p with FTRAN column w, pivot
  // alpha_p = w[p], pivot row alpha_j = rho . a_j with
  // rho = e_p^T B^{-1}), devex updates
  //
  //   gamma_j <- max(gamma_j, (alpha_j/alpha_p)^2 gamma_q)
  //   gamma_r <- max(gamma_q / alpha_p^2, 1)    (leaving var r)
  //
  // Columns with alpha_j = 0 are untouched, so the update costs
  // O(nnz of the rows hit by rho), hyper-sparse in the scenario LPs.

  double weight_for(int j) const { return devex_ ? weight_[j] : 1.0; }

  /// Lazily reset the devex weights to the reference framework (all
  /// ones).
  void ensure_pricing_weights() {
    if (!devex_ || weights_valid_) return;
    Stopwatch stopwatch;
    weight_.assign(n_total_, 1.0);
    ++weight_resets_;
    weights_valid_ = true;
    pricing_seconds_ += stopwatch.seconds();
  }

  /// Scatter the pivot row alpha = rho^T A into alpha_ (rho = row p of
  /// the basis inverse). Row-wise: for every row touched by rho, walk
  /// that row of the structural matrix plus its slack and artificial
  /// columns — O(nnz of the touched rows) instead of one dot product
  /// per column. The rows come from a transpose of the columns, made on
  /// the first call of a solve (devex prices cold solves only); each
  /// alpha_j sums its rows in ascending order, whatever order the
  /// model's rows listed their entries in.
  void compute_pivot_row(const std::vector<double>& rho) {
    if (alpha_.size() != n_total_) alpha_.resize(n_total_);  // O(n) once
    alpha_.clear();                                          // O(pattern)
    if (rows_.start.empty()) rows_ = transpose(columns_, m_);
    for (int r = 0; r < m_; ++r) {
      const double rr = rho[r];
      if (rr == 0.0) continue;
      for (const auto& [var, coeff] : rows_.line(r)) alpha_.add(var, rr * coeff);
      alpha_.add(n_struct_ + r, -rr);  // slack: coefficient -1
      alpha_.add(n_real_ + r, rr * unit_[m_ + r].second);
    }
  }

  /// Apply the per-pivot devex recurrence (see block comment above).
  /// Must run BEFORE the basis exchange mutates status_/basis_ and
  /// BEFORE factor_.append_eta: rho is a row of the OLD basis inverse.
  /// `entering` enters at position p; w is its FTRAN column.
  void update_pricing_weights(int entering, int p,
                              const std::vector<double>& w) {
    const double alpha_p = w[p];
    if (std::abs(alpha_p) < kPivotTolerance) return;
    factor_.btran_unit(p, rho_);
    compute_pivot_row(rho_);
    const int leaving = basis_[p];
    const double inv_ap2 = 1.0 / (alpha_p * alpha_p);
    const double gamma_q = std::max(weight_[entering], 1.0);
    for (const int j : alpha_.pattern()) {
      if (j == entering || status_[j] == VarStatus::kBasic ||
          lb_[j] == ub_[j]) {
        continue;
      }
      const double aj = alpha_[j];
      if (aj == 0.0) continue;
      const double candidate = aj * aj * inv_ap2 * gamma_q;
      if (candidate > weight_[j]) weight_[j] = candidate;
    }
    weight_[leaving] = std::max(gamma_q * inv_ap2, 1.0);
    // The entering variable turns basic; park its weight at the
    // reference floor so no stale value leaks if it later leaves the
    // basis through a path that skips the leaving-variable formula.
    weight_[entering] = 1.0;
  }

  /// Weight contract (debug / sanitizer builds): devex weights never
  /// drop below the reference floor of 1.
  void check_pricing_weights(const char* where) {
#if NP_CHECKS_ENABLED
    if (!devex_ || !weights_valid_) return;
    for (int j = 0; j < n_total_; ++j) {
      if (status_[j] == VarStatus::kBasic || lb_[j] == ub_[j]) continue;
      NP_ASSERT(weight_[j] >= 1.0,
                where, ": devex weight of column ", j, " is ", weight_[j],
                " (must stay >= 1)");
    }
#else
    (void)where;
#endif
  }

  /// Refactorization hook for the pricing state: devex resets to the
  /// reference framework (its weights approximate against the last
  /// reset point and degrade as the basis drifts from it).
  void on_refactorized() {
    if (devex_ && weights_valid_) {
      Stopwatch stopwatch;
      std::fill(weight_.begin(), weight_.end(), 1.0);
      ++weight_resets_;
      pricing_seconds_ += stopwatch.seconds();
    }
    check_pricing_weights("Simplex::on_refactorized");
  }

  /// Violation of column j against the current duals: reduced-cost
  /// excess past the optimality tolerance in a direction j can move.
  /// Returns false for basic/fixed/non-violating columns.
  bool violation_of(int j, const std::vector<double>& y, double* violation,
                    int* dir) const {
    if (status_[j] == VarStatus::kBasic) return false;
    if (lb_[j] == ub_[j]) return false;  // fixed (incl. retired artificials)
    double d = cost_[j];
    for (const auto& [r, coeff] : col(j)) d -= y[r] * coeff;
    if (status_[j] == VarStatus::kAtLower &&
        d < -kOptimalityTolerance) {
      *dir = +1; *violation = -d; return true;
    }
    if (status_[j] == VarStatus::kAtUpper &&
        d > kOptimalityTolerance) {
      *dir = -1; *violation = d; return true;
    }
    if (status_[j] == VarStatus::kNonbasicFree &&
        std::abs(d) > kOptimalityTolerance) {
      *dir = d < 0.0 ? +1 : -1; *violation = std::abs(d); return true;
    }
    return false;
  }

  struct PricingChoice {
    int j = -1;
    int dir = 0;
  };

  /// Candidate-list entry: a column that violated optimality when last
  /// priced, with its weighted score at that time (scores are refreshed
  /// every iteration; the stored value only orders evictions).
  struct Candidate {
    int j = 0;
    double score = 0.0;
  };

  void reset_candidates() {
    candidates_.clear();
    in_candidates_.assign(n_total_, 0);
  }

  /// Select the entering variable. Bland mode scans for the lowest
  /// eligible index (anti-cycling). Otherwise, below the partial
  /// threshold every column is priced; above it the candidate list is
  /// re-priced against the current duals and refilled round-robin from
  /// column shards when it runs thin. Optimality (j = -1) is only ever
  /// returned from a scan that covered all columns with the current
  /// duals: either the full sweep, or a refill pass that visited every
  /// shard and found nothing.
  PricingChoice price_entering(const std::vector<double>& y, bool bland) {
    PricingChoice best;
    if (bland) {
      for (int j = 0; j < n_total_; ++j) {
        double violation; int dir;
        if (violation_of(j, y, &violation, &dir)) {
          best.j = j; best.dir = dir;
          break;
        }
      }
      return best;
    }

    double best_score = 0.0;
    auto consider = [&](int j, double violation, int dir) {
      const double score = violation * violation / weight_for(j);
      if (score > best_score) {
        best_score = score;
        best.j = j;
        best.dir = dir;
      }
      return score;
    };

    const bool partial = n_total_ > kPartialPricingThreshold;
    if (!partial) {
      for (int j = 0; j < n_total_; ++j) {
        double violation; int dir;
        if (violation_of(j, y, &violation, &dir)) consider(j, violation, dir);
      }
      candidates_scanned_ += n_total_;
      return best;
    }

    // Re-price the surviving candidates in place.
    std::size_t keep = 0;
    for (Candidate& cand : candidates_) {
      ++candidates_scanned_;
      double violation; int dir;
      if (violation_of(cand.j, y, &violation, &dir)) {
        cand.score = consider(cand.j, violation, dir);
        candidates_[keep++] = cand;
      } else {
        in_candidates_[cand.j] = 0;
      }
    }
    candidates_.resize(keep);

    if (static_cast<int>(candidates_.size()) >= kCandidateLowWater) {
      return best;  // healthy list: pivot on its best
    }

    // Refill round-robin from column shards. The cursor advances past
    // every scanned shard unconditionally, so consecutive iterations
    // never rescan the same shard while others still hold candidates
    // (the seed's rotating-window bug under degenerate pricing).
    ++heap_rebuilds_;
    const int shard_size = std::max(64, n_total_ / 16);
    const int num_shards = (n_total_ + shard_size - 1) / shard_size;
    if (shard_cursor_ >= num_shards) shard_cursor_ = 0;
    for (int scanned = 0; scanned < num_shards; ++scanned) {
      if (static_cast<int>(candidates_.size()) >= kCandidateRefill) break;
      const int shard = shard_cursor_;
      shard_cursor_ = shard_cursor_ + 1 == num_shards ? 0 : shard_cursor_ + 1;
      const int begin = shard * shard_size;
      const int end = std::min(n_total_, begin + shard_size);
      for (int j = begin; j < end; ++j) {
        if (in_candidates_[j]) continue;  // already re-priced above
        ++candidates_scanned_;
        double violation; int dir;
        if (!violation_of(j, y, &violation, &dir)) continue;
        const double score = consider(j, violation, dir);
        if (static_cast<int>(candidates_.size()) < kMaxCandidates) {
          candidates_.push_back({j, score});
          in_candidates_[j] = 1;
        } else {
          // Full list: evict the weakest entry if this one beats it.
          std::size_t worst = 0;
          for (std::size_t k = 1; k < candidates_.size(); ++k) {
            if (candidates_[k].score < candidates_[worst].score) worst = k;
          }
          if (candidates_[worst].score < score) {
            in_candidates_[candidates_[worst].j] = 0;
            candidates_[worst] = {j, score};
            in_candidates_[j] = 1;
          }
        }
      }
    }
    // best.j < 0 here implies the survivors list was empty AND the
    // refill visited all shards (it only stops early once it has found
    // candidates) — i.e. a full sweep with current duals found nothing.
    return best;
  }

  // ---- main loop ----

  SolveStatus iterate(bool phase1) {
    std::vector<double> y, w;
    int degenerate_streak = 0;
    int pivots_since_refactor = 0;
    // Stale candidate scores from the other phase (different costs) are
    // useless; the list restarts empty.
    reset_candidates();
    // Watchdog liveness, as in the dual loop above.
    obs::HeartbeatScope heartbeat("hb.lp_solve");
    for (;;) {
      if (iterations_ >= options_.max_iterations) return SolveStatus::kIterationLimit;
      if (options_.deadline.expired()) return SolveStatus::kTimeLimit;
      ++iterations_;
      if ((iterations_ & 127) == 0) heartbeat.beat(iterations_);

      compute_duals(y);
      const bool bland = degenerate_streak > 256;
      if (!bland) ensure_pricing_weights();
      PricingChoice choice;
      {
        // Timed, not spanned: the per-solve "lp.price" trace event is
        // emitted once in finish() from the accumulated total — a
        // per-iteration RAII span would flood the trace buffers.
        Stopwatch stopwatch;
        choice = price_entering(y, bland);
        pricing_seconds_ += stopwatch.seconds();
      }
      if (choice.j < 0) {
        check_pricing_weights("Simplex::iterate optimal");
        return SolveStatus::kOptimal;
      }
      const int entering = choice.j;
      const int entering_dir = choice.dir;

      ftran(entering, w);

      // Ratio test: largest step t >= 0 for x_entering moving `dir`.
      double t_limit = ub_[entering] - lb_[entering];  // own span (may be inf)
      int leaving_pos = -1;
      double leaving_pivot = 0.0;
      for (int p = 0; p < m_; ++p) {
        const double delta = entering_dir * w[p];
        if (std::abs(delta) < kPivotTolerance) continue;
        const int bj = basis_[p];
        double ratio;
        if (delta > 0.0) {
          if (!std::isfinite(lb_[bj])) continue;
          ratio = (val_[bj] - lb_[bj]) / delta;
        } else {
          if (!std::isfinite(ub_[bj])) continue;
          ratio = (val_[bj] - ub_[bj]) / delta;
        }
        ratio = std::max(ratio, 0.0);
        const bool better =
            ratio < t_limit - 1e-12 ||
            (ratio < t_limit + 1e-12 && leaving_pos >= 0 &&
             (bland ? basis_[p] < basis_[leaving_pos]
                    : std::abs(w[p]) > std::abs(leaving_pivot)));
        if (leaving_pos < 0 ? ratio < t_limit : better) {
          t_limit = ratio;
          leaving_pos = p;
          leaving_pivot = w[p];
        }
      }

      if (!std::isfinite(t_limit)) {
        return phase1 ? SolveStatus::kInfeasible  // cannot happen: phase-1 bounded
                      : SolveStatus::kUnbounded;
      }

      degenerate_streak = t_limit < 1e-10 ? degenerate_streak + 1 : 0;

      // Apply the step to the entering variable and the basics.
      factor_fresh_ = false;
      val_[entering] += entering_dir * t_limit;
      if (t_limit > 0.0) {
        for (int p = 0; p < m_; ++p) {
          if (w[p] != 0.0) val_[basis_[p]] -= entering_dir * t_limit * w[p];
        }
      }

      if (leaving_pos < 0) {
        // Bound flip: entering traveled its whole span, no basis change.
        status_[entering] =
            entering_dir > 0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
        val_[entering] = entering_dir > 0 ? ub_[entering] : lb_[entering];
        continue;
      }

      // The weight recurrence needs the OLD basis inverse (rho) and the
      // pre-exchange status_/basis_, so it runs before the swap. Pivots
      // taken under Bland's rule skip the update; devex degrades
      // gracefully (weights stay >= 1, still an approximation).
      if (!bland && devex_ && weights_valid_) {
        Stopwatch stopwatch;
        update_pricing_weights(entering, leaving_pos, w);
        pricing_seconds_ += stopwatch.seconds();
      }

      const int leaving = basis_[leaving_pos];
      const double delta = entering_dir * leaving_pivot;
      status_[leaving] = delta > 0.0 ? VarStatus::kAtLower : VarStatus::kAtUpper;
      val_[leaving] = delta > 0.0 ? lb_[leaving] : ub_[leaving];
      status_[entering] = VarStatus::kBasic;
      basis_[leaving_pos] = entering;

      factor_.append_eta(leaving_pos, w);

      if (++pivots_since_refactor >= refactor_period_ ||
          factor_.prefers_refactor()) {
        pivots_since_refactor = 0;
        if (!refactor()) {
          throw std::logic_error("Simplex: basis became singular");
        }
        compute_basic_values();
        factor_fresh_ = true;
        on_refactorized();
      }
    }
  }

  /// Swap basic artificials (parked at zero) for real columns via
  /// degenerate pivots so the exported basis is expressible over
  /// structural + slack variables and therefore warm-startable.
  void purge_artificials() {
    std::vector<double> rho;
    for (int p = 0; p < m_; ++p) {
      if (basis_[p] < n_real_) continue;
      factor_.btran_unit(p, rho);
      int enter = -1;
      double enter_pivot = 0.0;
      for (int j = 0; j < n_real_; ++j) {
        if (status_[j] == VarStatus::kBasic) continue;
        double pivot = 0.0;
        for (const auto& [r, coeff] : col(j)) pivot += rho[r] * coeff;
        if (std::abs(pivot) > 1e-7 && std::abs(pivot) > std::abs(enter_pivot)) {
          enter = j;
          enter_pivot = pivot;
          if (std::abs(enter_pivot) > 0.1) break;  // good enough
        }
      }
      if (enter < 0) continue;  // redundant row: artificial must stay
      std::vector<double> w;
      ftran(enter, w);
      factor_fresh_ = false;
      const int leave = basis_[p];
      status_[leave] = VarStatus::kAtLower;
      val_[leave] = 0.0;
      status_[enter] = VarStatus::kBasic;
      basis_[p] = enter;
      factor_.append_eta(p, w);
      weights_valid_ = false;  // pivots the pricing loop never saw
    }
  }

  void finish(Solution& solution, SolveStatus status, const Stopwatch& watch) {
    solution.status = status;
    solution.iterations = iterations_;
    solution.solve_seconds = watch.seconds();
    solution.pricing_seconds = pricing_seconds_;
    // Pricing telemetry, accumulated locally and flushed once per solve
    // (the counters are shared atomics; per-iteration adds would put
    // contended RMWs in the hot loop when rollout workers or serve
    // shards solve concurrently).
    static obs::Counter& scanned = obs::counter("lp.pricing.candidates_scanned");
    static obs::Counter& rebuilds = obs::counter("lp.pricing.heap_rebuilds");
    static obs::Counter& resets = obs::counter("lp.pricing.weight_resets");
    if (candidates_scanned_ > 0) scanned.add(candidates_scanned_);
    if (heap_rebuilds_ > 0) rebuilds.add(heap_rebuilds_);
    if (weight_resets_ > 0) resets.add(weight_resets_);
    obs::record_aggregate_span("lp.price", pricing_seconds_ * 1e6);
    if (status == SolveStatus::kOptimal) {
      purge_artificials();
      check_basis_invariants("Simplex::finish optimal");
#if NP_CHECKS_ENABLED
      // Optimal points must respect the variable bounds (within the
      // feasibility tolerance) and be finite.
      {
        const double tol = kFeasibilityTolerance;
        for (int j = 0; j < n_struct_; ++j) {
          NP_ASSERT(std::isfinite(val_[j]),
                    "Simplex::finish: non-finite value for variable ", j);
          NP_ASSERT(val_[j] >= lb_[j] - tol * (1.0 + std::abs(lb_[j])),
                    "Simplex::finish: variable ", j, " below lower bound: ",
                    val_[j], " < ", lb_[j]);
          NP_ASSERT(val_[j] <= ub_[j] + tol * (1.0 + std::abs(ub_[j])),
                    "Simplex::finish: variable ", j, " above upper bound: ",
                    val_[j], " > ", ub_[j]);
        }
      }
#endif
      solution.x.assign(val_.begin(), val_.begin() + n_struct_);
      double obj = 0.0;
      for (int j = 0; j < n_struct_; ++j) obj += model_.variable(j).objective * val_[j];
      solution.objective = obj;
      solution.basis.statuses.assign(status_.begin(), status_.begin() + n_real_);
      keep_factor();
    }
  }

  /// Moves the final LU to kept_ when a warm start from the returned
  /// basis could adopt it: no eta after its factorization (from a pivot
  /// or purge_artificials), and basis_ in the ascending order
  /// try_warm_start lists a basis in, artificials excluded. Runs last:
  /// the factor and basis_ are empty afterwards.
  void keep_factor() {
    if (kept_ == nullptr || m_ == 0 || factor_.eta_count() > 0 ||
        basis_.back() >= n_real_ || !std::is_sorted(basis_.begin(), basis_.end())) {
      return;
    }
    kept_->basis = std::move(basis_);
    kept_->lu = factor_.release();
  }

  const Model& model_;
  const SparseLines& columns_;  // structural columns, read in place
  const SimplexOptions& options_;
  const int refactor_period_;
  int n_struct_ = 0;
  int m_ = 0;
  int n_real_ = 0;
  int n_total_ = 0;
  bool needs_phase1_ = true;
  // True while the basis is freshly factorized AND the basic values
  // were computed from it with no incremental (product-form / step)
  // updates since — i.e. val_ can be trusted for terminal verdicts.
  bool factor_fresh_ = false;
  long iterations_ = 0;

  // ---- pricing state ----
  const bool devex_;  // devex when cold, Dantzig when warm
  // True while the devex weight_ tracks the current basis (since the
  // last reference reset). Invalidated by pivots the pricing loop never
  // sees (dual repair, artificial purging) and reset lazily.
  bool weights_valid_ = false;
  std::vector<double> weight_;
  std::vector<Candidate> candidates_;   // partial-pricing candidate list
  std::vector<char> in_candidates_;     // column -> on candidates_?
  int shard_cursor_ = 0;                // round-robin refill position
  double pricing_seconds_ = 0.0;
  long candidates_scanned_ = 0;
  long heap_rebuilds_ = 0;
  long weight_resets_ = 0;
  std::vector<double> rho_;   // btran_unit scratch (pivot row of B^{-1})
  la::ScatterVector alpha_;   // pivot row rho^T A, stamp-deduplicated
  SparseLines rows_;          // structural rows for compute_pivot_row

  std::vector<Coefficient> unit_;  // slack and artificial columns
  std::vector<double> lb_, ub_, cost_, val_;
  std::vector<double> rhs_;        // compute_basic_values() scratch
  std::vector<VarStatus> status_;
  std::vector<int> basis_;       // variable index per basis position
  BasisFactor factor_;
  std::vector<ColumnView> basis_cols_;  // refactor() scratch

  // ---- kept LU (KeptFactor) ----
  KeptFactor* const kept_;  // caller's slot; null = keep nothing
  KeptFactor reusable_;     // what kept_ held on entry
};

}  // namespace

namespace {

Solution solve_impl(const Model& model, const SimplexOptions& options,
                    KeptFactor* kept) {
  model.validate();
  // A compressed model's columns are read in place; an uncompressed one
  // gets the same store for this solve (and its retry).
  SparseLines temporary;
  const SparseLines& columns =
      model.compressed()
          ? model.columns()
          : (temporary = transpose(model.row_coefficients(), model.num_variables()));
  try {
    Simplex simplex(model, columns, options, kRefactorInterval, kept);
    return simplex.run();
  } catch (const util::ContractViolation&) {
    throw;  // contract bugs must surface, never be retried away
  } catch (const std::logic_error&) {
    // Numerically singular basis from accumulated product-form drift.
    // Retry once, cold, with frequent refactorization and the same
    // deadline; if even that fails, report a resource-limit status
    // instead of crashing the caller (branch-and-bound treats it like
    // any other failed node).
    static obs::Counter& singular_retries = obs::counter("lp.singular_retries");
    singular_retries.add(1);
    SimplexOptions conservative = options;
    conservative.warm_start = nullptr;
    try {
      Simplex retry(model, columns, conservative, kRetryRefactorInterval, kept);
      return retry.run();
    } catch (const util::ContractViolation&) {
      throw;
    } catch (const std::logic_error&) {
      Solution failed;
      failed.status = SolveStatus::kIterationLimit;
      return failed;
    }
  }
}

/// Per-solve telemetry: volume (solves, iterations), how each solve
/// started (warm-start efficacy), and — when detail metrics are on —
/// the solve-time distribution.
void record_solve_metrics(const Solution& solution) {
  static obs::Counter& solves = obs::counter("lp.solves");
  static obs::Counter& iterations = obs::counter("lp.iterations");
  solves.add(1);
  iterations.add(solution.iterations);
  // Resource-limit verdicts feed the degradation dashboards: a solve
  // stopped by its wall-clock deadline or iteration cap is a
  // recovery event upstream (scenario reported unknown, env degrades).
  if (solution.status == SolveStatus::kTimeLimit) {
    static obs::Counter& c = obs::counter("lp.deadline_hits");
    c.add(1);
    obs::fr_record(obs::FrEventKind::kDeadlineHit, "lp.deadline",
                   solution.iterations);
  } else if (solution.status == SolveStatus::kIterationLimit) {
    static obs::Counter& c = obs::counter("lp.iteration_limit_hits");
    c.add(1);
  }
  switch (solution.start_path) {
    case StartPath::kCold: {
      static obs::Counter& c = obs::counter("lp.start.cold");
      c.add(1);
      break;
    }
    case StartPath::kWarmPrimal: {
      static obs::Counter& c = obs::counter("lp.start.warm_primal");
      c.add(1);
      break;
    }
    case StartPath::kDualRepair: {
      static obs::Counter& c = obs::counter("lp.start.dual_repair");
      c.add(1);
      break;
    }
    case StartPath::kWarmFailed: {
      static obs::Counter& c = obs::counter("lp.start.warm_failed");
      c.add(1);
      break;
    }
  }
  if (obs::detail_enabled()) {
    static obs::Histogram& solve_us = obs::histogram(
        "lp.solve_us", obs::exponential_buckets(1.0, 4.0, 12));
    solve_us.observe(solution.solve_seconds * 1e6);
  }
}

}  // namespace

Solution solve(const Model& model, const SimplexOptions& options, KeptFactor* kept) {
  NP_SPAN("simplex.solve");
  Solution solution = solve_impl(model, options, kept);
  record_solve_metrics(solution);
  return solution;
}

}  // namespace np::lp
