#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace np::milp {

const char* to_string(MilpStatus status) {
  switch (status) {
    case MilpStatus::kOptimal: return "optimal";
    case MilpStatus::kInfeasible: return "infeasible";
    case MilpStatus::kTimeLimit: return "time-limit";
    case MilpStatus::kNodeLimit: return "node-limit";
    case MilpStatus::kUnbounded: return "unbounded";
  }
  return "unknown";
}

namespace {

/// A value within this distance of an integer counts as integral.
constexpr double kIntegralityTolerance = 1e-6;

/// The rounding heuristic runs at the root and every this many nodes.
constexpr long kHeuristicInterval = 20;

/// One branching decision; nodes share ancestors through shared_ptr
/// chains so storing a node is O(1) instead of O(num integer vars).
struct BoundChange {
  std::shared_ptr<const BoundChange> parent;
  int variable = -1;
  bool is_upper = false;
  double value = 0.0;
};

struct Node {
  std::shared_ptr<const BoundChange> chain;
  double bound = -lp::kInfinity;  // parent LP bound (lower bound on subtree)
  int depth = 0;
  /// Parent's optimal basis: dual feasible for the child (only a bound
  /// changed), so the child LP re-solves via the dual simplex in a few
  /// pivots instead of a cold two-phase run.
  std::shared_ptr<const lp::Basis> parent_basis;
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;  // min-heap on bound
    return a.depth < b.depth;                          // tie-break: deeper first
  }
};

class BranchAndBound {
 public:
  BranchAndBound(const lp::Model& model, const MilpOptions& options)
      : model_(model), options_(options), work_(model) {
    // Every node, heuristic and warm-start LP re-solves the working copy
    // with other bounds: compressed once, its columns are read in place.
    work_.compress();
    lp_options_.deadline = options.deadline;
    for (int j = 0; j < model.num_variables(); ++j) {
      if (model.variable(j).is_integer) integer_vars_.push_back(j);
    }
  }

  MilpResult run() {
    NP_SPAN("milp.solve");
    static obs::Counter& solves = obs::counter("milp.solves");
    solves.add(1);
    MilpResult result;
    try_integer_warm_start(result);

    std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
    open.push(Node{});
    double best_open_bound = -lp::kInfinity;

    while (!open.empty()) {
      if (options_.deadline.expired()) {
        return finish(result, MilpStatus::kTimeLimit, best_open_bound);
      }
      if (nodes_explored_ >= options_.max_nodes) {
        return finish(result, MilpStatus::kNodeLimit, best_open_bound);
      }
      Node node = open.top();
      open.pop();
      best_open_bound = node.bound;
      if (result.has_incumbent &&
          node.bound >= result.objective - absolute_gap_slack(result.objective)) {
        continue;  // pruned by bound
      }
      ++nodes_explored_;
      static obs::Counter& nodes = obs::counter("milp.nodes");
      nodes.add(1);

      if (!apply_bounds(node.chain)) continue;
      lp::SimplexOptions lp_opts = lp_options_;
      if (node.parent_basis != nullptr) lp_opts.warm_start = node.parent_basis.get();
      lp::Solution relax = lp::solve(work_, lp_opts);

      if (relax.status == lp::SolveStatus::kTimeLimit) {
        return finish(result, MilpStatus::kTimeLimit, best_open_bound);
      }
      if (relax.status == lp::SolveStatus::kUnbounded) {
        // An unbounded subproblem with an incumbent cannot be pruned
        // soundly in general, but with bounded integer variables (our
        // planning models) it means the continuous part is unbounded
        // and the whole MILP is too.
        result.status = MilpStatus::kUnbounded;
        return result;
      }
      if (relax.status != lp::SolveStatus::kOptimal) continue;  // infeasible node

      if (result.has_incumbent &&
          relax.objective >= result.objective - absolute_gap_slack(result.objective)) {
        continue;
      }

      const int branch_var = most_fractional(relax.x);
      if (branch_var < 0) {
        // Integral: new incumbent.
        accept_incumbent(result, relax.x, relax.objective);
        if (gap_closed(result, open.empty() ? relax.objective : best_open_bound)) {
          return finish(result, MilpStatus::kOptimal, best_open_bound);
        }
        continue;
      }

      if (nodes_explored_ % kHeuristicInterval == 1) {
        rounding_heuristic(result, relax.x);
      }

      const double value = relax.x[branch_var];
      auto basis = std::make_shared<const lp::Basis>(std::move(relax.basis));
      Node down{std::make_shared<BoundChange>(BoundChange{
                    node.chain, branch_var, /*is_upper=*/true, std::floor(value)}),
                relax.objective, node.depth + 1, basis};
      Node up{std::make_shared<BoundChange>(BoundChange{
                  node.chain, branch_var, /*is_upper=*/false, std::ceil(value)}),
              relax.objective, node.depth + 1, basis};
      open.push(std::move(down));
      open.push(std::move(up));
    }

    // Queue exhausted: the incumbent (if any) is optimal.
    if (result.has_incumbent) {
      return finish(result, MilpStatus::kOptimal, result.objective);
    }
    result.status = MilpStatus::kInfeasible;
    result.best_bound = lp::kInfinity;
    return result;
  }

 private:
  double absolute_gap_slack(double incumbent) const {
    return options_.relative_gap * std::max(1.0, std::abs(incumbent));
  }

  bool gap_closed(const MilpResult& result, double bound) const {
    if (!result.has_incumbent) return false;
    return result.objective - bound <= absolute_gap_slack(result.objective);
  }

  void try_integer_warm_start(MilpResult& result) {
    const std::vector<double>* start = options_.integer_warm_start;
    if (start == nullptr) return;
    if (start->size() != static_cast<std::size_t>(model_.num_variables())) {
      log_warn("milp: integer warm start has wrong size; ignored");
      return;
    }
    std::vector<double> target;
    target.reserve(integer_vars_.size());
    for (int j : integer_vars_) target.push_back(std::round((*start)[j]));
    fix_and_resolve(result, target);
  }

  /// Fixes the k-th integer variable to target[k], clamped into its
  /// current bounds, re-solves the continuous LP and offers an optimal
  /// point as an incumbent; then restores the bounds. Skips the solve
  /// when a clamped target is not integral.
  void fix_and_resolve(MilpResult& result, const std::vector<double>& target) {
    std::vector<std::pair<double, double>> saved;
    saved.reserve(integer_vars_.size());
    bool applicable = true;
    for (std::size_t k = 0; k < integer_vars_.size(); ++k) {
      const int j = integer_vars_[k];
      const lp::Variable& v = work_.variable(j);
      saved.emplace_back(v.lower, v.upper);
      const double fixed = std::max(std::min(target[k], v.upper), v.lower);
      if (std::abs(fixed - std::round(fixed)) > kIntegralityTolerance) {
        applicable = false;
        break;
      }
      work_.set_variable_bounds(j, fixed, fixed);
    }
    if (applicable) {
      lp::Solution fixed = lp::solve(work_, lp_options_);
      if (fixed.status == lp::SolveStatus::kOptimal) {
        accept_incumbent(result, fixed.x, fixed.objective);
      }
    }
    for (std::size_t k = 0; k < saved.size(); ++k) {
      work_.set_variable_bounds(integer_vars_[k], saved[k].first, saved[k].second);
    }
  }

  /// Returns false when the replayed chain produces an empty box (the
  /// node is trivially infeasible and should be discarded).
  bool apply_bounds(const std::shared_ptr<const BoundChange>& chain) {
    // Reset integer bounds to the originals, then replay the chain
    // root-to-leaf so deeper (tighter) decisions win.
    for (int j : integer_vars_) {
      const lp::Variable& v = model_.variable(j);
      work_.set_variable_bounds(j, v.lower, v.upper);
    }
    std::vector<const BoundChange*> stack;
    for (const BoundChange* c = chain.get(); c != nullptr; c = c->parent.get()) {
      stack.push_back(c);
    }
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      const BoundChange& c = **it;
      const lp::Variable& v = work_.variable(c.variable);
      double lo = v.lower, hi = v.upper;
      if (c.is_upper) hi = std::min(hi, c.value);
      else lo = std::max(lo, c.value);
      if (lo > hi) return false;
      work_.set_variable_bounds(c.variable, lo, hi);
    }
    return true;
  }

  int most_fractional(const std::vector<double>& x) const {
    // Cost-weighted most-fractional branching: a wrong rounding on an
    // expensive variable moves the objective more, so settle those
    // first. Falls back to plain fractionality on zero-cost variables.
    int best = -1;
    double best_score = 0.0;
    for (int j : integer_vars_) {
      const double frac = x[j] - std::floor(x[j]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist <= kIntegralityTolerance) continue;
      const double score =
          dist * (std::abs(model_.variable(j).objective) + 1e-9);
      if (best < 0 || score > best_score) {
        best_score = score;
        best = j;
      }
    }
    return best;
  }

  /// Rounds every integer variable of the node's LP point up (capacity
  /// models stay feasible when capacities only grow) and tries it.
  void rounding_heuristic(MilpResult& result, const std::vector<double>& x) {
    std::vector<double> target;
    target.reserve(integer_vars_.size());
    for (int j : integer_vars_) target.push_back(std::ceil(x[j] - kIntegralityTolerance));
    fix_and_resolve(result, target);
  }

  void accept_incumbent(MilpResult& result, std::vector<double> x, double objective) {
    if (result.has_incumbent && objective >= result.objective) return;
#if NP_CHECKS_ENABLED
    // Incumbent contract: for this minimization the incumbent objective
    // must only ever improve, and a point accepted as integral must
    // actually be integral up to the branching tolerance before the
    // exact snap below.
    NP_ASSERT(std::isfinite(objective),
              "milp: non-finite incumbent objective ", objective);
    NP_ASSERT(!result.has_incumbent || objective < result.objective,
              "milp: incumbent worsened: ", result.objective, " -> ", objective);
    for (int j : integer_vars_) {
      NP_ASSERT(std::abs(x[j] - std::round(x[j])) <=
                    kIntegralityTolerance + 1e-9,
                "milp: non-integral incumbent coordinate ", j, " = ", x[j]);
    }
#endif
    // Snap integer coordinates exactly.
    for (int j : integer_vars_) x[j] = std::round(x[j]);
    result.has_incumbent = true;
    result.x = std::move(x);
    result.objective = objective;
    log_debug("milp: incumbent ", objective);
  }

  MilpResult finish(MilpResult& result, MilpStatus status, double bound) {
    result.status = status;
    result.best_bound = status == MilpStatus::kOptimal && result.has_incumbent
                            ? result.objective
                            : bound;
    if (result.has_incumbent) {
      result.gap = (result.objective - result.best_bound) /
                   std::max(1.0, std::abs(result.objective));
      result.gap = std::max(result.gap, 0.0);
    }
    return result;
  }

  const lp::Model& model_;
  const MilpOptions& options_;
  lp::Model work_;
  lp::SimplexOptions lp_options_;  ///< every LP stops on the MILP's deadline
  std::vector<int> integer_vars_;
  long nodes_explored_ = 0;
};

}  // namespace

MilpResult solve(const lp::Model& model, const MilpOptions& options) {
  model.validate();
  BranchAndBound bnb(model, options);
  return bnb.run();
}

}  // namespace np::milp
