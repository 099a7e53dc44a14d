// Plan evaluator (Figure 3 / §5 of the paper).
//
// Checks whether a capacity plan satisfies the traffic demand under the
// reliability policy across all failure scenarios, in the three
// implementations of the paper's Figure 7 comparison:
//
//  * kVanilla            — per-flow commodities, every scenario LP is
//                          rebuilt from scratch on every check.
//  * kSourceAggregation  — per-source commodities (the SA optimization),
//                          still rebuilding models each check.
//  * kStateful           — SA plus stateful failure checking: scenario
//                          models are built once and patched, solves
//                          warm-start from the previous basis, and
//                          scenarios survived earlier are skipped.
//
// kStateful is the default, used by every caller that checks more than
// one plan. check_once() checks a lone plan with kSourceAggregation;
// kVanilla remains only as Fig. 7's comparison and a test reference.
//
// The §5 skip is decided from the plans alone: a check whose plan has
// at least as many units on every link as the previous check's resumes
// at the first scenario not yet survived, since capacity that only grew
// keeps every survived scenario feasible. Any other plan (a new RL
// trajectory, a what-if query, a stage-2 round) starts at scenario 0,
// so any sequence of plans gets the verdicts of fresh models.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "plan/scenario_lp.hpp"
#include "topo/topology.hpp"
#include "util/deadline.hpp"

namespace np::plan {

enum class EvaluatorMode { kVanilla, kSourceAggregation, kStateful };

/// Thrown by a check in any mode when one scenario's solve dies on an
/// exception (injected fault, contract violation, solver error): the
/// failing scenario id rides along so a serving layer can retry cold or
/// quarantine exactly that scenario instead of the whole query. The
/// scenario's model is dropped before the throw, so the next attempt
/// rebuilds it from scratch.
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(int scenario, const std::string& cause)
      : std::runtime_error("scenario " + std::to_string(scenario) +
                           " failed: " + cause),
        scenario_(scenario) {}
  int scenario() const { return scenario_; }

 private:
  int scenario_;
};

const char* to_string(EvaluatorMode mode);

struct CheckResult {
  bool feasible = false;
  /// Verdict for the blocking scenario: kFeasible when the whole check
  /// passed, kInfeasible when a scenario was proven infeasible,
  /// kUnknown when the blocking scenario ran out of solver budget and
  /// is conservatively treated as not-yet-satisfied.
  Verdict verdict = Verdict::kUnknown;
  /// First scenario that failed (kHealthyScenario..num_scenarios-1), or
  /// -1 when feasible.
  int violated_scenario = -1;
  /// Unserved demand in the violated scenario (Gbps), 0 when feasible.
  double unserved_gbps = 0.0;
  /// Scenario solves in this check that stopped on the wall-clock
  /// deadline instead of finishing.
  int deadline_hits = 0;
  /// Scenarios skipped because they are quarantined (set_quarantined);
  /// > 0 forces verdict kUnknown even when every solved scenario passed
  /// — skipped scenarios are unproven, never assumed feasible.
  int quarantined_skipped = 0;
  /// Scenarios solved in this check; those the §5 skip or a quarantine
  /// passed over are not counted.
  int scenarios_checked = 0;
  long lp_iterations = 0;
  /// Wall-clock seconds spent inside lp::solve for this check.
  double lp_seconds = 0.0;
};

class PlanEvaluator {
 public:
  explicit PlanEvaluator(const topo::Topology& topology,
                         EvaluatorMode mode = EvaluatorMode::kStateful);

  /// Check the plan (per-link TOTAL units). Stops at the first violated
  /// scenario. Any plan may follow any other (see the §5 skip above).
  CheckResult check(const std::vector<int>& total_units);

  /// Wall-clock budget per scenario solve, in seconds; <= 0 means
  /// unlimited. Scenario LPs are always iteration-capped — this adds a
  /// deadline on top, so one pathological scenario cannot stall a
  /// check. A solve that hits the budget reports Verdict::kUnknown and
  /// the check degrades conservatively (scenario treated as failed).
  void set_scenario_budget(double seconds) {
    scenario_budget_seconds_ = seconds > 0.0 ? seconds : lp::kInfinity;
  }

  /// Absolute wall-clock deadline for the *whole* check: each scenario
  /// solve's SimplexOptions::deadline is the earlier of it and the
  /// per-scenario budget, and it is tested between scenarios — an expired
  /// deadline ends the check with Verdict::kUnknown partial results
  /// instead of blocking. Default-constructed = unlimited. The deadline
  /// persists across check() calls; serving callers set a fresh one per
  /// query.
  void set_check_deadline(util::Deadline deadline) { check_deadline_ = deadline; }

  /// Scenario ids to skip (sorted or not; duplicates fine). A check
  /// that skips any quarantined scenario reports quarantined_skipped
  /// and degrades its verdict to kUnknown — quarantine trades accuracy
  /// for availability, it never fakes feasibility.
  void set_quarantined(std::vector<int> scenario_ids);

  /// Drop one scenario's cached model and warm basis so its next solve
  /// is a cold rebuild (kStateful only).
  void invalidate_scenario(int scenario);

  /// Scenarios = 1 (healthy) + failures.
  int num_scenarios() const { return topology_.num_failures() + 1; }

  EvaluatorMode mode() const { return mode_; }
  const topo::Topology& topology() const { return topology_; }

  /// Cumulative simplex iterations since construction (efficiency metric).
  long total_lp_iterations() const { return total_lp_iterations_; }

  /// Cumulative seconds inside lp::solve since construction.
  double total_lp_seconds() const { return total_lp_seconds_; }

 private:
  CheckResult check_scenario(int scenario, const std::vector<int>& total_units);

  const topo::Topology& topology_;
  EvaluatorMode mode_;
  lp::SimplexOptions lp_options_;
  double scenario_budget_seconds_ = lp::kInfinity;  ///< +inf = unlimited
  util::Deadline check_deadline_;                   ///< default = unlimited
  std::vector<int> quarantined_;                    ///< scenario ids to skip
  /// Lazily built, patched models (kStateful only).
  std::vector<std::optional<ScenarioLp>> cached_;
  /// kStateful: the previous check's units. Every scenario below
  /// next_unchecked_ survived a plan with at most these units on every
  /// link; a quarantined scenario skipped unproven stops it.
  std::vector<int> last_units_;
  int next_unchecked_ = 0;
  long total_lp_iterations_ = 0;
  double total_lp_seconds_ = 0.0;
};

/// Check a single plan on fresh models (kSourceAggregation), one
/// scenario LP alive at a time. For callers with one plan to check: a
/// kStateful evaluator would keep every scenario LP it built, which a
/// lone check never reuses, and the freed models stay resident (about
/// 4 MiB on preset E).
CheckResult check_once(const topo::Topology& topology,
                       const std::vector<int>& total_units);

}  // namespace np::plan
