#include "plan/evaluator.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace np::plan {

const char* to_string(EvaluatorMode mode) {
  switch (mode) {
    case EvaluatorMode::kVanilla: return "vanilla";
    case EvaluatorMode::kSourceAggregation: return "source-aggregation";
    case EvaluatorMode::kStateful: return "stateful";
  }
  return "unknown";
}

PlanEvaluator::PlanEvaluator(const topo::Topology& topology, EvaluatorMode mode)
    : topology_(topology), mode_(mode) {
  topology_.validate();
  cached_.resize(num_scenarios());
  lp_options_.max_iterations = 1000000;
}

void PlanEvaluator::set_quarantined(std::vector<int> scenario_ids) {
  for (int id : scenario_ids) {
    (void)id;
    NP_ASSERT(id >= 0 && id < num_scenarios(),
              "set_quarantined: scenario ", id, " out of range");
  }
  std::sort(scenario_ids.begin(), scenario_ids.end());
  scenario_ids.erase(std::unique(scenario_ids.begin(), scenario_ids.end()),
                     scenario_ids.end());
  quarantined_ = std::move(scenario_ids);
}

void PlanEvaluator::invalidate_scenario(int scenario) {
  NP_ASSERT(scenario >= 0 && scenario < num_scenarios());
  cached_[scenario].reset();
}

CheckResult PlanEvaluator::check_scenario(int scenario,
                                          const std::vector<int>& total_units) {
  // Each scenario solve is bounded by iterations (lp_options_) and by
  // the earlier of its own budget and the check's deadline (serving: the
  // query's); an expired one surfaces as Verdict::kUnknown.
  lp::SimplexOptions options = lp_options_;
  options.deadline = util::Deadline::earliest(
      check_deadline_, util::Deadline::after_seconds(scenario_budget_seconds_));
  // kStateful keeps the model for the next check and warm-starts it;
  // the other modes build one for this solve only.
  const bool stateful = mode_ == EvaluatorMode::kStateful;
  const bool aggregate = mode_ != EvaluatorMode::kVanilla;
  std::optional<ScenarioLp> local;
  std::optional<ScenarioLp>& scenario_lp = stateful ? cached_[scenario] : local;
  if (!scenario_lp.has_value()) {
    scenario_lp = build_scenario_lp(topology_, scenario, aggregate);
  }
  set_plan_capacities(*scenario_lp, topology_, total_units);
  // A solve that dies (injected fault, contract violation, solver
  // error) names its scenario, so a caller can retry cold or
  // quarantine it. The model is dropped first: the retry starts from a
  // fresh one, never the state that just failed.
  ScenarioCheck check;
  try {
    check = solve_scenario(*scenario_lp, options, /*warm=*/stateful);
  } catch (const std::exception& e) {
    scenario_lp.reset();
    throw ScenarioError(scenario, e.what());
  }
  CheckResult result;
  result.feasible = check.feasible;
  result.verdict = check.verdict;
  result.deadline_hits = check.deadline_hit ? 1 : 0;
  result.unserved_gbps = check.unserved_gbps;
  result.lp_iterations = check.lp_iterations;
  result.lp_seconds = check.solve_seconds;
  return result;
}

CheckResult PlanEvaluator::check(const std::vector<int>& total_units) {
  if (total_units.size() != static_cast<std::size_t>(topology_.num_links())) {
    throw std::invalid_argument("PlanEvaluator::check: unit vector size mismatch");
  }
  for (int l = 0; l < topology_.num_links(); ++l) {
    if (total_units[l] < 0) {
      throw std::invalid_argument("PlanEvaluator::check: negative units");
    }
  }
  NP_SPAN("plan.check");
  static obs::Counter& checks = obs::counter("plan.checks");
  static obs::Counter& scenarios_checked = obs::counter("plan.scenarios_checked");
  static obs::Counter& scenarios_skipped = obs::counter("plan.scenarios_skipped");
  static obs::Counter& deadline_hits = obs::counter("plan.deadline_hits");
  checks.add(1);
  CheckResult aggregate;
  // Stateful failure checking (§5): when no link lost units since the
  // previous check, every scenario below next_unchecked_ is still
  // survived and is skipped; any other plan starts over.
  const bool stateful = mode_ == EvaluatorMode::kStateful;
  if (stateful) {
    const bool grew = last_units_.size() == total_units.size() &&
                      std::equal(total_units.begin(), total_units.end(),
                                 last_units_.begin(), std::greater_equal<>());
    if (!grew) next_unchecked_ = 0;
    last_units_ = total_units;
  }
  const int start = stateful ? next_unchecked_ : 0;
  scenarios_skipped.add(start);
  for (int scenario = start; scenario < num_scenarios(); ++scenario) {
    if (std::binary_search(quarantined_.begin(), quarantined_.end(), scenario)) {
      // Quarantined by the serving layer: skipped, never assumed
      // feasible — the final verdict degrades to kUnknown below.
      ++aggregate.quarantined_skipped;
      continue;
    }
    // The check-level deadline bounds the whole loop, not just each
    // solve: once it expires the remaining scenarios are unproven and
    // the check returns kUnknown partial results immediately.
    if (check_deadline_.expired()) {
      aggregate.feasible = false;
      aggregate.verdict = Verdict::kUnknown;
      aggregate.violated_scenario = scenario;
      ++aggregate.deadline_hits;
      deadline_hits.add(1);
      return aggregate;
    }
    const CheckResult one = check_scenario(scenario, total_units);
    aggregate.lp_iterations += one.lp_iterations;
    aggregate.lp_seconds += one.lp_seconds;
    aggregate.deadline_hits += one.deadline_hits;
    total_lp_iterations_ += one.lp_iterations;
    total_lp_seconds_ += one.lp_seconds;
    scenarios_checked.add(1);
    ++aggregate.scenarios_checked;
    if (!one.feasible) {
      aggregate.feasible = false;
      aggregate.verdict = one.verdict;
      aggregate.violated_scenario = scenario;
      aggregate.unserved_gbps = one.unserved_gbps;
      return aggregate;
    }
    // Survived; progress stays at a quarantined scenario skipped above.
    if (stateful && next_unchecked_ == scenario) next_unchecked_ = scenario + 1;
  }
  if (aggregate.quarantined_skipped > 0) {
    // Every solved scenario passed, but skipped ones are unproven:
    // report kUnknown so callers degrade instead of trusting a partial
    // pass as feasibility.
    aggregate.feasible = false;
    aggregate.verdict = Verdict::kUnknown;
    return aggregate;
  }
  aggregate.feasible = true;
  aggregate.verdict = Verdict::kFeasible;
  return aggregate;
}

CheckResult check_once(const topo::Topology& topology,
                       const std::vector<int>& total_units) {
  return PlanEvaluator(topology, EvaluatorMode::kSourceAggregation).check(total_units);
}

}  // namespace np::plan
