#include "plan/evaluator.hpp"

#include <algorithm>
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
    case EvaluatorMode::kWarmPatched: return "warm-patched";
  }
  return "unknown";
}

PlanEvaluator::PlanEvaluator(const topo::Topology& topology, EvaluatorMode mode)
    : topology_(topology), mode_(mode) {
  topology_.validate();
  cached_.resize(num_scenarios());
  lp_options_.max_iterations = 1000000;
}

void PlanEvaluator::reset() {
  next_unchecked_ = 0;
  last_units_.clear();
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
  const bool aggregate = mode_ != EvaluatorMode::kVanilla;
  // Each scenario solve gets a fresh deadline so a pathological LP is
  // bounded both by iterations (lp_options_.max_iterations) and by
  // wall-clock; an expired budget surfaces as Verdict::kUnknown. The
  // check-level deadline (serving: the query's end-to-end budget)
  // tightens the per-scenario budget when it expires sooner.
  lp::SimplexOptions options = lp_options_;
  if (scenario_budget_seconds_ > 0.0) {
    options.deadline = util::Deadline::after_seconds(scenario_budget_seconds_);
    if (!check_deadline_.is_unlimited() &&
        check_deadline_.remaining_seconds() < scenario_budget_seconds_) {
      options.deadline = check_deadline_;
    }
  } else {
    options.deadline = check_deadline_;
  }
  CheckResult result;
  ScenarioCheck check;
  const bool cached_models = mode_ == EvaluatorMode::kStateful ||
                             mode_ == EvaluatorMode::kWarmPatched;
  if (cached_models) {
    if (!cached_[scenario].has_value()) {
      cached_[scenario] = build_scenario_lp(topology_, scenario, aggregate);
    }
    ScenarioLp& lp = *cached_[scenario];
    set_plan_capacities(lp, topology_, total_units);
    // Warm re-checks finish in a handful of pivots, where devex weight
    // upkeep is pure overhead — Dantzig once a basis exists, devex for
    // the first (cold) solve of each scenario.
    options.pricing = lp.has_basis ? lp::PricingRule::kDantzig
                                   : lp::PricingRule::kDevex;
    if (mode_ == EvaluatorMode::kWarmPatched) {
      // Serving boundary: a solve that dies (injected fault, contract
      // violation, solver error) must identify its scenario so the
      // caller can retry cold or quarantine it. The cache entry is
      // dropped first — the retry starts from a fresh model, never the
      // state that just failed.
      try {
        check = solve_scenario(lp, options, /*warm=*/true);
      } catch (const std::exception& e) {
        cached_[scenario].reset();
        throw ScenarioError(scenario, e.what());
      }
    } else {
      check = solve_scenario(lp, options, /*warm=*/true);
    }
  } else {
    ScenarioLp lp = build_scenario_lp(topology_, scenario, aggregate);
    set_plan_capacities(lp, topology_, total_units);
    options.pricing = lp::PricingRule::kDevex;  // always cold here
    check = solve_scenario(lp, options, /*warm=*/false);
  }
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
#if NP_CHECKS_ENABLED
  // Stateful failure checking skips scenarios survived earlier in the
  // trajectory, which is only sound when capacities never decrease
  // between checks (§5 precondition; the env's only-add action space
  // guarantees it, but any other caller must too).
  if (mode_ == EvaluatorMode::kStateful) {
    if (!last_units_.empty()) {
      NP_CHECK_MONOTONE_UNITS(last_units_, total_units, "PlanEvaluator::check");
    }
    last_units_ = total_units;
  }
#endif
  NP_SPAN("plan.check");
  static obs::Counter& checks = obs::counter("plan.checks");
  static obs::Counter& scenarios_checked = obs::counter("plan.scenarios_checked");
  static obs::Counter& scenarios_skipped = obs::counter("plan.scenarios_skipped");
  static obs::Counter& deadline_hits = obs::counter("plan.deadline_hits");
  checks.add(1);
  CheckResult aggregate;
  const int start = mode_ == EvaluatorMode::kStateful ? next_unchecked_ : 0;
  // Scenarios below `start` were survived earlier in the trajectory and
  // are short-circuited by stateful checking — the paper's §5 speedup.
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
    if (!check_deadline_.is_unlimited() && check_deadline_.expired()) {
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
      if (mode_ == EvaluatorMode::kStateful) next_unchecked_ = scenario;
      return aggregate;
    }
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
  if (mode_ == EvaluatorMode::kStateful) next_unchecked_ = num_scenarios();
  return aggregate;
}

}  // namespace np::plan
