#include "plan/parallel_evaluator.hpp"

#include <atomic>
#include <functional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/fault.hpp"

namespace np::plan {

ParallelPlanEvaluator::ParallelPlanEvaluator(const topo::Topology& topology,
                                             int threads)
    : topology_(topology), threads_(threads) {
  if (threads < 1) {
    throw std::invalid_argument("ParallelPlanEvaluator: threads must be >= 1");
  }
  topology_.validate();
  threads_ = std::min(threads, num_scenarios());
  cached_.resize(threads_);
  groups_.resize(threads_);
  for (int scenario = 0; scenario < num_scenarios(); ++scenario) {
    groups_[scenario % threads_].push_back(scenario);
  }
  for (int t = 0; t < threads_; ++t) cached_[t].resize(groups_[t].size());
  lp_options_.max_iterations = 1000000;
  pool_ = std::make_unique<util::ThreadPool>(threads_ - 1);
}

CheckResult ParallelPlanEvaluator::check(const std::vector<int>& total_units) {
  if (total_units.size() != static_cast<std::size_t>(topology_.num_links())) {
    throw std::invalid_argument("ParallelPlanEvaluator::check: size mismatch");
  }
  for (int units : total_units) {
    if (units < 0) {
      throw std::invalid_argument("ParallelPlanEvaluator::check: negative units");
    }
  }

  std::vector<int> violated_per_thread(threads_, -1);
  std::vector<double> unserved_per_thread(threads_, 0.0);
  std::vector<Verdict> verdict_per_thread(threads_, Verdict::kFeasible);
  std::vector<long> iterations_per_thread(threads_, 0);
  std::vector<double> seconds_per_thread(threads_, 0.0);
  std::vector<int> deadline_hits_per_thread(threads_, 0);
  // Cooperative cancellation: the first worker that throws flips the
  // flag, the others stop before their next scenario, run_all joins
  // everything and rethrows the first exception. Without this a slow
  // group would keep solving LPs long after the check is doomed.
  std::atomic<bool> cancel{false};

  NP_SPAN("plan.parallel_check");
  static obs::Counter& checks = obs::counter("plan.parallel_checks");
  static obs::Counter& scenarios_checked = obs::counter("plan.scenarios_checked");
  checks.add(1);
  scenarios_checked.add(num_scenarios());

  auto worker = [&](int t) {
    // One span per scenario group — on the pool's worker threads, so a
    // trace shows the per-thread overlap (and any straggler group).
    NP_SPAN("plan.scenario_group");
    // Watchdog liveness: one beat per scenario. A worker wedged inside
    // a single scenario solve (or a stall fault) goes quiet here and
    // the monitor flags it with this thread's span stack.
    obs::HeartbeatScope heartbeat("hb.plan_worker");
    try {
      for (std::size_t k = 0; k < groups_[t].size(); ++k) {
        if (cancel.load(std::memory_order_relaxed)) return;
        heartbeat.beat(static_cast<long>(k));
        NP_FAULT_POINT("plan.worker");
        const int scenario = groups_[t][k];
        if (!cached_[t][k].has_value()) {
          cached_[t][k] =
              build_scenario_lp(topology_, scenario, /*aggregate=*/true);
        }
        ScenarioLp& lp = *cached_[t][k];
        set_plan_capacities(lp, topology_, total_units);
        lp::SimplexOptions options = lp_options_;
        if (scenario_budget_seconds_ > 0.0) {
          options.deadline = util::Deadline::after_seconds(scenario_budget_seconds_);
        }
        const ScenarioCheck check = solve_scenario(lp, options, /*warm=*/true);
        iterations_per_thread[t] += check.lp_iterations;
        seconds_per_thread[t] += check.solve_seconds;
        if (check.deadline_hit) ++deadline_hits_per_thread[t];
        if (!check.feasible &&
            (violated_per_thread[t] < 0 || scenario < violated_per_thread[t])) {
          violated_per_thread[t] = scenario;
          unserved_per_thread[t] = check.unserved_gbps;
          verdict_per_thread[t] = check.verdict;
        }
      }
    } catch (...) {
      cancel.store(true, std::memory_order_relaxed);
      throw;
    }
  };

  std::vector<std::function<void()>> tasks;
  tasks.reserve(threads_);
  for (int t = 0; t < threads_; ++t) tasks.push_back([&worker, t] { worker(t); });
  pool_->run_all(std::move(tasks));

  CheckResult result;
  result.verdict = Verdict::kFeasible;
  result.scenarios_checked = num_scenarios();
  for (int t = 0; t < threads_; ++t) {
    result.lp_iterations += iterations_per_thread[t];
    result.lp_seconds += seconds_per_thread[t];
    result.deadline_hits += deadline_hits_per_thread[t];
    if (violated_per_thread[t] >= 0 &&
        (result.violated_scenario < 0 ||
         violated_per_thread[t] < result.violated_scenario)) {
      result.violated_scenario = violated_per_thread[t];
      result.unserved_gbps = unserved_per_thread[t];
      result.verdict = verdict_per_thread[t];
    }
  }
  result.feasible = result.violated_scenario < 0;
  total_lp_iterations_ += result.lp_iterations;
  total_lp_seconds_ += result.lp_seconds;
  return result;
}

}  // namespace np::plan
