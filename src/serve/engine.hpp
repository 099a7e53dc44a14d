// np::serve query engine: admission control, worker shards, and the
// degradation ladder. Transport-agnostic — sessions (socket or stdio)
// call submit(); the engine answers every accepted query with exactly
// one reply, from a worker thread for real work or synchronously for
// sheds, errors and ping/info.
//
// Degradation ladder (docs/INTERNALS.md §10):
//
//   OK        definitive verdict (feasible or infeasible)
//   RETRY     transient failure (injected fault, contract violation in
//             one scenario shard, deadline-hit warm solve): one cold
//             retry after a jittered backoff — not a terminal state
//   DEGRADED  Verdict::kUnknown partial result (deadline expired,
//             scenarios quarantined, or the retry failed too)
//   SHED      admission refused (queue full, estimated backlog over
//             the limit, or draining) — no work was done
//   QUARANTINE a scenario that failed twice in a row is skipped by all
//             subsequent checks (serve.quarantined); queries touching
//             it keep answering DEGRADED instead of crashing the shard
//
// Each worker shard owns one resident stateful PlanEvaluator: models
// built once, patched per query, warm-started — the paper's stateful
// checking reused for serving. A query with at least the units of the
// shard's previous query on every link skips the scenarios that query
// survived; any other query is checked from scenario 0.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <vector>

#include "plan/evaluator.hpp"
#include "serve/protocol.hpp"
#include "topo/topology.hpp"
#include "util/deadline.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace np::serve {

struct EngineConfig {
  int workers = 1;
  /// Bounded admission queue; submits past this depth are SHED.
  int queue_capacity = 128;
  /// Default per-query deadline when the request carries none;
  /// <= 0 = unlimited.
  double default_deadline_ms = 0.0;
  /// Estimated-backlog shedding: refuse admission once
  /// (queue depth + 1) * EMA service time exceeds this; <= 0 disables.
  double max_backlog_ms = 0.0;
  /// Per-scenario solver budget (PlanEvaluator::set_scenario_budget);
  /// <= 0 = unlimited (the query deadline still bounds the check).
  double scenario_budget_s = 0.0;
  /// Base backoff before the single cold retry; jittered to
  /// [0.5, 1.5) of this and clamped to the query's remaining budget.
  double retry_backoff_ms = 1.0;
  unsigned seed = 1;
};

/// Per-engine tallies (the obs serve.* counters are process-global;
/// tests need per-instance numbers).
struct EngineStats {
  long queries = 0;
  long ok = 0;
  long degraded = 0;
  long shed = 0;
  long errors = 0;
  long retries = 0;
  long quarantined = 0;
};

class Engine {
 public:
  /// Called exactly once per submit() with the terminal reply. May run
  /// on a worker thread; exceptions it throws are swallowed and
  /// counted, never propagated into the worker.
  using ReplyFn = std::function<void(const Reply&)>;

  Engine(const topo::Topology& topology, const EngineConfig& config);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Admission: validates the request, sheds or errors synchronously,
  /// otherwise enqueues for a worker shard. The reply callback fires
  /// exactly once either way.
  void submit(const Request& request, ReplyFn reply) NP_EXCLUDES(mutex_);

  /// Graceful drain: stop accepting (submits shed with reason
  /// "draining"), finish every queued query, join the workers. Safe to
  /// call more than once; the destructor drains if nobody else did.
  void drain() NP_EXCLUDES(mutex_);

  bool draining() const NP_EXCLUDES(mutex_);

  EngineStats stats() const;

  /// Scenario ids currently quarantined (sorted).
  std::vector<int> quarantined_scenarios() const NP_EXCLUDES(mutex_);

  const topo::Topology& topology() const { return topology_; }
  const EngineConfig& config() const { return config_; }

 private:
  struct Task {
    Request request;
    ReplyFn reply;
    util::Deadline deadline;
    double enqueue_us = 0.0;
  };

  void worker_loop(int worker_index) NP_EXCLUDES(mutex_);
  Reply process(const Task& task, plan::PlanEvaluator& evaluator, Rng& rng);
  Reply process_check(const Task& task, plan::PlanEvaluator& evaluator,
                      Rng& rng);
  void deliver(const Task& task, Reply reply);
  void quarantine(int scenario) NP_EXCLUDES(mutex_);
  std::vector<int> quarantined_snapshot() const NP_EXCLUDES(mutex_);

  const topo::Topology& topology_;
  const EngineConfig config_;

  mutable util::Mutex mutex_;
  util::CondVar work_cv_;
  std::deque<Task> queue_ NP_GUARDED_BY(mutex_);
  bool draining_ NP_GUARDED_BY(mutex_) = false;
  /// EMA of per-query service time (ms), the backlog estimator.
  double ema_service_ms_ NP_GUARDED_BY(mutex_) = 0.0;
  std::set<int> quarantined_ NP_GUARDED_BY(mutex_);

  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::future<void>> workers_;
  std::atomic<bool> drained_{false};

  std::atomic<long> n_queries_{0};
  std::atomic<long> n_ok_{0};
  std::atomic<long> n_degraded_{0};
  std::atomic<long> n_shed_{0};
  std::atomic<long> n_errors_{0};
  std::atomic<long> n_retries_{0};
  std::atomic<long> n_quarantined_{0};
};

}  // namespace np::serve
