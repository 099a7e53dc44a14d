#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/stopwatch.hpp"

namespace np::serve {

namespace {

// Process-global serve.* instruments, registered the moment the first
// Engine is constructed so the metrics JSONL carries every serving
// counter (including the zero ones — "no sheds" is a result, not a
// missing key).
struct ServeInstruments {
  obs::Counter& queries = obs::counter("serve.queries");
  obs::Counter& ok = obs::counter("serve.ok");
  obs::Counter& degraded = obs::counter("serve.degraded");
  obs::Counter& shed = obs::counter("serve.shed");
  obs::Counter& errors = obs::counter("serve.errors");
  obs::Counter& retries = obs::counter("serve.retries");
  obs::Counter& quarantined = obs::counter("serve.quarantined");
  obs::Gauge& queue_depth = obs::gauge("serve.queue_depth");
  obs::Gauge& workers = obs::gauge("serve.workers");
  // 1us .. ~4s: ping replies to multi-scenario plan checks.
  obs::Histogram& latency_us = obs::histogram(
      "serve.latency_us", obs::exponential_buckets(1.0, 4.0, 12));
};

ServeInstruments& instruments() {
  static ServeInstruments i;
  return i;
}

Reply make_shed(long id, const char* reason) {
  Reply reply;
  reply.status = ReplyStatus::kShed;
  reply.id = id;
  reply.reason = reason;
  return reply;
}

void fill_degraded(Reply& reply, const char* reason) {
  reply.status = ReplyStatus::kDegraded;
  reply.reason = reason;
  reply.feasible = false;
  reply.verdict = "unknown";
}

}  // namespace

Engine::Engine(const topo::Topology& topology, const EngineConfig& config)
    : topology_(topology), config_(config) {
  NP_ASSERT(config.workers >= 1 && config.workers <= 256,
            "Engine: worker count ", config.workers, " out of range");
  NP_ASSERT(config.queue_capacity >= 1,
            "Engine: queue capacity must be positive");
  topology_.validate();
  instruments().workers.set(config_.workers);
  pool_ = std::make_unique<util::ThreadPool>(config_.workers);
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.push_back(pool_->submit([this, i] { worker_loop(i); }));
  }
}

Engine::~Engine() { drain(); }

void Engine::submit(const Request& request, ReplyFn reply) {
  NP_ASSERT(reply != nullptr, "Engine::submit: null reply callback");
  n_queries_.fetch_add(1, std::memory_order_relaxed);
  instruments().queries.add(1);

  Task task;
  task.request = request;
  task.reply = std::move(reply);
  task.enqueue_us = obs::now_us();

  // Ping and info are answered inline: they are O(1), carry no plan,
  // and must keep working even when the solve queue is saturated (a
  // load-shedding daemon that cannot say "I'm alive" is indistinguishable
  // from a dead one).
  if (request.kind == RequestKind::kPing ||
      request.kind == RequestKind::kInfo) {
    Reply out;
    out.status = ReplyStatus::kOk;
    out.id = request.id;
    if (request.kind == RequestKind::kInfo) {
      out.links = topology_.num_links();
      out.scenarios = topology_.num_failures() + 1;
    }
    deliver(task, std::move(out));
    return;
  }

  // The protocol layer already enforces these for socket traffic, but
  // the engine is a public API (tests, bench) and validates its own
  // inputs: a malformed plan is a typed ERROR reply, never a throw into
  // the caller and never a worker crash.
  if (task.request.plan.size() !=
      static_cast<std::size_t>(topology_.num_links())) {
    Reply out;
    out.status = ReplyStatus::kError;
    out.id = request.id;
    out.reason = "bad_plan_size";
    deliver(task, std::move(out));
    return;
  }
  for (int units : task.request.plan) {
    if (units < 0) {
      Reply out;
      out.status = ReplyStatus::kError;
      out.id = request.id;
      out.reason = "bad_plan_units";
      deliver(task, std::move(out));
      return;
    }
  }

  // The deadline clock starts at admission: queue wait spends the
  // budget too, so a query that sat out its whole deadline in the queue
  // degrades immediately instead of doing stale work.
  const double deadline_ms = task.request.deadline_ms > 0.0
                                 ? task.request.deadline_ms
                                 : config_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    task.deadline = util::Deadline::after_seconds(deadline_ms / 1e3);
  }

  const char* shed_reason = nullptr;
  {
    util::LockGuard lock(mutex_);
    if (draining_) {
      shed_reason = "draining";
    } else if (queue_.size() >= static_cast<std::size_t>(config_.queue_capacity)) {
      shed_reason = "queue_full";
    } else if (config_.max_backlog_ms > 0.0 && ema_service_ms_ > 0.0 &&
               static_cast<double>(queue_.size() + 1) * ema_service_ms_ >
                   config_.max_backlog_ms) {
      shed_reason = "backlog";
    } else {
      queue_.push_back(std::move(task));
      instruments().queue_depth.set(static_cast<double>(queue_.size()));
    }
  }
  if (shed_reason != nullptr) {
    deliver(task, make_shed(request.id, shed_reason));
    return;
  }
  work_cv_.notify_one();
}

void Engine::worker_loop(int worker_index) {
  NP_ASSERT(worker_index >= 0 && worker_index < config_.workers,
            "Engine::worker_loop: shard ", worker_index, " out of range");
  // One resident evaluator per shard: scenario models built on first
  // touch, patched and warm-started for every later query.
  plan::PlanEvaluator evaluator(topology_);
  if (config_.scenario_budget_s > 0.0) {
    evaluator.set_scenario_budget(config_.scenario_budget_s);
  }
  Rng rng(static_cast<std::uint64_t>(config_.seed) +
          1000003ULL * static_cast<std::uint64_t>(worker_index));
  for (;;) {
    Task task;
    {
      util::LockGuard lock(mutex_);
      while (queue_.empty() && !draining_) work_cv_.wait(mutex_);
      if (queue_.empty()) return;  // draining with an empty queue
      task = std::move(queue_.front());
      queue_.pop_front();
      instruments().queue_depth.set(static_cast<double>(queue_.size()));
    }
    Stopwatch service;
    Reply reply;
    {
      // Heartbeat covers active processing only — a worker blocked on
      // an empty queue is idle, not stalled. A query wedged inside the
      // solve (or a stall fault at serve.worker) stops beating and the
      // watchdog flags it.
      NP_SPAN("serve.query");
      obs::HeartbeatScope hb("hb.serve_worker");
      hb.beat(task.request.id);
      reply = process(task, evaluator, rng);
    }
    reply.latency_us = obs::now_us() - task.enqueue_us;
    instruments().latency_us.observe(reply.latency_us);
    {
      util::LockGuard lock(mutex_);
      // EMA of per-query service time feeds the backlog estimator.
      const double ms = service.millis();
      ema_service_ms_ = ema_service_ms_ == 0.0 ? ms
                                               : 0.8 * ema_service_ms_ + 0.2 * ms;
    }
    deliver(task, std::move(reply));
  }
}

Reply Engine::process(const Task& task, plan::PlanEvaluator& evaluator,
                      Rng& rng) {
  NP_ASSERT(task.request.kind == RequestKind::kCheck ||
                task.request.kind == RequestKind::kCost,
            "Engine::process: kind ", to_string(task.request.kind),
            " is answered at admission");
  if (task.request.kind == RequestKind::kCost) {
    Reply reply;
    reply.status = ReplyStatus::kOk;
    reply.id = task.request.id;
    reply.cost = topology_.plan_cost(task.request.plan);
    reply.verdict = "none";  // cost quotes carry no feasibility claim
    return reply;
  }
  return process_check(task, evaluator, rng);
}

Reply Engine::process_check(const Task& task, plan::PlanEvaluator& evaluator,
                            Rng& rng) {
  Reply reply;
  reply.id = task.request.id;

  // Wire plans are ADDED units; the evaluator checks TOTAL units.
  NP_ASSERT(task.request.plan.size() == static_cast<std::size_t>(topology_.num_links()));
  const std::vector<int> total = topology_.total_units(task.request.plan);

  // Degradation ladder, attempt 0 warm / attempt 1 cold-retried:
  // definitive verdict -> OK; transient failure -> one jittered-backoff
  // retry; still failing -> DEGRADED (and quarantine the scenario that
  // failed twice); expired deadline anywhere -> DEGRADED(kUnknown).
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (attempt > 0) {
      ++reply.retries;
      n_retries_.fetch_add(1, std::memory_order_relaxed);
      instruments().retries.add(1);
      // Never back off past the deadline (+inf when unlimited).
      const double backoff_ms =
          std::min(config_.retry_backoff_ms * (0.5 + rng.uniform()),
                   task.deadline.remaining_seconds() * 1e3);
      if (backoff_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
      }
    }
    if (task.deadline.expired()) {
      obs::fr_record(obs::FrEventKind::kDeadlineHit, "serve.query",
                     task.request.id);
      fill_degraded(reply, "deadline");
      return reply;
    }
    evaluator.set_check_deadline(task.deadline);
    evaluator.set_quarantined(quarantined_snapshot());
    try {
      NP_FAULT_POINT("serve.worker");
      const plan::CheckResult result = evaluator.check(total);
      reply.scenarios_checked = result.scenarios_checked;
      reply.quarantined = result.quarantined_skipped;
      if (result.verdict == plan::Verdict::kUnknown) {
        if (attempt == 0 && result.deadline_hits > 0 &&
            !task.deadline.expired()) {
          // A warm solve burned its whole scenario budget — the warm
          // basis can be pathological for this patch. Retry that
          // scenario cold before giving up on the query.
          if (result.violated_scenario >= 0) {
            evaluator.invalidate_scenario(result.violated_scenario);
          }
          continue;
        }
        obs::fr_record(obs::FrEventKind::kVerdictDegraded, "serve.query",
                       task.request.id, result.quarantined_skipped);
        fill_degraded(reply, result.quarantined_skipped > 0 ? "quarantined"
                                                            : "deadline");
        return reply;
      }
      reply.status = ReplyStatus::kOk;
      reply.feasible = result.feasible;
      reply.verdict = plan::to_string(result.verdict);
      reply.cost = topology_.plan_cost(task.request.plan);
      reply.unserved_gbps = result.unserved_gbps;
      return reply;
    } catch (const plan::ScenarioError& e) {
      // The evaluator already dropped the scenario's cached model, so
      // the retry is cold by construction. A second failure means the
      // scenario is poisoned, not the basis: quarantine it and degrade.
      if (attempt == 0) continue;
      quarantine(e.scenario());
      fill_degraded(reply, "quarantined");
      reply.quarantined = static_cast<int>(quarantined_snapshot().size());
      return reply;
    } catch (const std::exception&) {
      // Faults injected before the check starts (serve.worker itself)
      // or anything else unexpected: same retry-once-then-degrade
      // policy. The worker never dies on a query.
      if (attempt == 0) continue;
      fill_degraded(reply, "fault");
      return reply;
    }
  }
  // Unreachable: every second attempt returns above.
  fill_degraded(reply, "fault");
  return reply;
}

void Engine::deliver(const Task& task, Reply reply) {
  NP_ASSERT(task.reply != nullptr, "Engine::deliver: null reply sink");
  switch (reply.status) {
    case ReplyStatus::kOk:
      n_ok_.fetch_add(1, std::memory_order_relaxed);
      instruments().ok.add(1);
      break;
    case ReplyStatus::kDegraded:
      n_degraded_.fetch_add(1, std::memory_order_relaxed);
      instruments().degraded.add(1);
      break;
    case ReplyStatus::kShed:
      n_shed_.fetch_add(1, std::memory_order_relaxed);
      instruments().shed.add(1);
      break;
    case ReplyStatus::kError:
      n_errors_.fetch_add(1, std::memory_order_relaxed);
      instruments().errors.add(1);
      break;
  }
  try {
    task.reply(reply);
  } catch (const std::exception&) {
    // A reply sink that throws (broken pipe wrapper, test harness bug)
    // must not take the worker down with it.
    n_errors_.fetch_add(1, std::memory_order_relaxed);
    instruments().errors.add(1);
  }
}

void Engine::quarantine(int scenario) {
  NP_ASSERT(scenario >= 0 && scenario <= topology_.num_failures(),
            "Engine::quarantine: scenario ", scenario, " out of range");
  bool inserted = false;
  {
    util::LockGuard lock(mutex_);
    inserted = quarantined_.insert(scenario).second;
  }
  if (inserted) {
    n_quarantined_.fetch_add(1, std::memory_order_relaxed);
    instruments().quarantined.add(1);
  }
}

std::vector<int> Engine::quarantined_snapshot() const {
  util::LockGuard lock(mutex_);
  return {quarantined_.begin(), quarantined_.end()};
}

std::vector<int> Engine::quarantined_scenarios() const {
  return quarantined_snapshot();
}

void Engine::drain() {
  {
    util::LockGuard lock(mutex_);
    draining_ = true;
  }
  work_cv_.notify_all();
  if (!drained_.exchange(true)) {
    for (std::future<void>& worker : workers_) worker.get();
    workers_.clear();
    pool_.reset();
  }
  // Postcondition: workers only exit on (draining && queue empty), so
  // once they are joined every accepted query has been answered.
  util::LockGuard lock(mutex_);
  NP_ASSERT(queue_.empty(), "Engine::drain: ", queue_.size(),
            " queries left unanswered");
}

bool Engine::draining() const {
  util::LockGuard lock(mutex_);
  return draining_;
}

EngineStats Engine::stats() const {
  return EngineStats{n_queries_.load(std::memory_order_relaxed),
                     n_ok_.load(std::memory_order_relaxed),
                     n_degraded_.load(std::memory_order_relaxed),
                     n_shed_.load(std::memory_order_relaxed),
                     n_errors_.load(std::memory_order_relaxed),
                     n_retries_.load(std::memory_order_relaxed),
                     n_quarantined_.load(std::memory_order_relaxed)};
}

}  // namespace np::serve
