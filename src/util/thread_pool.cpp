#include "util/thread_pool.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace np::util {

namespace {

// Pool telemetry: how many tasks flow through, how deep the queue
// gets, and how long tasks wait before a worker picks them up — the
// "are workers starving or drowning" signals. All lock-free updates on
// instruments cached once per process.
obs::Counter& tasks_counter() {
  static obs::Counter& c = obs::counter("pool.tasks");
  return c;
}

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::gauge("pool.queue_depth");
  return g;
}

obs::Histogram& queue_latency_histogram() {
  // 1us .. ~4s: pool tasks are scenario groups / rollout workers'
  // acting loops, so waits span from "popped immediately" to "behind a
  // whole collect".
  static obs::Histogram& h =
      obs::histogram("pool.task_queue_us", obs::exponential_buckets(1.0, 4.0, 12));
  return h;
}

}  // namespace

ThreadPool::ThreadPool(int workers) {
  if (workers < 0) throw std::invalid_argument("ThreadPool: negative worker count");
  threads_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    QueuedTask item;
    {
      LockGuard lock(mutex_);
      while (!stopping_ && queue_.empty()) ready_.wait(mutex_);
      if (queue_.empty()) return;  // stopping_ with a drained queue
      item = std::move(queue_.front());
      queue_.pop();
    }
    queue_depth_gauge().add(-1.0);
    queue_latency_histogram().observe(obs::now_us() - item.enqueue_us);
    item.task();  // packaged_task stores any exception in the future
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> wrapped(std::move(task));
  std::future<void> result = wrapped.get_future();
  tasks_counter().add(1);
  if (threads_.empty()) {
    wrapped();  // inline execution never queues: no depth/latency signal
    return result;
  }
  {
    LockGuard lock(mutex_);
    if (stopping_) throw std::logic_error("ThreadPool::submit: pool is stopping");
    queue_.push(QueuedTask{std::move(wrapped), obs::now_us()});
  }
  queue_depth_gauge().add(1.0);
  ready_.notify_one();
  return result;
}

void ThreadPool::run_all(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (threads_.empty()) {
    tasks_counter().add(static_cast<long>(tasks.size()));
    for (auto& task : tasks) task();  // inline; first exception propagates as-is
    return;
  }
  std::vector<std::future<void>> pending;
  pending.reserve(tasks.size() - 1);
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    pending.push_back(submit(std::move(tasks[i])));
  }
  tasks_counter().add(1);  // tasks[0] runs on the caller, bypassing submit()
  std::exception_ptr first;
  try {
    tasks[0]();
  } catch (...) {
    first = std::current_exception();
  }
  for (std::future<void>& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace np::util
