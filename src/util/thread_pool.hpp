// Fixed-size worker-thread pool shared by the parallel subsystems
// (rl::RolloutWorkers acting loops, serve::Engine query workers).
// Tasks are plain std::function<void()>; submit() hands back a future
// whose get() rethrows the task's exception.
//
// A pool of 0 workers is valid and runs everything inline on the
// calling thread — callers size the pool with "participants - 1" and
// contribute the calling thread via run_all(), so a degenerate pool
// costs nothing (no threads, no locks on the hot path).
#pragma once

#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.hpp"

namespace np::util {

class ThreadPool {
 public:
  /// Spawn `workers` threads. 0 is allowed (inline execution); < 0 throws.
  explicit ThreadPool(int workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task. With 0 workers the task runs inline before
  /// returning (the future is already ready).
  std::future<void> submit(std::function<void()> task) NP_EXCLUDES(mutex_);

  /// Run every task and wait for all of them: task 0 executes on the
  /// calling thread, the rest on the pool. Rethrows the first (lowest
  /// task index among caller-observed) exception after all tasks have
  /// finished, so no task is left running when this returns.
  void run_all(std::vector<std::function<void()>> tasks);

  int workers() const { return static_cast<int>(threads_.size()); }

  /// std::thread::hardware_concurrency with a floor of 1.
  static int hardware_threads();

 private:
  /// Queue entry: the task plus its enqueue timestamp (obs::now_us
  /// timebase) so the pop side can record time-in-queue.
  struct QueuedTask {
    std::packaged_task<void()> task;
    double enqueue_us = 0.0;
  };

  void worker_loop() NP_EXCLUDES(mutex_);

  std::vector<std::thread> threads_;
  Mutex mutex_;
  std::queue<QueuedTask> queue_ NP_GUARDED_BY(mutex_);
  CondVar ready_;
  bool stopping_ NP_GUARDED_BY(mutex_) = false;
};

}  // namespace np::util
