// Worker watchdog: long-running workers publish heartbeats through the
// flight recorder's per-thread records; a monitor thread flags threads
// whose heartbeat stops advancing.
//
//   void worker_body() {
//     obs::HeartbeatScope hb("hb.rollout_step");
//     for (...) { hb.beat(done); ... }
//   }  // scope exit restores the enclosing heartbeat (if any)
//
// A heartbeat is an *opt-in* liveness contract: only threads with an
// active HeartbeatScope are monitored, so blocking on a queue or a
// condition variable (idle pool workers) never trips the watchdog —
// scopes wrap the sections that are supposed to make progress (rollout
// step loops, simplex iteration loops, serving query workers). Scopes
// nest: the innermost wins, and scope exit re-stamps the outer scope's
// timestamp so it does not inherit the inner section's elapsed time.
//
// On a stall the monitor records a kStall flight-recorder event
// carrying the stuck thread's heartbeat name and progress, logs the
// thread's active span stack to stderr, bumps watchdog.stalls, and —
// when configured — escalates to a non-fatal flight-record dump. The
// run is NOT killed: a stall is a symptom report, and the stalled
// thread may still recover (e.g. an LP solve that eventually returns).
#pragma once

#include "obs/flight.hpp"

namespace np::obs {

/// RAII heartbeat publisher. `name` must outlive the process (string
/// literal). Cost: a few relaxed stores at construction/destruction
/// and per beat().
class HeartbeatScope {
 public:
  explicit HeartbeatScope(const char* name);
  ~HeartbeatScope();
  HeartbeatScope(const HeartbeatScope&) = delete;
  HeartbeatScope& operator=(const HeartbeatScope&) = delete;

  /// Publish progress (monotone per scope by convention; any *change*
  /// re-arms the stall timer). progress < 0 increments the last value.
  void beat(long progress = -1);

 private:
  fr_detail::ThreadRecord* record_;
  const char* prev_name_;
  long prev_progress_;
};

struct WatchdogConfig {
  /// A monitored thread whose heartbeat timestamp is older than this
  /// is stalled. Seconds.
  double stall_seconds = 30.0;
  /// Monitor poll period; <= 0 derives stall_seconds / 4 clamped to
  /// [10ms, 5s].
  double poll_seconds = 0.0;
  /// Escalate each new stall to a non-fatal flight-record dump (needs
  /// an armed path; see set_flight_record_path).
  bool dump_on_stall = false;
};

class Watchdog {
 public:
  static Watchdog& instance();

  /// Start (or restart with a new config) the monitor thread.
  void start(const WatchdogConfig& config);
  /// Stop and join the monitor thread. Safe to call when not running.
  void stop();
  bool running() const;

  /// Stalls flagged since process start (mirrors watchdog.stalls).
  long stalls_flagged() const;

 private:
  Watchdog() = default;
  struct Impl;
  Impl& impl() const;
};

/// NEUROPLAN_WATCHDOG=<stall seconds> starts the watchdog (unset, 0 or
/// negative leaves it off); NEUROPLAN_WATCHDOG_DUMP=1 sets
/// dump_on_stall. Called from obs::configure_from_env().
void configure_watchdog_from_env();

}  // namespace np::obs
