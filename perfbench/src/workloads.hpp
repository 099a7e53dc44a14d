// The benchmark's workloads. Each one generates its inputs from the
// seed before any timing, measures a few fresh set-ups, then repeats a
// job of fixed work for a time budget, calling the library only
// through its public headers. Output checks and digests run after the
// timed phase, outside the timing.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  unsigned seed = 7;
  /// Job time budget of the timed phase. A trace run spends half of it
  /// untraced and half traced.
  double seconds = 10.0;
  /// Chrome-trace destination; non-empty makes this a trace run.
  std::string trace_path;
  /// Small inputs, for the self-test.
  bool tiny = false;
};

/// One timed phase: jobs of fixed work repeated until the budget is
/// spent (at least one job).
struct Phase {
  std::vector<double> job_seconds;
  /// Latency of every public call the jobs made (query, collect,
  /// run_epoch or second_stage), in milliseconds.
  std::vector<double> request_ms;
  double work_units = 0.0;  ///< env steps, queries or plans
  /// Library counter deltas over the phase (obs registry).
  std::map<std::string, double> counters;
};

/// A reply the serve workload read back, for matching replies to the
/// engine's serve.query spans in the trace.
struct ReplyRecord {
  long id = 0;
  double written_us = 0.0;  ///< request written (obs trace timebase)
  double handed_us = 0.0;   ///< reply handed to the session's write hook
  double read_us = 0.0;     ///< reply read back by the client
};

struct RunReport {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failure_reasons;  ///< first few, for the log
  std::vector<double> setup_seconds;
  Phase timed;
  Phase traced;  ///< trace runs only
  std::vector<ReplyRecord> traced_replies;
  std::string digest;
  std::map<std::string, double> inputs;      ///< input sizes
  std::map<std::string, double> properties;  ///< measured input properties
  std::map<std::string, double> layers;      ///< per-layer values computed here
  double peak_rss_mb = 0.0;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown workload name.
RunReport run_workload(const RunOptions& options);

}  // namespace perfbench
