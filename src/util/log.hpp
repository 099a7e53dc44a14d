// Minimal leveled logger. Thread-safe: worker threads (rollout
// workers, serve shards) log concurrently, so each line
// is written to stderr under a process-wide mutex and the level
// threshold is atomic. Formatting happens outside the lock.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace np {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are dropped. Defaults to kWarn so
/// library users are not spammed; benches/examples raise it explicitly.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emit one line to stderr with a level tag. Prefer the NP_LOG helpers.
void log_line(LogLevel level, std::string_view message);

namespace detail {
template <class... Args>
void log_fmt(LogLevel level, const Args&... args) {
  if (level < log_level()) return;
  std::ostringstream os;
  (os << ... << args);
  log_line(level, os.str());
}
}  // namespace detail

template <class... Args>
void log_debug(const Args&... args) { detail::log_fmt(LogLevel::kDebug, args...); }
template <class... Args>
void log_info(const Args&... args) { detail::log_fmt(LogLevel::kInfo, args...); }
template <class... Args>
void log_warn(const Args&... args) { detail::log_fmt(LogLevel::kWarn, args...); }
template <class... Args>
void log_error(const Args&... args) { detail::log_fmt(LogLevel::kError, args...); }

}  // namespace np
