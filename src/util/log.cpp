#include "util/log.hpp"

#include <atomic>
#include <cstdio>

#include "util/mutex.hpp"

namespace np {

namespace {
// Relaxed is fine for the level: a racing set_log_level only decides
// whether a concurrent message is dropped, never corrupts anything.
std::atomic<LogLevel> g_level{LogLevel::kWarn};

// Serializes whole lines: worker threads (RolloutWorkers, serving
// engine workers) log concurrently, and a single fprintf is not
// guaranteed atomic with respect to other writers of the same stream.
// (No NP_GUARDED_BY: the guarded resource is the stderr stream, not a
// member the analysis can name.)
util::Mutex g_write_mutex;

const char* tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo:  return "INFO ";
    case LogLevel::kWarn:  return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff:   return "OFF  ";
  }
  return "?????";
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void log_line(LogLevel level, std::string_view message) {
  if (level < log_level()) return;
  util::LockGuard lock(g_write_mutex);
  std::fprintf(stderr, "[np %s] %.*s\n", tag(level),
               static_cast<int>(message.size()), message.data());
  std::fflush(stderr);
}

}  // namespace np
