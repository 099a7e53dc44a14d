// np_serve — fault-hardened planning-as-a-service daemon.
//
//   np_serve --topo <file> (--port <n> | --stdio) [options]
//
// Loads the topology once, keeps warm scenario bases resident per
// worker shard, and answers plan feasibility/cost queries over the np1
// length-prefixed protocol (serve/protocol.hpp). Robustness properties:
//
//   * malformed frames cost one typed ERROR reply, never a dropped
//     connection, never a crash; an unframeable stream (corrupt length
//     prefix) gets one ERROR reply and a hang-up;
//   * admission control sheds (SHED reply) once the queue or the
//     estimated backlog latency is over the limit — overload degrades
//     throughput, not correctness;
//   * per-query deadlines propagate into the LP solver; expired budgets
//     come back DEGRADED (verdict unknown), not late;
//   * transient failures retry once on a cold basis with jittered
//     backoff, repeat offenders are quarantined per scenario
//     (serve.quarantined) and the daemon keeps serving;
//   * SIGTERM/SIGINT drain gracefully: stop accepting, finish or shed
//     in-flight queries, emit the final metrics record, exit 0.
//
// Options:
//   --topo <file>             topology to serve (required)
//   --port <n>                listen on 127.0.0.1:<n> (0 = ephemeral;
//                             the bound port is printed on stdout)
//   --stdio                   serve one session on stdin/stdout (tests)
//   --workers <n>             worker shards, each with a resident
//                             stateful evaluator (default 1)
//   --queue-capacity <n>      admission queue bound (default 128)
//   --deadline-ms <x>         default per-query deadline when the
//                             request carries none (0 = unlimited)
//   --max-backlog-ms <x>      shed when queue depth x EMA service time
//                             exceeds this (0 = disabled)
//   --scenario-budget-ms <x>  per-scenario solver budget (0 = unlimited)
//   --watchdog-stall-s <x>    flag a worker as wedged after this many
//                             seconds without a heartbeat (default 30,
//                             0 = watchdog off)
//   --metrics-out <file.jsonl>      metrics registry snapshots
//   --trace-out <file.json>         Chrome trace of NP_SPAN scopes
//   --flight-record-out <file.npcrash>  flight-recorder dump at exit
//   --help                    this text, exit 0
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "serve/engine.hpp"
#include "serve/session.hpp"
#include "topo/serialize.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/mutex.hpp"

namespace {

using namespace np;

int usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: np_serve --topo <file> (--port <n> | --stdio) [options]\n"
      "  --workers <n>             worker shards (default 1)\n"
      "  --queue-capacity <n>      admission queue bound (default 128)\n"
      "  --deadline-ms <x>         default per-query deadline (0 = unlimited)\n"
      "  --max-backlog-ms <x>      backlog shedding limit (0 = disabled)\n"
      "  --scenario-budget-ms <x>  per-scenario solver budget (0 = unlimited)\n"
      "  --watchdog-stall-s <x>    worker stall threshold (default 30, 0 = off)\n"
      "global flags: [--metrics-out <file.jsonl>] [--trace-out <file.json>]\n"
      "              [--flight-record-out <file.npcrash>]\n"
      "protocol (np1, length-prefixed frames):\n"
      "  np1 check id=<n> plan=<u0,u1,...> [deadline_ms=<x>]\n"
      "  np1 cost  id=<n> plan=<u0,u1,...>\n"
      "  np1 info  id=<n>      np1 ping id=<n>\n");
  return out == stdout ? 0 : 2;
}

/// Strict decimal-integer argument parsing: the whole token must be a
/// number in [min_value, max_value]; anything else is a one-line error
/// and exit 2, never atoi's silent 0.
long parse_long_arg(const char* what, const char* text, long min_value,
                    long max_value) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    throw std::runtime_error(std::string(what) + ": expected an integer, got '" +
                             text + "'");
  }
  if (value < min_value || value > max_value) {
    throw std::runtime_error(std::string(what) + ": value " + text +
                             " out of range [" + std::to_string(min_value) +
                             ", " + std::to_string(max_value) + "]");
  }
  return value;
}

double parse_double_arg(const char* what, const char* text, double min_value,
                        double max_value) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) {
    throw std::runtime_error(std::string(what) + ": expected a number, got '" +
                             text + "'");
  }
  if (!(value >= min_value && value <= max_value)) {  // rejects NaN too
    throw std::runtime_error(std::string(what) + ": value " + text +
                             " out of range");
  }
  return value;
}

/// One live connection's write side, shared between the reader thread
/// and engine worker callbacks; `closed` makes teardown idempotent and
/// keeps late replies off a recycled fd number.
struct ConnState {
  util::Mutex mutex;
  int fd NP_GUARDED_BY(mutex) = -1;
  bool closed NP_GUARDED_BY(mutex) = false;
};

void write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone: the reply is undeliverable, drop it
    off += static_cast<std::size_t>(n);
  }
}

volatile std::sig_atomic_t g_stop = 0;
int g_listen_fd = -1;

void handle_stop_signal(int) {
  g_stop = 1;
  // close() is async-signal-safe; it kicks accept() out of its block.
  if (g_listen_fd >= 0) ::close(g_listen_fd);
}

void install_stop_handlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocking accept must wake up
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

void serve_connection(serve::Engine& engine, std::shared_ptr<ConnState> state) {
  serve::Session session(engine, [state](const std::string& framed) {
    util::LockGuard lock(state->mutex);
    if (state->closed) return;
    write_all(state->fd, framed);
  });
  char buffer[4096];
  for (;;) {
    int fd;
    {
      util::LockGuard lock(state->mutex);
      if (state->closed) break;
      fd = state->fd;
    }
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;  // EOF, error, or drain's shutdown()
    session.on_bytes(buffer, static_cast<std::size_t>(n));
    if (session.dead()) break;  // unframeable stream: error sent, hang up
  }
  util::LockGuard lock(state->mutex);
  if (!state->closed) {
    state->closed = true;
    ::close(state->fd);
  }
}

int run_stdio(serve::Engine& engine) {
  // Single session over stdin/stdout; frames on stdout are serialized
  // by the mutex because engine workers reply concurrently.
  struct StdioOut {
    util::Mutex mutex;
  };
  auto out = std::make_shared<StdioOut>();
  serve::Session session(engine, [out](const std::string& framed) {
    util::LockGuard lock(out->mutex);
    std::fwrite(framed.data(), 1, framed.size(), stdout);
    std::fflush(stdout);
  });
  char buffer[4096];
  while (!g_stop) {
    const ssize_t n = ::read(STDIN_FILENO, buffer, sizeof buffer);
    if (n <= 0) break;
    session.on_bytes(buffer, static_cast<std::size_t>(n));
    if (session.dead()) break;
  }
  engine.drain();
  return 0;
}

int run_server(serve::Engine& engine, long port) {
  static obs::Counter& connections = obs::counter("serve.connections");
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::fprintf(stderr, "np_serve: socket: %s\n", std::strerror(errno));
    return 1;
  }
  const int reuse = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd, 64) < 0) {
    std::fprintf(stderr, "np_serve: bind/listen 127.0.0.1:%ld: %s\n", port,
                 std::strerror(errno));
    ::close(listen_fd);
    return 1;
  }
  socklen_t addr_len = sizeof addr;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  g_listen_fd = listen_fd;
  std::printf("np_serve: listening on 127.0.0.1:%d\n", ntohs(addr.sin_port));
  std::fflush(stdout);

  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<ConnState>> states;
  while (!g_stop) {
    try {
      // Chaos site: an injected accept fault must cost one backoff
      // beat, not the daemon.
      NP_FAULT_POINT("serve.accept");
    } catch (const std::exception& e) {
      log_warn(std::string("np_serve: accept fault: ") + e.what());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (g_stop) break;
      if (errno == EINTR) continue;
      std::fprintf(stderr, "np_serve: accept: %s\n", std::strerror(errno));
      break;
    }
    connections.add(1);
    auto state = std::make_shared<ConnState>();
    {
      util::LockGuard lock(state->mutex);
      state->fd = fd;
    }
    states.push_back(state);
    threads.emplace_back(
        [&engine, state] { serve_connection(engine, state); });
  }

  // Graceful drain: the listener is already closed (stop handler);
  // finish or shed every queued query, then unblock and join the
  // connection readers so their last replies flush before exit.
  engine.drain();
  for (const auto& state : states) {
    util::LockGuard lock(state->mutex);
    if (!state->closed) ::shutdown(state->fd, SHUT_RDWR);
  }
  for (std::thread& thread : threads) thread.join();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  obs::configure_from_env();
  util::FaultInjector::instance().configure_from_env();
  {
    std::string cmdline;
    for (int i = 0; i < argc; ++i) {
      if (i > 0) cmdline += ' ';
      cmdline += argv[i];
    }
    obs::set_run_annotation(cmdline.c_str());
  }
  int rc = 2;
  try {
    std::string topo_path;
    long port = -1;
    bool stdio = false;
    bool have_port = false;
    double watchdog_stall_s = 30.0;
    serve::EngineConfig config;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw std::runtime_error(arg + ": missing value");
        }
        return argv[++i];
      };
      if (arg == "--help") return usage(stdout);
      if (arg == "--stdio") {
        stdio = true;
      } else if (arg == "--topo") {
        topo_path = value();
      } else if (arg == "--port") {
        port = parse_long_arg("--port", value(), 0, 65535);
        have_port = true;
      } else if (arg == "--workers") {
        config.workers =
            static_cast<int>(parse_long_arg("--workers", value(), 1, 256));
      } else if (arg == "--queue-capacity") {
        config.queue_capacity = static_cast<int>(
            parse_long_arg("--queue-capacity", value(), 1, 1000000));
      } else if (arg == "--deadline-ms") {
        config.default_deadline_ms =
            parse_double_arg("--deadline-ms", value(), 0.0, 1e9);
      } else if (arg == "--max-backlog-ms") {
        config.max_backlog_ms =
            parse_double_arg("--max-backlog-ms", value(), 0.0, 1e9);
      } else if (arg == "--scenario-budget-ms") {
        config.scenario_budget_s =
            parse_double_arg("--scenario-budget-ms", value(), 0.0, 1e9) / 1e3;
      } else if (arg == "--watchdog-stall-s") {
        watchdog_stall_s =
            parse_double_arg("--watchdog-stall-s", value(), 0.0, 1e6);
      } else if (arg == "--metrics-out") {
        obs::set_metrics_out(value());
      } else if (arg == "--trace-out") {
        obs::set_trace_out(value());
      } else if (arg == "--flight-record-out") {
        obs::set_flight_record_path(value());
      } else {
        std::fprintf(stderr, "np_serve: unknown flag '%s'\n", arg.c_str());
        return usage(stderr);
      }
    }
    if (topo_path.empty() || (stdio == have_port)) return usage(stderr);
    obs::install_crash_handlers();
    install_stop_handlers();

    const topo::Topology topology = topo::load_file(topo_path);
    if (watchdog_stall_s > 0.0) {
      obs::WatchdogConfig watchdog;
      watchdog.stall_seconds = watchdog_stall_s;
      watchdog.dump_on_stall = true;
      obs::Watchdog::instance().start(watchdog);
    }
    serve::Engine engine(topology, config);
    rc = stdio ? run_stdio(engine) : run_server(engine, port);
    engine.drain();
    obs::emit_metrics_record("serve_drain", 0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    obs::dump_flight_record("unhandled_exception", "main", e.what(),
                            /*fatal=*/true);
    rc = 1;
  }
  obs::shutdown();  // write the trace file + final metrics record
  return rc;
}
