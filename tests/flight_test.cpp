// Flight-recorder tests: ring recording and wrap-around, span-stack
// maintenance, dump well-formedness (parsed with the same tiny JSON
// parser np_postmortem uses, so the report format and the tooling are
// tested against each other), trigger plumbing (contract violation,
// exit dump, one-report-per-process latch), and — the concurrency
// point — snapshot_json and full dumps racing live writers without
// torn JSON or deadlock.
//
// All suites are named Flight* so the tsan ctest preset picks them up.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "np_json.hpp"
#include "obs/obs.hpp"
#include "temp_path.hpp"

namespace {

using namespace np;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

np_json::Value parse_report(const std::string& path) {
  const std::string text = read_file(path);
  EXPECT_FALSE(text.empty()) << "no report at " << path;
  return np_json::parse(text);
}

/// The calling thread's tail from a parsed report (tid-matched), or
/// nullptr when the thread never recorded.
const np_json::Value* find_thread(const np_json::Value& report, int tid) {
  const np_json::Value* threads = report.find("threads");
  if (threads == nullptr) return nullptr;
  for (const np_json::Value& t : threads->array) {
    if (static_cast<int>(t.num_or("tid", -1)) == tid) return &t;
  }
  return nullptr;
}

TEST(FlightRecorder, RecordsEventsAndWrapsRing) {
  ASSERT_TRUE(obs::flight_recorder_enabled());
  const std::uint64_t before = obs::fr_total_events();
  const std::size_t n = obs::fr_detail::ThreadRecord::kRingCapacity + 37;
  for (std::size_t i = 0; i < n; ++i) {
    obs::fr_record(obs::FrEventKind::kAnnotation, "flighttest.wrap",
                   static_cast<long>(i));
  }
  EXPECT_EQ(obs::fr_total_events(), before + n);
  // The ring holds only the newest kRingCapacity events; the thread's
  // head keeps the true total.
  obs::fr_detail::ThreadRecord* r = obs::fr_detail::thread_record();
  ASSERT_NE(r, nullptr);
  EXPECT_GE(r->head.load(), n);
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  obs::set_flight_recorder_enabled(false);
  const std::uint64_t before = obs::fr_total_events();
  obs::fr_record(obs::FrEventKind::kAnnotation, "flighttest.disabled");
  EXPECT_EQ(obs::fr_total_events(), before);
  obs::set_flight_recorder_enabled(true);
  obs::fr_record(obs::FrEventKind::kAnnotation, "flighttest.enabled");
  EXPECT_EQ(obs::fr_total_events(), before + 1);
}

TEST(FlightRecorder, SpanStackTracksNesting) {
  obs::fr_detail::ThreadRecord* r = obs::fr_detail::thread_record();
  ASSERT_NE(r, nullptr);
  const int base = r->span_depth.load();
  {
    obs::fr_detail::fr_span_begin("flighttest.outer");
    EXPECT_EQ(r->span_depth.load(), base + 1);
    EXPECT_STREQ(r->span_stack[base].load(), "flighttest.outer");
    obs::fr_detail::fr_span_begin("flighttest.inner");
    EXPECT_EQ(r->span_depth.load(), base + 2);
    obs::fr_detail::fr_span_end();
    obs::fr_detail::fr_span_end();
  }
  EXPECT_EQ(r->span_depth.load(), base);
}

TEST(FlightRecorder, ExplicitDumpIsWellFormedAndCarriesState) {
  const std::string path = np::test::temp_path("flight_explicit.npcrash");
  obs::counter("flighttest.dump_counter").add(7);
  obs::fr_detail::fr_span_begin("flighttest.active_span");
  obs::fr_record(obs::FrEventKind::kAnnotation, "flighttest.marker", 41, 42);
  obs::set_run_annotation("flight_test explicit dump");
  ASSERT_TRUE(obs::dump_flight_record("test", "explicit", "detail text",
                                      /*fatal=*/false, path.c_str()));
  obs::fr_detail::fr_span_end();

  const np_json::Value report = parse_report(path);
  EXPECT_EQ(report.num_or("npcrash_version", 0), 1);
  const np_json::Value* trigger = report.find("trigger");
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->str_or("kind", ""), "test");
  EXPECT_EQ(trigger->str_or("name", ""), "explicit");
  EXPECT_EQ(trigger->str_or("detail", ""), "detail text");
  EXPECT_EQ(report.str_or("annotation", ""), "flight_test explicit dump");

  // Metrics snapshot rode along.
  const np_json::Value* metrics = report.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const np_json::Value* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->num_or("flighttest.dump_counter", 0), 7);

  // This thread's tail holds the marker event and the live span stack.
  obs::fr_detail::ThreadRecord* r = obs::fr_detail::thread_record();
  const np_json::Value* mine = find_thread(report, r->tid);
  ASSERT_NE(mine, nullptr);
  const np_json::Value* stack = mine->find("span_stack");
  ASSERT_NE(stack, nullptr);
  bool span_seen = false;
  for (const np_json::Value& s : stack->array) {
    span_seen = span_seen || s.string == "flighttest.active_span";
  }
  EXPECT_TRUE(span_seen);
  bool marker_seen = false;
  for (const np_json::Value& e : mine->find("events")->array) {
    if (e.str_or("name", "") == "flighttest.marker" &&
        e.num_or("a", 0) == 41 && e.num_or("b", 0) == 42) {
      marker_seen = true;
      EXPECT_EQ(e.str_or("kind", ""), "annotation");
    }
  }
  EXPECT_TRUE(marker_seen);
  std::remove(path.c_str());
}

TEST(FlightRecorder, ContractViolationHookDumpsFatalReport) {
  const std::string path = np::test::temp_path("flight_contract.npcrash");
  obs::set_flight_record_path(path.c_str());
  ASSERT_TRUE(obs::flight_record_armed());
  EXPECT_FALSE(obs::flight_record_dumped());
  obs::fr_on_contract_violation("flight_test.cpp", 123, "x > 0");
  EXPECT_TRUE(obs::flight_record_dumped());

  const np_json::Value report = parse_report(path);
  const np_json::Value* trigger = report.find("trigger");
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->str_or("kind", ""), "contract_violation");
  EXPECT_EQ(trigger->str_or("name", ""), "flight_test.cpp");
  EXPECT_EQ(trigger->str_or("detail", ""), "x > 0");

  // One report per process per class: a second fatal trigger must not
  // overwrite the first.
  EXPECT_FALSE(obs::dump_flight_record("contract_violation", "other.cpp",
                                       "y > 0", /*fatal=*/true));
  obs::set_flight_record_path(nullptr);  // disarm for later tests
  std::remove(path.c_str());
}

TEST(FlightRecorder, ExitDumpHonorsLatchAndRearm) {
  const std::string path = np::test::temp_path("flight_exit.npcrash");
  obs::set_flight_record_path(path.c_str());
  obs::fr_dump_at_exit();
  EXPECT_TRUE(obs::flight_record_dumped());
  const np_json::Value report = parse_report(path);
  EXPECT_EQ(report.find("trigger")->str_or("kind", ""), "exit");
  // Re-arming resets the latch (tests and long-lived embedders re-arm
  // between runs); a second exit dump then succeeds.
  std::remove(path.c_str());
  obs::set_flight_record_path(path.c_str());
  EXPECT_FALSE(obs::flight_record_dumped());
  obs::fr_dump_at_exit();
  EXPECT_TRUE(obs::flight_record_dumped());
  obs::set_flight_record_path(nullptr);
  std::remove(path.c_str());
}

// The satellite concurrency test: writer threads hammer the recorder
// and the metrics registry while the main thread takes registry
// snapshots and full flight-record dumps. Every artifact must stay
// parseable (no torn JSON) and the test must finish (no deadlock
// between the dump's try_lock path and the registration mutex).
TEST(FlightRecorder, SnapshotAndDumpUnderConcurrentWriters) {
  const int kWriters = 4;
  const int kDumps = 6;
  std::atomic<bool> stop{false};
  obs::Counter& busy = obs::counter("flighttest.busy");
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&stop, &busy, w] {
      while (!stop.load(std::memory_order_relaxed)) {
        obs::fr_detail::fr_span_begin("flighttest.writer");
        obs::fr_record(obs::FrEventKind::kAnnotation, "flighttest.noise", w);
        busy.add(1);
        // Churn the registry's name map too: registration takes the
        // mutex the dump path must only ever try_lock.
        obs::counter("flighttest.churn." + std::to_string(w)).add(1);
        obs::fr_detail::fr_span_end();
      }
    });
  }

  // Register this thread's record before the first dump: writer
  // threads may not have recorded yet (ctest runs each case in its own
  // process), and a dump only lists threads that have.
  obs::fr_record(obs::FrEventKind::kAnnotation, "flighttest.race_main");

  for (int i = 0; i < kDumps; ++i) {
    const std::string snapshot = obs::Registry::instance().snapshot_json();
    EXPECT_NO_THROW(np_json::parse(snapshot)) << "torn registry snapshot";
    const std::string path = np::test::temp_path("flight_race_" +
                                                  std::to_string(i) + ".npcrash");
    ASSERT_TRUE(obs::dump_flight_record("test", "race", "", /*fatal=*/false,
                                        path.c_str()));
    const np_json::Value report = parse_report(path);
    EXPECT_GE(report.find("threads")->array.size(), 1u);
    std::remove(path.c_str());
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
}

// emit_metrics_record's final-record path under flight-recorder load:
// shutdown() must append exactly one "final" record even when a dump
// already happened, and later emits are no-ops on the closed sink.
TEST(FlightRecorder, FinalMetricsRecordCoexistsWithDump) {
  const std::string metrics_path = np::test::temp_path("flight_metrics.jsonl");
  const std::string report_path = np::test::temp_path("flight_final.npcrash");
  obs::set_metrics_out(metrics_path);
  obs::counter("flighttest.final").add(3);
  obs::emit_metrics_record("train_epoch", 1);
  obs::set_flight_record_path(report_path.c_str());
  obs::shutdown();  // watchdog stop + final record + exit dump
  EXPECT_FALSE(obs::metrics_out_open());
  EXPECT_TRUE(obs::flight_record_dumped());
  obs::emit_metrics_record("train_epoch", 2);  // sink closed: must no-op

  std::ifstream in(metrics_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"record\":\"train_epoch\",\"index\":1"),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"record\":\"final\",\"index\":-1"),
            std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_NO_THROW(np_json::parse(line)) << "torn metrics record";
  }
  const np_json::Value report = parse_report(report_path);
  EXPECT_EQ(report.find("trigger")->str_or("kind", ""), "exit");
  obs::set_flight_record_path(nullptr);
  std::remove(metrics_path.c_str());
  std::remove(report_path.c_str());
}

}  // namespace
