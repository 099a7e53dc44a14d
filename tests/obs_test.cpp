// Tests for the observability layer (src/obs): registry concurrency,
// snapshot golden, Chrome-trace schema, and the JSONL metrics sink.
//
// All suites are named Obs* so the tsan ctest preset picks them up —
// the concurrency tests are the point of that run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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

TEST(ObsCounter, ConcurrentAddsAreExact) {
  obs::Registry registry;  // private instance: no global-state bleed
  obs::Counter& c = registry.counter("test.adds");
  constexpr int kThreads = 8;
  constexpr long kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (long i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsGauge, SetAddAndConcurrentAddsAreExact) {
  obs::Registry registry;
  obs::Gauge& g = registry.gauge("test.gauge");
  g.set(2.0);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      // Integer-valued deltas: the CAS-add total is exact in doubles.
      for (int i = 0; i < kPerThread; ++i) g.add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kPerThread));
}

TEST(ObsHistogram, ConcurrentObservesHaveExactTotals) {
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("test.hist", {1.0, 2.0, 4.0, 8.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      // Integer-valued observations keep the double sum exact.
      for (int i = 0; i < kPerThread; ++i) h.observe(i % 10);
    });
  }
  for (auto& t : threads) t.join();
  const long total = kThreads * kPerThread;
  EXPECT_EQ(h.count(), total);
  // sum of 0..9 repeated kPerThread/10 times per thread
  EXPECT_DOUBLE_EQ(h.sum(), kThreads * (kPerThread / 10) * 45.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
  long in_buckets = 0;
  for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
    in_buckets += h.bucket_count(i);
  }
  EXPECT_EQ(in_buckets, total);
  // x <= 1 -> bucket 0; observations 0 and 1 land there.
  EXPECT_EQ(h.bucket_count(0), kThreads * 2 * (kPerThread / 10));
  // 8 < x -> overflow bucket; only observation 9.
  EXPECT_EQ(h.bucket_count(4), kThreads * (kPerThread / 10));
}

TEST(ObsHistogram, ExponentialBuckets) {
  const std::vector<double> b = obs::exponential_buckets(1.0, 4.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 4.0);
  EXPECT_DOUBLE_EQ(b[2], 16.0);
  EXPECT_DOUBLE_EQ(b[3], 64.0);
}

TEST(ObsRegistry, SnapshotGolden) {
  obs::Registry registry;
  registry.counter("a.count").add(3);
  registry.gauge("g.val").set(2.5);
  obs::Histogram& h = registry.histogram("h.lat", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(10.0);
  EXPECT_EQ(registry.snapshot_json(),
            "{\"counters\":{\"a.count\":3},"
            "\"gauges\":{\"g.val\":2.5},"
            "\"histograms\":{\"h.lat\":{\"count\":3,\"sum\":13.5,"
            "\"min\":0.5,\"max\":10,\"mean\":4.5,"
            "\"bounds\":[1,2,4],\"buckets\":[1,0,1,1]}}}");
}

TEST(ObsRegistry, EmptyHistogramOmitsMinMaxMean) {
  obs::Registry registry;
  registry.histogram("h.empty", {1.0});
  EXPECT_EQ(registry.snapshot_json(),
            "{\"counters\":{},\"gauges\":{},"
            "\"histograms\":{\"h.empty\":{\"count\":0,\"sum\":0,"
            "\"bounds\":[1],\"buckets\":[0,0]}}}");
}

TEST(ObsRegistry, ResetKeepsRegistrationsAndZeroesValues) {
  obs::Registry registry;
  obs::Counter& c = registry.counter("r.count");
  c.add(7);
  registry.gauge("r.gauge").set(1.5);
  registry.histogram("r.hist", {1.0}).observe(0.5);
  registry.reset();
  EXPECT_EQ(c.value(), 0);  // cached reference survives reset()
  EXPECT_EQ(registry.snapshot_json(),
            "{\"counters\":{\"r.count\":0},\"gauges\":{\"r.gauge\":0},"
            "\"histograms\":{\"r.hist\":{\"count\":0,\"sum\":0,"
            "\"bounds\":[1],\"buckets\":[0,0]}}}");
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  ASSERT_FALSE(obs::tracing_enabled());  // default state
  const std::size_t before = obs::trace_event_count();
  { NP_SPAN("obstest.disabled"); }
  EXPECT_EQ(obs::trace_event_count(), before);
}

TEST(ObsTrace, ChromeTraceSchema) {
  obs::set_tracing_enabled(true);
  obs::clear_trace();
  { NP_SPAN("obstest.main_span"); }
  std::thread worker([] { NP_SPAN("obstest.worker_span"); });
  worker.join();
  obs::set_tracing_enabled(false);
  EXPECT_EQ(obs::trace_event_count(), 2u);
  EXPECT_EQ(obs::trace_dropped_count(), 0u);

  const std::string path = np::test::temp_path("obs_trace_schema.json");
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(obs::write_chrome_trace(out), 2u);
  std::fclose(out);

  const std::string json = read_file(path);
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  // Every event carries the full Chrome trace-event schema.
  for (const char* key :
       {"\"name\":", "\"cat\":", "\"ph\":\"X\"", "\"ts\":", "\"dur\":",
        "\"pid\":1", "\"tid\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("\"name\":\"obstest.main_span\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"obstest.worker_span\""), std::string::npos);
  // Category = span-name prefix before the first '.'.
  EXPECT_NE(json.find("\"cat\":\"obstest\""), std::string::npos);

  // The two spans ran on different threads, so their tids must differ.
  const auto tid_of = [&json](const std::string& name) {
    const std::size_t at = json.find(name);
    EXPECT_NE(at, std::string::npos);
    const std::size_t tid = json.find("\"tid\":", at);
    EXPECT_NE(tid, std::string::npos);
    return std::stoi(json.substr(tid + 6));
  };
  EXPECT_NE(tid_of("obstest.main_span"), tid_of("obstest.worker_span"));
  obs::clear_trace();
  std::remove(path.c_str());
}

TEST(ObsSink, MetricsRecordsAreOneJsonObjectPerLine) {
  const std::string path = np::test::temp_path("obs_metrics.jsonl");
  obs::set_metrics_out(path);
  ASSERT_TRUE(obs::metrics_out_open());
  EXPECT_TRUE(obs::detail_enabled());  // a metrics sink arms detail metrics
  obs::counter("obstest.sink").add(5);
  obs::emit_metrics_record("train_epoch", 3);
  obs::shutdown();  // appends the "final" record and closes
  EXPECT_FALSE(obs::metrics_out_open());
  EXPECT_FALSE(obs::detail_enabled());

  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("{\"record\":\"train_epoch\",\"index\":3,"),
            std::string::npos);
  EXPECT_NE(lines[1].find("{\"record\":\"final\",\"index\":-1,"),
            std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"elapsed_us\":"), std::string::npos);
    EXPECT_NE(line.find("\"metrics\":{\"counters\":{"), std::string::npos);
    EXPECT_NE(line.find("\"obstest.sink\":5"), std::string::npos);
    EXPECT_EQ(line.back(), '}');  // the record closes on the same line
  }
  std::remove(path.c_str());
}

}  // namespace
