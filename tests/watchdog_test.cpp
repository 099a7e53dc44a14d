// Watchdog tests: heartbeat scope nesting semantics, a manually
// stalled worker flagged within the configured interval, escalation to
// a "watchdog_stall" flight-record dump, and the acceptance scenario —
// a rollout worker wedged by a stall fault is flagged while collection
// still completes (stalls are symptom reports, not kills).
//
// All suites are named Watchdog* so the tsan ctest preset picks them up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "np_json.hpp"
#include "nn/actor_critic.hpp"
#include "obs/obs.hpp"
#include "rl/rollout.hpp"
#include "temp_path.hpp"
#include "topo/generator.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace {

using namespace np;

/// Poll `done` every few ms until it holds or `seconds` elapse. The
/// watchdog acts on its own monitor thread, so tests wait for effects
/// instead of asserting instantaneous state.
bool wait_for(const std::function<bool()>& done, double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

/// Stops the monitor and disarms everything around each test so the
/// suites stay order-independent.
class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    obs::Watchdog::instance().stop();
    obs::set_flight_record_path(nullptr);
    util::FaultInjector::instance().disarm_all();
  }
};

TEST_F(WatchdogTest, HeartbeatScopeNestingRestoresOuterScope) {
  obs::fr_detail::ThreadRecord* r = obs::fr_detail::thread_record();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->hb_name.load(), nullptr);
  {
    obs::HeartbeatScope outer("hb.watchdogtest.outer");
    outer.beat(5);
    EXPECT_STREQ(r->hb_name.load(), "hb.watchdogtest.outer");
    EXPECT_EQ(r->hb_progress.load(), 5);
    const double outer_ts = r->hb_ts_us.load();
    {
      obs::HeartbeatScope inner("hb.watchdogtest.inner");
      inner.beat(99);
      EXPECT_STREQ(r->hb_name.load(), "hb.watchdogtest.inner");
      EXPECT_EQ(r->hb_progress.load(), 99);
    }
    // Scope exit restores the outer heartbeat and re-stamps its
    // timestamp so it does not inherit the inner section's elapsed
    // time.
    EXPECT_STREQ(r->hb_name.load(), "hb.watchdogtest.outer");
    EXPECT_EQ(r->hb_progress.load(), 5);
    EXPECT_GE(r->hb_ts_us.load(), outer_ts);
  }
  EXPECT_EQ(r->hb_name.load(), nullptr);
}

TEST_F(WatchdogTest, StalledHeartbeatFlaggedWithinInterval) {
  obs::WatchdogConfig config;
  config.stall_seconds = 0.05;
  obs::Watchdog::instance().start(config);
  ASSERT_TRUE(obs::Watchdog::instance().running());
  const long before = obs::Watchdog::instance().stalls_flagged();

  std::atomic<bool> release{false};
  std::thread worker([&release] {
    obs::HeartbeatScope hb("hb.watchdogtest.stuck");
    hb.beat(1);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  // The acceptance bound: the wedged worker must be flagged within the
  // stall interval (plus poll jitter) — give it 20x as a CI-safe cap.
  EXPECT_TRUE(wait_for(
      [before] { return obs::Watchdog::instance().stalls_flagged() > before; },
      20 * config.stall_seconds));
  release.store(true);
  worker.join();
}

TEST_F(WatchdogTest, BeatingHeartbeatIsNotFlagged) {
  obs::WatchdogConfig config;
  config.stall_seconds = 0.08;
  obs::Watchdog::instance().start(config);
  const long before = obs::Watchdog::instance().stalls_flagged();

  std::atomic<bool> release{false};
  std::thread worker([&release] {
    obs::HeartbeatScope hb("hb.watchdogtest.lively");
    long progress = 0;
    while (!release.load()) {
      hb.beat(++progress);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::this_thread::sleep_for(
      std::chrono::duration<double>(4 * config.stall_seconds));
  EXPECT_EQ(obs::Watchdog::instance().stalls_flagged(), before);
  release.store(true);
  worker.join();
}

TEST_F(WatchdogTest, StallEscalatesToWatchdogStallDump) {
  const std::string path = np::test::temp_path("watchdog_stall.npcrash");
  obs::set_flight_record_path(path.c_str());
  obs::WatchdogConfig config;
  config.stall_seconds = 0.05;
  config.dump_on_stall = true;
  obs::Watchdog::instance().start(config);

  std::atomic<bool> release{false};
  std::thread worker([&release] {
    obs::HeartbeatScope hb("hb.watchdogtest.dumped");
    hb.beat(1);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  ASSERT_TRUE(wait_for([] { return obs::flight_record_dumped(); },
                       20 * config.stall_seconds));
  release.store(true);
  worker.join();
  obs::Watchdog::instance().stop();

  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  const np_json::Value report = np_json::parse(os.str());
  const np_json::Value* trigger = report.find("trigger");
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->str_or("kind", ""), "watchdog_stall");
  EXPECT_EQ(trigger->str_or("name", ""), "hb.watchdogtest.dumped");
  // The stuck thread's tail carries the kStall event the monitor
  // recorded on its behalf.
  bool stall_event_seen = false;
  for (const np_json::Value& t : report.find("threads")->array) {
    const np_json::Value* events = t.find("events");
    if (events == nullptr) continue;
    for (const np_json::Value& e : events->array) {
      stall_event_seen = stall_event_seen || e.str_or("kind", "") == "stall";
    }
  }
  EXPECT_TRUE(stall_event_seen);
  std::remove(path.c_str());
}

// Acceptance scenario: a rollout worker wedged inside its env step
// (stall fault at rollout.step, under hb.rollout_step) goes quiet on
// its heartbeat, the watchdog flags it within the stall interval, and
// collect() still returns every step once the wedge clears — the run
// is never killed.
TEST_F(WatchdogTest, WedgedRolloutWorkerFlagged) {
  if (!NP_FAULTS_ENABLED) GTEST_SKIP() << "built without NEUROPLAN_FAULTS";
  obs::WatchdogConfig config;
  config.stall_seconds = 0.05;
  obs::Watchdog::instance().start(config);
  const long before = obs::Watchdog::instance().stalls_flagged();

  const topo::Topology t = topo::make_preset('A');
  rl::EnvConfig env_config;
  env_config.max_units_per_step = 4;
  env_config.max_trajectory_steps = 100;
  nn::NetworkConfig net_config;
  net_config.gcn_layers = 2;
  net_config.gcn_hidden = 8;
  net_config.mlp_hidden = {16};
  Rng init(5);
  nn::ActorCritic network(net_config, init);
  rl::RolloutWorkers workers(t, env_config, network, /*workers=*/2, /*seed=*/5);
  // The first env step wedges its worker for well over the stall
  // interval, then continues normally.
  util::FaultSpec spec;
  spec.nth_call = 1;
  spec.stall_ms = 400;
  util::FaultInjector::instance().arm("rollout.step", spec);
  constexpr int kQuota = 12;  // per worker
  const std::vector<rl::WorkerRollout> out = workers.collect(2 * kQuota);
  EXPECT_EQ(util::FaultInjector::instance().triggered("rollout.step"), 1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].records.size(), static_cast<std::size_t>(kQuota));
  EXPECT_EQ(out[1].records.size(), static_cast<std::size_t>(kQuota));
  EXPECT_GT(obs::Watchdog::instance().stalls_flagged(), before);
}

}  // namespace
