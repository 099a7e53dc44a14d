// Crash-safe checkpoint/resume: the atomic snapshot container rejects
// every class of torn or tampered file with a clean error, and a
// trainer killed mid-run and resumed from its last checkpoint finishes
// bit-for-bit identical to the uninterrupted run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ad/checkpoint.hpp"
#include "ad/snapshot.hpp"
#include "la/matrix.hpp"
#include "rl/trainer.hpp"
#include "temp_path.hpp"
#include "topo/generator.hpp"
#include "util/rng.hpp"

namespace np::rl {
namespace {

using test::temp_path;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---- snapshot container ----

TEST(Snapshot, RoundTripsBinaryPayload) {
  const std::string path = temp_path("snap_roundtrip.state");
  std::string payload = "line one\nline two\n";
  payload.push_back('\0');
  payload += "binary\xff\xfe tail";
  ad::write_snapshot_file(path, "unit", payload);
  EXPECT_EQ(ad::read_snapshot_file(path, "unit"), payload);
  // The temp file of the write-rename dance must not survive success.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Snapshot, OverwriteReplacesAtomically) {
  const std::string path = temp_path("snap_overwrite.state");
  ad::write_snapshot_file(path, "unit", "first");
  ad::write_snapshot_file(path, "unit", "second");
  EXPECT_EQ(ad::read_snapshot_file(path, "unit"), "second");
}

TEST(Snapshot, MissingFileThrows) {
  EXPECT_THROW(ad::read_snapshot_file(temp_path("snap_nope.state"), "unit"),
               std::runtime_error);
}

TEST(Snapshot, GarbageFileThrows) {
  const std::string path = temp_path("snap_garbage.state");
  spit(path, "not a snapshot at all\n\x01\x02\x03");
  EXPECT_THROW(ad::read_snapshot_file(path, "unit"), std::runtime_error);
}

TEST(Snapshot, TruncatedPayloadThrows) {
  const std::string path = temp_path("snap_truncated.state");
  ad::write_snapshot_file(path, "unit", "a payload long enough to truncate");
  const std::string bytes = slurp(path);
  spit(path, bytes.substr(0, bytes.size() - 5));
  EXPECT_THROW(ad::read_snapshot_file(path, "unit"), std::runtime_error);
}

TEST(Snapshot, TrailingBytesThrow) {
  const std::string path = temp_path("snap_trailing.state");
  ad::write_snapshot_file(path, "unit", "payload");
  spit(path, slurp(path) + "extra");
  EXPECT_THROW(ad::read_snapshot_file(path, "unit"), std::runtime_error);
}

TEST(Snapshot, FlippedPayloadByteFailsChecksum) {
  const std::string path = temp_path("snap_bitflip.state");
  ad::write_snapshot_file(path, "unit", "payload payload payload");
  std::string bytes = slurp(path);
  bytes[bytes.size() - 3] ^= 0x20;
  spit(path, bytes);
  EXPECT_THROW(ad::read_snapshot_file(path, "unit"), std::runtime_error);
}

TEST(Snapshot, KindMismatchThrows) {
  const std::string path = temp_path("snap_kind.state");
  ad::write_snapshot_file(path, "trainer", "payload");
  EXPECT_THROW(ad::read_snapshot_file(path, "other"), std::runtime_error);
}

TEST(Snapshot, UnsupportedVersionThrows) {
  const std::string path = temp_path("snap_version.state");
  const std::string payload = "p";
  std::ostringstream out;
  out << "neuroplan-snapshot " << (ad::kSnapshotVersion + 1) << " unit "
      << payload.size() << " " << std::hex << ad::fnv1a64(payload) << "\n"
      << payload;
  spit(path, out.str());
  EXPECT_THROW(ad::read_snapshot_file(path, "unit"), std::runtime_error);
}

TEST(Snapshot, BadKindRejectedAtWrite) {
  EXPECT_THROW(
      ad::write_snapshot_file(temp_path("snap_badkind.state"), "has space", "p"),
      std::invalid_argument);
}

TEST(Snapshot, FailedWriteLeavesPreviousSnapshotIntact) {
  const std::string path = temp_path("snap_atomic.state");
  ad::write_snapshot_file(path, "unit", "the good state");
  // Make the temp slot unopenable: a directory squatting on path+".tmp"
  // forces fopen to fail, which must leave the destination untouched.
  std::filesystem::create_directory(path + ".tmp");
  EXPECT_THROW(ad::write_snapshot_file(path, "unit", "the doomed state"),
               std::runtime_error);
  EXPECT_EQ(ad::read_snapshot_file(path, "unit"), "the good state");
  std::filesystem::remove(path + ".tmp");
}

TEST(Snapshot, FuzzRandomBytesAlwaysThrowCleanly) {
  Rng rng(20260805);
  const std::string path = temp_path("snap_fuzz.state");
  // A valid header prefix followed by noise probes the parser's
  // deepest branches; pure noise probes the shallow ones.
  const std::string prefix = "neuroplan-snapshot 1 trainer ";
  for (int round = 0; round < 200; ++round) {
    std::string bytes;
    if (round % 2 == 0) bytes = prefix;
    const std::size_t n = rng.uniform_index(256);
    for (std::size_t i = 0; i < n; ++i) {
      bytes.push_back(static_cast<char>(rng.uniform_index(256)));
    }
    spit(path, bytes);
    EXPECT_THROW(ad::read_snapshot_file(path, "trainer"), std::runtime_error)
        << "round " << round;
  }
}

// ---- trainer checkpoint/resume ----

topo::Topology small_topology() { return topo::make_preset('A'); }

TrainConfig small_config() {
  TrainConfig c;
  c.env.max_units_per_step = 4;
  c.env.max_trajectory_steps = 200;
  c.network.gcn_layers = 2;
  c.network.gcn_hidden = 16;
  c.network.mlp_hidden = {32, 32};
  c.epochs = 4;
  c.steps_per_epoch = 128;
  c.chunk_steps = 32;
  c.seed = 3;
  return c;
}

void expect_parameters_identical(A2cTrainer& a, A2cTrainer& b) {
  auto pa = a.network().all_parameters();
  auto pb = b.network().all_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(la::max_abs_diff(pa[i]->value, pb[i]->value), 0.0)
        << pa[i]->name;
    EXPECT_DOUBLE_EQ(la::max_abs_diff(pa[i]->adam_m, pb[i]->adam_m), 0.0)
        << pa[i]->name;
    EXPECT_DOUBLE_EQ(la::max_abs_diff(pa[i]->adam_v, pb[i]->adam_v), 0.0)
        << pa[i]->name;
  }
}

TEST(Checkpoint, KillAndResumeIsBitIdentical) {
  const topo::Topology t = small_topology();
  const TrainConfig config = small_config();

  // Reference: 4 epochs, never interrupted.
  A2cTrainer reference(t, config);
  const auto ref_history = reference.train();
  ASSERT_EQ(ref_history.size(), 4u);

  // "Killed" run: 2 epochs, checkpoint, process dies (trainer dropped).
  const std::string path = temp_path("trainer_kill.state");
  {
    TrainConfig first_half = config;
    first_half.epochs = 2;
    A2cTrainer killed(t, first_half);
    killed.train();
    killed.save_checkpoint(path);
  }

  // Fresh process: construct from scratch, resume, finish the run.
  A2cTrainer resumed(t, config);
  resumed.resume_from_checkpoint(path);
  EXPECT_EQ(resumed.epochs_completed(), 2);
  const auto tail = resumed.train();
  ASSERT_EQ(tail.size(), 2u);

  // Epochs 3 and 4 must match the uninterrupted run exactly.
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const EpochStats& r = ref_history[2 + i];
    EXPECT_EQ(tail[i].epoch, r.epoch);
    EXPECT_EQ(tail[i].steps, r.steps);
    EXPECT_EQ(tail[i].trajectories, r.trajectories);
    EXPECT_EQ(tail[i].feasible_trajectories, r.feasible_trajectories);
    EXPECT_DOUBLE_EQ(tail[i].mean_return, r.mean_return);
    EXPECT_DOUBLE_EQ(tail[i].best_cost_in_epoch, r.best_cost_in_epoch);
    EXPECT_DOUBLE_EQ(tail[i].best_cost_so_far, r.best_cost_so_far);
  }
  EXPECT_DOUBLE_EQ(resumed.best_cost(), reference.best_cost());
  EXPECT_EQ(resumed.best_added_units(), reference.best_added_units());
  expect_parameters_identical(resumed, reference);
}

TEST(Checkpoint, KillAndResumeIsBitIdenticalWithOwnedWorkers) {
  const topo::Topology t = small_topology();
  TrainConfig config = small_config();
  config.epochs = 2;
  config.rollout_workers = 3;

  A2cTrainer reference(t, config);
  const auto ref_history = reference.train();
  ASSERT_EQ(ref_history.size(), 2u);

  const std::string path = temp_path("trainer_kill_workers.state");
  {
    TrainConfig first_half = config;
    first_half.epochs = 1;
    A2cTrainer killed(t, first_half);
    killed.train();
    killed.save_checkpoint(path);
  }

  A2cTrainer resumed(t, config);
  resumed.resume_from_checkpoint(path);
  const auto tail = resumed.train();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_DOUBLE_EQ(tail[0].mean_return, ref_history[1].mean_return);
  EXPECT_EQ(tail[0].trajectories, ref_history[1].trajectories);
  EXPECT_DOUBLE_EQ(resumed.best_cost(), reference.best_cost());
  expect_parameters_identical(resumed, reference);
}

TEST(Checkpoint, TrainWritesPeriodicCheckpoints) {
  const topo::Topology t = small_topology();
  TrainConfig config = small_config();
  config.epochs = 2;
  config.checkpoint_every = 1;
  config.checkpoint_path = temp_path("trainer_periodic.state");
  A2cTrainer trainer(t, config);
  trainer.train();
  // The last save happened after epoch 2; a fresh trainer resumes there.
  A2cTrainer resumed(t, config);
  resumed.resume_from_checkpoint(config.checkpoint_path);
  EXPECT_EQ(resumed.epochs_completed(), 2);
  EXPECT_DOUBLE_EQ(resumed.best_cost(), trainer.best_cost());
  expect_parameters_identical(resumed, trainer);
}

TEST(Checkpoint, ResumeAndLoadBumpEveryParameterVersion) {
  // Parameter::version must move whenever value is rewritten, so that
  // anything derived from a parameter's value can key on it.
  const topo::Topology t = small_topology();
  TrainConfig config = small_config();
  config.epochs = 1;
  const std::string path = temp_path("trainer_versions.state");
  {
    A2cTrainer trained(t, config);
    trained.train();
    trained.save_checkpoint(path);
  }
  A2cTrainer resumed(t, config);
  const std::vector<ad::Parameter*> params = resumed.network().all_parameters();
  auto versions = [&params] {
    std::vector<std::uint64_t> out;
    for (const ad::Parameter* p : params) out.push_back(p->version);
    return out;
  };

  std::vector<std::uint64_t> before = versions();
  resumed.resume_from_checkpoint(path);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_GT(params[i]->version, before[i]) << "resume: " << params[i]->name;
  }

  std::stringstream buffer;
  ad::save_parameters(params, buffer);
  before = versions();
  ad::load_parameters(params, buffer);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_GT(params[i]->version, before[i]) << "load: " << params[i]->name;
  }
}

TEST(Checkpoint, ResumeRejectsMismatchedConfig) {
  const topo::Topology t = small_topology();
  TrainConfig config = small_config();
  config.epochs = 1;
  const std::string path = temp_path("trainer_mismatch.state");
  {
    A2cTrainer writer(t, config);
    writer.train();
    writer.save_checkpoint(path);
  }
  TrainConfig other = config;
  other.seed = config.seed + 1;  // different RNG stream => divergent resume
  A2cTrainer reader(t, other);
  EXPECT_THROW(reader.resume_from_checkpoint(path), std::runtime_error);
}

TEST(Checkpoint, ResumeRejectsCorruptedPayload) {
  const topo::Topology t = small_topology();
  TrainConfig config = small_config();
  config.epochs = 1;
  const std::string path = temp_path("trainer_corrupt.state");
  {
    A2cTrainer writer(t, config);
    writer.train();
    writer.save_checkpoint(path);
  }
  // Rewrite with a syntactically valid container holding a mangled
  // payload: the container checksum passes, the trainer parser must
  // still reject it.
  std::string payload = ad::read_snapshot_file(path, "trainer");
  payload.replace(0, 11, "fingerprynt");
  ad::write_snapshot_file(path, "trainer", payload);
  A2cTrainer reader(t, config);
  EXPECT_THROW(reader.resume_from_checkpoint(path), std::runtime_error);
}

TEST(Checkpoint, ResumeRejectsTruncatedPayload) {
  const topo::Topology t = small_topology();
  TrainConfig config = small_config();
  config.epochs = 1;
  const std::string path = temp_path("trainer_short.state");
  {
    A2cTrainer writer(t, config);
    writer.train();
    writer.save_checkpoint(path);
  }
  const std::string payload = ad::read_snapshot_file(path, "trainer");
  ad::write_snapshot_file(path, "trainer", payload.substr(0, payload.size() / 2));
  A2cTrainer reader(t, config);
  EXPECT_THROW(reader.resume_from_checkpoint(path), std::runtime_error);
}

}  // namespace
}  // namespace np::rl
