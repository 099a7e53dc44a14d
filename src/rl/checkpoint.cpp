// Full-state trainer checkpoints (crash-safe resume).
//
// save_checkpoint serializes everything the A2C training loop needs to
// continue bit-for-bit after a kill: network parameters with their Adam
// moments, both optimizers' bias-correction timesteps, the trainer RNG
// and the per-worker rollout RNG streams, the epoch counter, best-plan
// and patience state, and (belt and braces — every rollout resets the
// env first) the env capacities. Doubles travel as the hex image of
// their IEEE-754 bit pattern, so a round trip is exact by construction
// rather than by printf-precision luck. The bytes go through the atomic
// snapshot container (ad/snapshot.hpp): temp file + fsync + rename,
// versioned header, FNV-1a checksum — a crash mid-save leaves the
// previous checkpoint intact, and any torn or tampered file fails the
// loader with a clean std::runtime_error.
//
// Concurrency model: save/load run on the trainer thread between
// epochs, when no rollout worker is in flight, so
// this file is single-threaded by contract and holds no locks.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ad/parameter.hpp"
#include "ad/snapshot.hpp"
#include "obs/metrics.hpp"
#include "rl/trainer.hpp"
#include "util/log.hpp"

namespace np::rl {

namespace {

constexpr const char* kKind = "trainer";

std::string hex_u64(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

std::uint64_t parse_hex_u64(const std::string& token, const char* what) {
  std::istringstream in(token);
  std::uint64_t v = 0;
  if (!(in >> std::hex >> v) || in.peek() != std::istringstream::traits_type::eof()) {
    throw std::runtime_error(std::string("checkpoint: malformed ") + what +
                             " '" + token + "'");
  }
  return v;
}

std::string hex_double(double d) {
  return hex_u64(std::bit_cast<std::uint64_t>(d));
}

double parse_hex_double(const std::string& token, const char* what) {
  return std::bit_cast<double>(parse_hex_u64(token, what));
}

/// Reads one line and checks its first token. Returns the rest of the
/// line as a stream.
std::istringstream expect_line(std::istream& in, const char* tag) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error(std::string("checkpoint: missing '") + tag +
                             "' record");
  }
  std::istringstream fields(line);
  std::string got;
  fields >> got;
  if (got != tag) {
    throw std::runtime_error(std::string("checkpoint: expected '") + tag +
                             "' record, found '" + got + "'");
  }
  return fields;
}

void write_matrix_line(std::ostringstream& out, const char* tag,
                       const la::Matrix& m) {
  out << tag;
  for (double v : m.flat()) out << ' ' << hex_double(v);
  out << '\n';
}

void read_matrix_line(std::istream& in, const char* tag, la::Matrix& m) {
  std::istringstream fields = expect_line(in, tag);
  for (std::size_t i = 0; i < m.flat().size(); ++i) {
    std::string token;
    if (!(fields >> token)) {
      throw std::runtime_error(std::string("checkpoint: short '") + tag +
                               "' record");
    }
    m.flat()[i] = parse_hex_double(token, tag);
  }
  std::string extra;
  if (fields >> extra) {
    throw std::runtime_error(std::string("checkpoint: oversized '") + tag +
                             "' record");
  }
}

/// Hash of every config field that shapes the RNG/gradient stream: a
/// checkpoint resumed under a different one of these would silently
/// diverge from the uninterrupted run, so the loader rejects it.
/// Deliberately absent: epochs / patience (extending a run is legal),
/// chunk_steps (it bounds tape memory, not results), checkpoint
/// settings themselves.
std::uint64_t config_fingerprint(const TrainConfig& config) {
  std::ostringstream canon;
  canon << config.seed << ' ' << config.steps_per_epoch << ' '
        << config.rollout_workers << ' ' << config.update_iterations << ' '
        << hex_double(config.ppo_clip) << ' '
        << hex_double(config.entropy_coefficient) << ' '
        << hex_double(config.actor_learning_rate) << ' '
        << hex_double(config.critic_learning_rate) << ' '
        << hex_double(config.gae.gamma) << ' '
        << hex_double(config.gae.gae_lambda) << ' '
        << config.env.max_units_per_step << ' '
        << config.env.max_trajectory_steps << ' '
        << config.env.include_static_features;
  return ad::fnv1a64(canon.str());
}

}  // namespace

void A2cTrainer::save_checkpoint(const std::string& path) {
  std::ostringstream out;
  out << "fingerprint " << hex_u64(config_fingerprint(config_)) << '\n';
  out << "epoch " << epoch_counter_ << '\n';
  out << "best_cost " << hex_double(best_cost_) << '\n';
  out << "best_added " << best_added_.size();
  for (int units : best_added_) out << ' ' << units;
  out << '\n';
  out << "patience " << hex_double(patience_best_) << ' ' << patience_stale_
      << '\n';

  const std::array<std::uint64_t, 4> rng_state = rng_.state();
  out << "rng";
  for (std::uint64_t word : rng_state) out << ' ' << hex_u64(word);
  out << '\n';
  const std::vector<std::array<std::uint64_t, 4>> worker_states =
      rollout_->rng_states();
  out << "worker_rngs " << worker_states.size() << '\n';
  for (const auto& state : worker_states) {
    out << "wrng";
    for (std::uint64_t word : state) out << ' ' << hex_u64(word);
    out << '\n';
  }

  const std::vector<int>& units = env_.total_units();
  out << "env_units " << units.size();
  for (int u : units) out << ' ' << u;
  out << '\n';

  out << "adam_t " << actor_optimizer_.timestep() << ' '
      << critic_optimizer_.timestep() << '\n';

  const std::vector<ad::Parameter*> params = network_.all_parameters();
  out << "params " << params.size() << '\n';
  for (const ad::Parameter* p : params) {
    out << "param " << p->name << ' ' << p->value.rows() << ' '
        << p->value.cols() << '\n';
    write_matrix_line(out, "v", p->value);
    write_matrix_line(out, "m", p->adam_m);
    write_matrix_line(out, "s", p->adam_v);
  }
  out << "end\n";

  ad::write_snapshot_file(path, kKind, out.str());
  log_info("rl: checkpoint saved to ", path, " (epoch ", epoch_counter_, ")");
}

void A2cTrainer::resume_from_checkpoint(const std::string& path) {
  const std::string payload = ad::read_snapshot_file(path, kKind);
  std::istringstream in(payload);

  {
    std::istringstream fields = expect_line(in, "fingerprint");
    std::string token;
    fields >> token;
    const std::uint64_t saved = parse_hex_u64(token, "fingerprint");
    if (saved != config_fingerprint(config_)) {
      throw std::runtime_error(
          "checkpoint '" + path +
          "': training configuration differs from the run that wrote it — "
          "resuming would diverge from the uninterrupted run");
    }
  }

  int epoch = -1;
  expect_line(in, "epoch") >> epoch;
  if (epoch < 0 || epoch > config_.epochs) {
    throw std::runtime_error("checkpoint: epoch counter " +
                             std::to_string(epoch) + " out of range");
  }

  {
    std::istringstream fields = expect_line(in, "best_cost");
    std::string token;
    fields >> token;
    best_cost_ = parse_hex_double(token, "best_cost");
  }
  {
    std::istringstream fields = expect_line(in, "best_added");
    std::size_t n = 0;
    if (!(fields >> n) || n > static_cast<std::size_t>(env_.num_links())) {
      throw std::runtime_error("checkpoint: malformed best_added record");
    }
    best_added_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (!(fields >> best_added_[i])) {
        throw std::runtime_error("checkpoint: short best_added record");
      }
    }
  }
  {
    std::istringstream fields = expect_line(in, "patience");
    std::string token;
    fields >> token;
    patience_best_ = parse_hex_double(token, "patience");
    if (!(fields >> patience_stale_)) {
      throw std::runtime_error("checkpoint: malformed patience record");
    }
  }

  {
    std::istringstream fields = expect_line(in, "rng");
    std::array<std::uint64_t, 4> state{};
    for (std::uint64_t& word : state) {
      std::string token;
      if (!(fields >> token)) {
        throw std::runtime_error("checkpoint: short rng record");
      }
      word = parse_hex_u64(token, "rng");
    }
    rng_.set_state(state);
  }
  {
    std::size_t count = 0;
    expect_line(in, "worker_rngs") >> count;
    std::vector<std::array<std::uint64_t, 4>> states(count);
    for (std::array<std::uint64_t, 4>& state : states) {
      std::istringstream fields = expect_line(in, "wrng");
      for (std::uint64_t& word : state) {
        std::string token;
        if (!(fields >> token)) {
          throw std::runtime_error("checkpoint: short wrng record");
        }
        word = parse_hex_u64(token, "wrng");
      }
    }
    rollout_->set_rng_states(states);
  }

  {
    std::istringstream fields = expect_line(in, "env_units");
    std::size_t n = 0;
    fields >> n;
    std::vector<int> units(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (!(fields >> units[i])) {
        throw std::runtime_error("checkpoint: short env_units record");
      }
    }
    env_.restore_units(units);
  }

  {
    std::istringstream fields = expect_line(in, "adam_t");
    long actor_t = -1, critic_t = -1;
    if (!(fields >> actor_t >> critic_t) || actor_t < 0 || critic_t < 0) {
      throw std::runtime_error("checkpoint: malformed adam_t record");
    }
    actor_optimizer_.set_timestep(actor_t);
    critic_optimizer_.set_timestep(critic_t);
  }

  const std::vector<ad::Parameter*> params = network_.all_parameters();
  std::size_t count = 0;
  expect_line(in, "params") >> count;
  if (count != params.size()) {
    throw std::runtime_error("checkpoint: parameter count mismatch (" +
                             std::to_string(count) + " saved, " +
                             std::to_string(params.size()) + " live)");
  }
  for (ad::Parameter* p : params) {
    std::istringstream fields = expect_line(in, "param");
    std::string name;
    std::size_t rows = 0, cols = 0;
    if (!(fields >> name >> rows >> cols)) {
      throw std::runtime_error("checkpoint: malformed param record");
    }
    if (name != p->name || rows != p->value.rows() || cols != p->value.cols()) {
      throw std::runtime_error("checkpoint: parameter '" + name +
                               "' does not match live parameter '" + p->name +
                               "' (name/shape)");
    }
    ++p->version;
    read_matrix_line(in, "v", p->value);
    read_matrix_line(in, "m", p->adam_m);
    read_matrix_line(in, "s", p->adam_v);
  }
  expect_line(in, "end");

  epoch_counter_ = epoch;
  static obs::Counter& resumes = obs::counter("train.resumes");
  resumes.add(1);
  log_info("rl: resumed from ", path, " at epoch ", epoch);
}

}  // namespace np::rl
