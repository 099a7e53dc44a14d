#include "workloads.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>

#include "checks.hpp"
#include "core/baselines.hpp"
#include "core/neuroplan.hpp"
#include "obs/obs.hpp"
#include "rl/rollout.hpp"
#include "rl/trainer.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "stats.hpp"
#include "topo/generator.hpp"
#include "topo/serialize.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using np::topo::Topology;

/// Every workload plans the seed-7 instance of its topology (the
/// ROADMAP baseline). One instance of a preset costs up to 1.4x another
/// per epoch, collect or query, and one stage-2 MILP up to 35x another,
/// so a seed that picked the instance would swamp every timing. The
/// run's --seed varies the agent and the request stream instead.
constexpr unsigned kNetworkSeed = 7;

/// Library counters read around every job; their deltas feed the
/// property report and the per-layer metrics.
const char* const kCounters[] = {
    "ad.backwards",          "lp.iterations",          "lp.refactorizations",
    "lp.singular_retries",   "lp.solves",              "lp.start.cold",
    "milp.nodes",            "milp.solves",            "nn.batch_forwards",
    "nn.infer.batch_forwards", "nn.infer.forwards",    "nn.policy_forwards",
    "nn.value_forwards",     "plan.checks",            "plan.cold_retries",
    "plan.scenario_solves",  "plan.scenarios_checked", "plan.scenarios_skipped",
    "plan.unknown_verdicts", "plan.warm_start_hits",   "plan.warm_start_misses",
    "pool.tasks",            "rl.env_steps",           "rl.feasible_trajectories",
    "rl.trajectories",       "rollout.active_worker_steps", "rollout.rounds",
    "serve.degraded",        "serve.errors",           "serve.retries",
    "serve.shed",
};

std::map<std::string, double> read_counters() {
  std::map<std::string, double> values;
  for (const char* name : kCounters) {
    values[name] = static_cast<double>(np::obs::counter(name).value());
  }
  return values;
}

/// Counts one operation, failed when `reason` is non-empty.
void count_operation(RunReport& report, const std::string& reason) {
  ++report.attempted;
  if (reason.empty()) return;
  ++report.failed;
  if (report.failure_reasons.size() < 8) report.failure_reasons.push_back(reason);
}

/// Record-keeping for the digest: the first job's outputs define it and
/// every later job of the same run must reproduce them bit for bit.
void settle_digest(RunReport& report, const Digest& digest, std::string& reason) {
  if (report.digest.empty()) {
    report.digest = digest.hex();
  } else if (reason.empty() && report.digest != digest.hex()) {
    reason = "a repeated job returned different outputs";
  }
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Inputs' sizes, reported with the results.
  virtual std::map<std::string, double> inputs() const = 0;
  /// Fresh set-ups measured before the timed phase; the last stays live.
  virtual int setup_repeats() const = 0;
  /// Drop the live set-up (untimed).
  virtual void release() = 0;
  /// Build the program's objects from the generated inputs (timed).
  virtual void setup() = 0;
  /// One job of fixed work on the live set-up (timed). Keeps its
  /// outputs for check_job().
  virtual void job(Phase& phase) = 0;
  /// A job that consumes its set-up gets a fresh one before the next.
  virtual bool setup_per_job() const { return false; }
  /// Output checks and digest of the last job (untimed).
  virtual void check_job(RunReport& report) = 0;
  /// Property report and per-layer values after all phases.
  virtual void finish(RunReport& report) = 0;
};

// ---------------------------------------------------------------------
// train_c: stage 1 of time-to-plan. A fresh trainer on topology C runs
// a fixed number of epochs with core::default_train_config.

/// Multiply-adds x2 of one graph's encoder pass: per GCN layer an
/// adjacency SpMM and a dense layer.
double encoder_flops(const np::nn::NetworkConfig& net, double nodes, double nnz) {
  double flops = 0.0;
  double width = net.feature_dim;
  for (int l = 0; l < net.gcn_layers; ++l) {
    flops += 2.0 * nnz * width + 2.0 * nodes * width * net.gcn_hidden;
    width = net.gcn_hidden;
  }
  return flops;
}

double mlp_flops(double rows, double in, const std::vector<int>& hidden, double out) {
  double flops = 0.0;
  for (int h : hidden) {
    flops += 2.0 * rows * in * h;
    in = h;
  }
  return flops + 2.0 * rows * in * out;
}

struct NetworkFlops {
  double policy = 0.0;  ///< encoder + actor head
  double value = 0.0;   ///< encoder + mean pool + critic head
  double shared = 0.0;  ///< one encoder feeding both heads (acting)
};

NetworkFlops network_flops(const np::nn::NetworkConfig& net, double nodes, double nnz) {
  const double encoder = encoder_flops(net, nodes, nnz);
  const double width = net.gcn_layers > 0 ? net.gcn_hidden : net.feature_dim;
  const double actor = mlp_flops(nodes, width, net.mlp_hidden, net.max_units_per_step);
  const double critic = nodes * width + mlp_flops(1.0, width, net.mlp_hidden, 1.0);
  return {encoder + actor, encoder + critic, encoder + actor + critic};
}

class TrainC final : public Workload {
 public:
  TrainC(unsigned seed, bool tiny) : seed_(seed), tiny_(tiny) {
    const Topology topology = np::topo::make_preset(tiny ? 'A' : 'C', kNetworkSeed);
    text_ = np::topo::to_text(topology);
    greedy_cost_ = np::core::solve_greedy(topology).cost;
    inputs_ = {{"links", topology.num_links()},
               {"scenarios", topology.num_failures() + 1},
               {"flows", topology.num_flows()},
               {"epochs_per_job", kEpochs}};
  }

  std::map<std::string, double> inputs() const override { return inputs_; }
  int setup_repeats() const override { return 15; }
  bool setup_per_job() const override { return true; }

  void release() override {
    trainer_.reset();
    topology_.reset();
  }

  void setup() override {
    topology_ = std::make_unique<Topology>(np::topo::from_text(text_));
    config_ = np::core::default_train_config(*topology_, seed_);
    if (tiny_) {
      config_.steps_per_epoch = 48;
      config_.chunk_steps = 16;
      config_.update_iterations = 2;
    }
    trainer_ = std::make_unique<np::rl::A2cTrainer>(*topology_, config_);
  }

  void job(Phase& phase) override {
    np::obs::Gauge& update_gauge = np::obs::gauge("train.update_seconds");
    for (int e = 0; e < kEpochs; ++e) {
      const double start = now_seconds();
      np::rl::EpochStats stats;
      {
        NP_SPAN("bench.run_epoch");
        stats = trainer_->run_epoch();
      }
      phase.request_ms.push_back((now_seconds() - start) * 1e3);
      phase.work_units += stats.steps;
      epoch_seconds_ += stats.seconds;
      update_seconds_ += update_gauge.value();
    }
  }

  void check_job(RunReport& report) override {
    std::string reason = check_trained_plan(*topology_, trainer_->has_feasible_plan(),
                                            trainer_->best_added_units());
    Digest digest;
    digest.add(trainer_->best_added_units());
    for (const np::ad::Parameter* p : trainer_->network().all_parameters()) {
      digest.add_bytes(p->value.data(), p->value.size() * sizeof(double));
    }
    settle_digest(report, digest, reason);
    count_operation(report, reason);
    if (trainer_->has_feasible_plan()) cost_ratio_ = trainer_->best_cost() / greedy_cost_;
  }

  void finish(RunReport& report) override {
    report.properties["train.update_share"] =
        epoch_seconds_ > 0.0 ? update_seconds_ / epoch_seconds_ : 0.0;
    report.properties["rl.cost_ratio"] = cost_ratio_;
    report.layers["rl.cost_ratio"] = cost_ratio_;
    // Flop model of one epoch's update: every step gets a tape policy
    // and value forward per update iteration; a backward costs two
    // forwards.
    const np::la::CsrMatrix& adjacency = *trainer_->env().adjacency();
    np::nn::NetworkConfig net = trainer_->network().config();
    const NetworkFlops flops =
        network_flops(net, topology_->num_links(), static_cast<double>(adjacency.nnz()));
    report.layers["la.update_flops_per_job"] =
        3.0 * (flops.policy + flops.value) * config_.steps_per_epoch *
        std::max(1, config_.update_iterations) * kEpochs;
    report.layers["la.infer_flops_per_graph"] = flops.shared;
  }

 private:
  static constexpr int kEpochs = 2;
  unsigned seed_;
  bool tiny_;
  std::string text_;
  double greedy_cost_ = 0.0;
  std::map<std::string, double> inputs_;
  std::unique_ptr<Topology> topology_;
  np::rl::TrainConfig config_;
  std::unique_ptr<np::rl::A2cTrainer> trainer_;
  double epoch_seconds_ = 0.0;
  double update_seconds_ = 0.0;
  double cost_ratio_ = 0.0;
};

// ---------------------------------------------------------------------
// rollout_d2: acting without learning. Two owned-mode rollout workers on
// topology D act with a freshly built trainer's (never updated) network.

class RolloutD2 final : public Workload {
 public:
  RolloutD2(unsigned seed, bool tiny) : seed_(seed), steps_(tiny ? 32 : 384) {
    const Topology topology = np::topo::make_preset(tiny ? 'A' : 'D', kNetworkSeed);
    text_ = np::topo::to_text(topology);
    inputs_ = {{"links", topology.num_links()},
               {"scenarios", topology.num_failures() + 1},
               {"flows", topology.num_flows()},
               {"workers", kWorkers},
               {"steps_per_collect", steps_},
               {"collects_per_job", kCollects}};
  }

  std::map<std::string, double> inputs() const override { return inputs_; }
  int setup_repeats() const override { return 7; }

  void release() override {
    workers_.reset();
    trainer_.reset();
    topology_.reset();
  }

  void setup() override {
    topology_ = std::make_unique<Topology>(np::topo::from_text(text_));
    // Fixed weights; the seed drives the workers' sampling streams.
    config_ = np::core::default_train_config(*topology_, kNetworkSeed);
    trainer_ = std::make_unique<np::rl::A2cTrainer>(*topology_, config_);
    workers_ = std::make_unique<np::rl::RolloutWorkers>(
        *topology_, config_.env, trainer_->network(), kWorkers, seed_);
    // Warm-up: one collect builds and cold-solves the scenario LPs the
    // trajectories reach and starts the worker threads.
    NP_SPAN("bench.collect");
    (void)workers_->collect(steps_);
  }

  void job(Phase& phase) override {
    outputs_.clear();
    const double lp_before = workers_->total_lp_seconds();
    for (int c = 0; c < kCollects; ++c) {
      const double start = now_seconds();
      std::vector<np::rl::WorkerRollout> out;
      {
        NP_SPAN("bench.collect");
        try {
          out = workers_->collect(steps_);
        } catch (const std::exception& e) {
          collect_errors_.push_back(e.what());
        }
      }
      phase.request_ms.push_back((now_seconds() - start) * 1e3);
      phase.work_units += steps_;
      outputs_.push_back(std::move(out));
    }
    lp_seconds_ += workers_->total_lp_seconds() - lp_before;
  }

  void check_job(RunReport& report) override {
    Digest digest;
    for (const std::vector<np::rl::WorkerRollout>& out : outputs_) {
      std::string reason = out.empty() && !collect_errors_.empty()
                               ? "collect threw: " + collect_errors_.back()
                               : check_rollout(out, steps_, kWorkers);
      for (const np::rl::WorkerRollout& worker : out) {
        for (const np::rl::StepRecord& record : worker.records) {
          digest.add(static_cast<long>(record.action));
          digest.add(record.reward);
        }
      }
      count_operation(report, reason);
    }
    collect_errors_.clear();
    // Collects continue one RNG stream, so only the first job's outputs
    // repeat run to run; later jobs are checked but not digested.
    if (report.digest.empty()) report.digest = digest.hex();
  }

  void finish(RunReport& report) override {
    const std::map<std::string, double>& c = report.timed.counters;
    const double checked = c.at("plan.scenarios_checked");
    const double skipped = c.at("plan.scenarios_skipped");
    const double hits = c.at("plan.warm_start_hits");
    const double misses = c.at("plan.warm_start_misses");
    report.properties["plan.skip_share"] =
        checked + skipped > 0 ? skipped / (checked + skipped) : 0.0;
    report.properties["plan.warm_hit_share"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    report.properties["rl.feasible_trajectory_share"] =
        c.at("rl.trajectories") > 0
            ? c.at("rl.feasible_trajectories") / c.at("rl.trajectories")
            : 0.0;
    report.layers["rl.lp_cpu_seconds"] = lp_seconds_;
    report.layers["rl.workers"] = kWorkers;
    const np::nn::NetworkConfig net = trainer_->network().config();
    report.layers["la.infer_flops_per_graph"] =
        network_flops(net, topology_->num_links(),
                      static_cast<double>(trainer_->env().adjacency()->nnz()))
            .shared;
  }

 private:
  static constexpr int kWorkers = 2;
  static constexpr int kCollects = 4;
  unsigned seed_;
  int steps_;
  std::string text_;
  std::map<std::string, double> inputs_;
  std::unique_ptr<Topology> topology_;
  np::rl::TrainConfig config_;
  std::unique_ptr<np::rl::A2cTrainer> trainer_;
  std::unique_ptr<np::rl::RolloutWorkers> workers_;
  std::vector<std::vector<np::rl::WorkerRollout>> outputs_;
  std::vector<std::string> collect_errors_;
  double lp_seconds_ = 0.0;
};

// ---------------------------------------------------------------------
// serve_e: what-if serving. Two in-process sessions feed a two-worker
// engine on topology E with framed np1 check requests, closed loop with
// one outstanding request per session.

class ServeE final : public Workload {
 public:
  ServeE(unsigned seed, bool tiny) : seed_(seed) {
    const Topology topology = np::topo::make_preset(tiny ? 'A' : 'E', kNetworkSeed);
    text_ = np::topo::to_text(topology);
    greedy_ = np::core::solve_greedy(topology).added_units;
    // Each query is the greedy plan with one to three links moved by a
    // small +/- unit delta: mostly feasible, some infeasible.
    np::Rng rng(0x5e17e5eedULL ^ seed);
    const int count = tiny ? 16 : kQueries;
    for (int q = 0; q < count; ++q) {
      std::vector<int> plan = greedy_;
      const long changes = rng.uniform_int(1, 3);
      for (long k = 0; k < changes; ++k) {
        const int link = static_cast<int>(rng.uniform_index(plan.size()));
        const int headroom =
            topology.link_max_units(link) - topology.link(link).initial_units;
        long delta = rng.uniform_int(1, 2);
        if (rng.uniform() < 0.5) delta = -delta;
        plan[link] = static_cast<int>(
            std::clamp<long>(plan[link] + delta, 0, std::max(0, headroom)));
      }
      queries_.push_back(std::move(plan));
    }
    inputs_ = {{"links", topology.num_links()},
               {"scenarios", topology.num_failures() + 1},
               {"flows", topology.num_flows()},
               {"workers", kWorkers},
               {"sessions", kSessions},
               {"queries_per_job", count}};
  }

  // The engine's workers reply into inbox_; join them before it goes.
  ~ServeE() override { release(); }

  std::map<std::string, double> inputs() const override { return inputs_; }
  int setup_repeats() const override { return 7; }

  void release() override {
    sessions_.clear();
    engine_.reset();  // drains and joins the workers
    topology_.reset();
  }

  void setup() override {
    topology_ = std::make_unique<Topology>(np::topo::from_text(text_));
    np::serve::EngineConfig config;
    config.workers = kWorkers;
    config.seed = seed_;
    engine_ = std::make_unique<np::serve::Engine>(*topology_, config);
    for (int s = 0; s < kSessions; ++s) {
      sessions_.push_back(std::make_unique<np::serve::Session>(
          *engine_, [this, s](const std::string& framed) { on_reply(s, framed); }));
      readers_[s] = np::serve::FrameReader();
    }
    // Warm-up: two rounds of concurrent greedy-plan checks, so each
    // worker builds and cold-solves every scenario LP once.
    std::vector<const std::vector<int>*> warmup(2 * kSessions, &greedy_);
    Phase ignored;
    drive(warmup, ignored, nullptr);
  }

  void job(Phase& phase) override {
    verdicts_.assign(queries_.size(), Verdict{});
    std::vector<const std::vector<int>*> plans;
    for (const std::vector<int>& q : queries_) plans.push_back(&q);
    drive(plans, phase, &verdicts_);
    phase.work_units += static_cast<double>(queries_.size());
  }

  void check_job(RunReport& report) override {
    // Every query's verdict must repeat the first job's; a fixed sample
    // of the first job's verdicts is re-checked by a fresh evaluator.
    std::vector<ServedVerdict> sample;
    Digest digest;
    const bool first = first_verdicts_.empty();
    for (std::size_t q = 0; q < verdicts_.size(); ++q) {
      const Verdict& v = verdicts_[q];
      std::string reason;
      if (!v.answered) {
        reason = "query got no reply";
      } else if (!v.ok) {
        reason = "non-OK reply: " + v.status;
      } else if (!first && v.feasible != first_verdicts_[q]) {
        reason = "verdict changed between jobs";
      }
      count_operation(report, reason);
      digest.add(static_cast<long>(q));
      digest.add(static_cast<long>(v.feasible));
      if (first && q % kSampleStride == 0) {
        sample.push_back(ServedVerdict{static_cast<long>(q), queries_[q], v.feasible});
      }
    }
    if (first) {
      for (const Verdict& v : verdicts_) first_verdicts_.push_back(v.feasible);
      const long wrong = count_wrong_verdicts(*topology_, sample);
      for (long w = 0; w < wrong; ++w) {
        // The sampled queries were counted above; a wrong verdict turns
        // one of them into a failure.
        ++report.failed;
        if (report.failure_reasons.size() < 8) {
          report.failure_reasons.push_back(
              "served verdict contradicts a fresh evaluator");
        }
      }
      report.digest = digest.hex();
      feasible_share_ = 0.0;
      for (const Verdict& v : verdicts_) feasible_share_ += v.feasible ? 1.0 : 0.0;
      feasible_share_ /= std::max<std::size_t>(1, verdicts_.size());
    }
  }

  void finish(RunReport& report) override {
    report.properties["serve.feasible_share"] = feasible_share_;
    const std::map<std::string, double>& c = report.timed.counters;
    const double queries = report.timed.work_units;
    report.properties["serve.scenario_solves_per_query"] =
        queries > 0 ? c.at("plan.scenario_solves") / queries : 0.0;
    report.traced_replies = std::move(traced_replies_);
  }

  /// Trace runs keep the timing of every reply for span matching.
  void keep_reply_timing(bool keep) { keep_timing_ = keep; }

 private:
  struct Verdict {
    bool answered = false;
    bool ok = false;
    bool feasible = false;
    std::string status;
  };
  struct Delivery {
    int session = 0;
    std::string framed;
    double handed_us = 0.0;
  };

  void on_reply(int session, const std::string& framed) {
    NP_SPAN("bench.reply");
    const double handed = np::obs::now_us();
    {
      np::util::LockGuard lock(mutex_);
      inbox_.push_back(Delivery{session, framed, handed});
    }
    ready_.notify_one();
  }

  /// Closed loop: each session keeps one request outstanding and sends
  /// the next unsent plan as soon as its reply is read back.
  void drive(const std::vector<const std::vector<int>*>& plans, Phase& phase,
             std::vector<Verdict>* verdicts) {
    const long first_id = next_id_;
    next_id_ += static_cast<long>(plans.size());
    std::size_t next = 0;
    std::size_t done = 0;
    double written_us[kSessions] = {};
    std::size_t in_flight[kSessions] = {};
    auto send = [&](int s) {
      np::serve::Request request;
      request.kind = np::serve::RequestKind::kCheck;
      request.id = first_id + static_cast<long>(next);
      request.plan = *plans[next];
      const std::string framed = np::serve::frame(np::serve::encode_request(request));
      in_flight[s] = next++;
      written_us[s] = np::obs::now_us();
      NP_SPAN("bench.on_bytes");
      sessions_[s]->on_bytes(framed.data(), framed.size());
    };
    for (int s = 0; s < kSessions && next < plans.size(); ++s) send(s);
    std::deque<Delivery> batch;
    while (done < plans.size()) {
      {
        np::util::LockGuard lock(mutex_);
        while (inbox_.empty()) ready_.wait(mutex_);
        batch.swap(inbox_);
      }
      for (Delivery& d : batch) {
        const double read_us = np::obs::now_us();
        readers_[d.session].feed(d.framed.data(), d.framed.size());
        std::string payload;
        std::string error;
        if (readers_[d.session].next(&payload, &error) != np::serve::FrameEvent::kFrame) {
          throw std::runtime_error("serve reply is not one frame: " + error);
        }
        const np::serve::Reply reply = np::serve::parse_reply(payload);
        const std::size_t q = in_flight[d.session];
        phase.request_ms.push_back((read_us - written_us[d.session]) / 1e3);
        if (verdicts != nullptr) {
          Verdict& v = (*verdicts)[q];
          v.answered = reply.id == first_id + static_cast<long>(q);
          v.ok = reply.status == np::serve::ReplyStatus::kOk;
          v.feasible = reply.feasible;
          v.status = np::serve::to_string(reply.status) + std::string(" ") + reply.reason;
          if (keep_timing_) {
            traced_replies_.push_back(
                ReplyRecord{reply.id, written_us[d.session], d.handed_us, read_us});
          }
        }
        ++done;
        if (next < plans.size()) send(d.session);
      }
      batch.clear();
    }
  }

  static constexpr int kWorkers = 2;
  static constexpr int kSessions = 2;
  static constexpr int kQueries = 500;
  static constexpr std::size_t kSampleStride = 25;
  unsigned seed_;
  std::string text_;
  std::vector<int> greedy_;
  std::vector<std::vector<int>> queries_;
  std::map<std::string, double> inputs_;
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<np::serve::Engine> engine_;
  std::vector<std::unique_ptr<np::serve::Session>> sessions_;
  np::serve::FrameReader readers_[kSessions];
  np::util::Mutex mutex_;
  np::util::CondVar ready_;
  std::deque<Delivery> inbox_ NP_GUARDED_BY(mutex_);
  std::vector<Verdict> verdicts_;
  std::vector<bool> first_verdicts_;
  long next_id_ = 0;
  double feasible_share_ = 0.0;
  bool keep_timing_ = false;
  std::vector<ReplyRecord> traced_replies_;
};

// ---------------------------------------------------------------------
// stage2_a: stage 2 of time-to-plan over a fixed portfolio of topology-A
// instances, each seeded with its greedy plan (alpha 1.5, default
// budget). Stage 2 is deterministic and its work depends only on the
// instance, so the portfolio does not depend on the run's seed.

class Stage2A final : public Workload {
 public:
  explicit Stage2A(bool tiny) {
    const int count = tiny ? 3 : kInstances;
    double links = 0.0;
    double scenarios = 0.0;
    double flows = 0.0;
    for (int i = 0; i < count; ++i) {
      const unsigned instance = kNetworkSeed * 7919u + static_cast<unsigned>(i) + 2u;
      const Topology topology = np::topo::make_preset('A', instance);
      const np::core::PlanResult greedy = np::core::solve_greedy(topology);
      texts_.push_back(np::topo::to_text(topology));
      seeds_.push_back(greedy.added_units);
      seed_costs_.push_back(greedy.cost);
      links += topology.num_links();
      scenarios += topology.num_failures() + 1;
      flows += topology.num_flows();
    }
    inputs_ = {{"instances", count},
               {"links", links / count},
               {"scenarios", scenarios / count},
               {"flows", flows / count}};
  }

  std::map<std::string, double> inputs() const override { return inputs_; }
  int setup_repeats() const override { return 9; }

  void release() override { topologies_.clear(); }

  void setup() override {
    for (const std::string& text : texts_) {
      topologies_.push_back(np::topo::from_text(text));
    }
  }

  void job(Phase& phase) override {
    results_.clear();
    for (std::size_t i = 0; i < topologies_.size(); ++i) {
      const double start = now_seconds();
      {
        NP_SPAN("bench.second_stage");
        results_.push_back(
            np::core::second_stage(topologies_[i], seeds_[i], kRelaxFactor));
      }
      phase.request_ms.push_back((now_seconds() - start) * 1e3);
      phase.work_units += 1.0;
    }
  }

  void check_job(RunReport& report) override {
    Digest digest;
    cost_ratio_sum_ = 0.0;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      std::string reason = check_stage2(topologies_[i], results_[i], seed_costs_[i]);
      digest.add(results_[i].added_units);
      cost_ratio_sum_ += results_[i].cost / seed_costs_[i];
      count_operation(report, reason);
      const std::string& detail = results_[i].detail;
      const std::size_t at = detail.find("after ");
      if (at != std::string::npos) exact_rounds_ += std::atof(detail.c_str() + at + 6);
    }
    std::string reason;
    settle_digest(report, digest, reason);
    if (!reason.empty()) count_operation(report, reason);
    ++checked_jobs_;
  }

  void finish(RunReport& report) override {
    const double plans = static_cast<double>(results_.size());
    const double jobs = std::max(1, checked_jobs_);
    const std::map<std::string, double>& c = report.timed.counters;
    const double timed_plans = std::max(1.0, report.timed.work_units);
    report.properties["core.cost_ratio"] = cost_ratio_sum_ / std::max(1.0, plans);
    report.layers["core.cost_ratio"] = report.properties["core.cost_ratio"];
    report.properties["milp.solves_per_plan"] = c.at("milp.solves") / timed_plans;
    report.properties["milp.nodes_per_plan"] = c.at("milp.nodes") / timed_plans;
    report.properties["core.exact_lazy_rounds_per_plan"] =
        exact_rounds_ / jobs / std::max(1.0, plans);
  }

 private:
  static constexpr int kInstances = 120;
  static constexpr double kRelaxFactor = 1.5;
  std::vector<std::string> texts_;
  std::vector<std::vector<int>> seeds_;
  std::vector<double> seed_costs_;
  std::map<std::string, double> inputs_;
  std::vector<Topology> topologies_;
  std::vector<np::core::PlanResult> results_;
  double cost_ratio_sum_ = 0.0;
  double exact_rounds_ = 0.0;
  int checked_jobs_ = 0;
};

std::unique_ptr<Workload> make_workload(const RunOptions& options) {
  if (options.workload == "train_c") {
    return std::make_unique<TrainC>(options.seed, options.tiny);
  }
  if (options.workload == "rollout_d2") {
    return std::make_unique<RolloutD2>(options.seed, options.tiny);
  }
  if (options.workload == "serve_e") {
    return std::make_unique<ServeE>(options.seed, options.tiny);
  }
  if (options.workload == "stage2_a") {
    return std::make_unique<Stage2A>(options.tiny);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

/// Repeats jobs until `budget` seconds of job time are spent, keeping
/// at least one job and never starting one expected to overrun.
void run_phase(Workload& workload, double budget, bool check, Phase& phase,
               RunReport& report) {
  for (const char* name : kCounters) phase.counters[name] = 0.0;
  double spent = 0.0;
  for (;;) {
    if (workload.setup_per_job() && !phase.job_seconds.empty()) {
      workload.release();
      const double start = now_seconds();
      workload.setup();
      report.setup_seconds.push_back(now_seconds() - start);
    }
    const std::map<std::string, double> before = read_counters();
    const double start = now_seconds();
    workload.job(phase);
    const double elapsed = now_seconds() - start;
    const std::map<std::string, double> after = read_counters();
    for (const auto& [name, value] : after) {
      phase.counters[name] += value - before.at(name);
    }
    phase.job_seconds.push_back(elapsed);
    spent += elapsed;
    if (check) workload.check_job(report);
    if (spent + median(phase.job_seconds) > budget) break;
  }
}

/// Quantile of a registry histogram, interpolated inside its bucket.
double histogram_quantile(const np::obs::Histogram& h, double q) {
  const long total = h.count();
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double seen = 0.0;
  double lower = 0.0;
  for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
    const double upper = i < h.bounds().size() ? h.bounds()[i] : h.max();
    const double in_bucket = static_cast<double>(h.bucket_count(i));
    if (seen + in_bucket >= target && in_bucket > 0) {
      return lower + (upper - lower) * (target - seen) / in_bucket;
    }
    seen += in_bucket;
    lower = upper;
  }
  return h.max();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"train_c", "rollout_d2", "serve_e",
                                                 "stage2_a"};
  return names;
}

RunReport run_workload(const RunOptions& options) {
  std::unique_ptr<Workload> workload = make_workload(options);
  RunReport report;
  report.inputs = workload->inputs();

  for (int r = 0; r < workload->setup_repeats(); ++r) {
    workload->release();
    const double start = now_seconds();
    workload->setup();
    report.setup_seconds.push_back(now_seconds() - start);
  }

  const bool traced = !options.trace_path.empty();
  run_phase(*workload, traced ? options.seconds / 2 : options.seconds,
            /*check=*/true, report.timed, report);
  if (traced) {
    // Layer split: the same jobs again with spans recorded and detail
    // instruments on. Output checks stay out of this phase so their
    // reference solves do not show up in the trace.
    np::obs::Histogram& pool_wait = np::obs::histogram("pool.task_queue_us", {});
    pool_wait.reset();
    if (auto* serve = dynamic_cast<ServeE*>(workload.get())) {
      serve->keep_reply_timing(true);
    }
    np::obs::set_detail_enabled(true);
    np::obs::set_trace_out(options.trace_path);
    run_phase(*workload, options.seconds / 2, /*check=*/false, report.traced, report);
    np::obs::shutdown();
    np::obs::set_detail_enabled(false);
    report.layers["pool.queue_wait_us_p50"] = histogram_quantile(pool_wait, 0.50);
    report.layers["pool.queue_wait_us_p95"] = histogram_quantile(pool_wait, 0.95);
  }
  workload->finish(report);
  workload->release();
  report.peak_rss_mb = peak_rss_mb();
  return report;
}

}  // namespace perfbench
