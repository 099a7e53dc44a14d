// neuroplan_cli — command-line front end for the library.
//
//   neuroplan_cli generate <A-E> <out.topo> [seed]     write a preset topology
//   neuroplan_cli show <topo>                          summarize a topology
//   neuroplan_cli evaluate <topo> <u0,u1,...>          check a plan (ADDED units)
//   neuroplan_cli plan <topo> <planner> [out.plan]     run a planner:
//       neuroplan | ilp | ilp-heur | greedy | decomposition
//   neuroplan_cli train <topo> <agent.ckpt> [epochs]
//       [--rollout-workers N]                          train + checkpoint an agent
//       [--checkpoint-every N] [--resume <state>]      crash-safe full-state
//                                                      snapshots -> <agent>.state
//   neuroplan_cli report <topo> <plan-file>            operator report for a plan
//
// Global flags (any command, position-independent):
//   --metrics-out <file.jsonl>   JSONL metrics registry snapshots (one
//                                record per training epoch + a final one)
//   --trace-out <file.json>      Chrome trace-event JSON of NP_SPAN
//                                scopes, loadable in Perfetto
//   --flight-record-out <file.npcrash>
//                                flight-recorder dump at exit (crashes
//                                and contract violations dump here too;
//                                inspect with np_postmortem)
// The NEUROPLAN_METRICS_OUT / NEUROPLAN_TRACE_OUT /
// NEUROPLAN_FLIGHT_RECORD_OUT environment variables set the same
// outputs; the flags win when both are given.
//
// `plan ... neuroplan` honors NEUROPLAN_AGENT=<ckpt>: the agent loads
// the checkpoint before (briefly) fine-tuning, so trained policies are
// reusable across planning cycles. NEUROPLAN_ROLLOUT_WORKERS=<K> sets
// the rollout worker count for `plan ... neuroplan` (default 1, the
// serial trainer path). With K workers (here or `--rollout-workers K`)
// each worker acts on its own env and thread; results depend only on
// the seed and K, never on the core count.
//
// Plans are stored one integer per line (added units per link, in link
// order). Exit code 0 = success / feasible, 1 = failure / infeasible,
// 2 = usage error.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ad/checkpoint.hpp"
#include "core/baselines.hpp"
#include "core/decomposition.hpp"
#include "core/neuroplan.hpp"
#include "obs/obs.hpp"
#include "plan/evaluator.hpp"
#include "plan/report.hpp"
#include "topo/generator.hpp"
#include "topo/serialize.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace {

using namespace np;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  neuroplan_cli generate <A-E> <out.topo> [seed]\n"
               "  neuroplan_cli show <topo>\n"
               "  neuroplan_cli evaluate <topo> <u0,u1,...>\n"
               "  neuroplan_cli plan <topo> <neuroplan|ilp|ilp-heur|greedy|"
               "decomposition> [out.plan]\n"
               "  neuroplan_cli train <topo> <agent.ckpt> [epochs]"
               " [--rollout-workers N]\n"
               "                [--checkpoint-every N] [--resume <state-file>]\n"
               "  neuroplan_cli report <topo> <plan-file>\n"
               "global flags: [--metrics-out <file.jsonl>]"
               " [--trace-out <file.json>]\n"
               "              [--flight-record-out <file.npcrash>]\n");
  return 2;
}

/// Strict decimal-integer argument parsing: the whole token must be a
/// number in [min_value, max_value]. Anything else — letters, empty
/// strings, trailing junk, out-of-range values — is a one-line error
/// and a non-zero exit (via main's catch), never atoi's silent 0.
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

std::vector<int> parse_plan_list(const std::string& csv) {
  std::vector<int> units;
  std::stringstream is(csv);
  std::string token;
  while (std::getline(is, token, ',')) {
    units.push_back(static_cast<int>(
        parse_long_arg("plan units", token.c_str(), 0, 1000000)));
  }
  return units;
}

std::vector<int> load_plan_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open plan file: " + path);
  std::vector<int> units;
  int value = 0;
  while (in >> value) units.push_back(value);
  return units;
}

void save_plan_file(const std::string& path, const std::vector<int>& units) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open plan file for writing: " + path);
  for (int u : units) out << u << "\n";
}

int cmd_generate(int argc, char** argv) {
  if (argc < 4) return usage();
  const unsigned seed =
      argc > 4
          ? static_cast<unsigned>(parse_long_arg("seed", argv[4], 0, 0xffffffffL))
          : 1u;
  const topo::Topology t = topo::make_preset(argv[2][0], seed);
  topo::save_file(t, argv[3]);
  std::printf("wrote %s: %d sites, %d fibers, %d links, %d flows, %d failures\n",
              argv[3], t.num_sites(), t.num_fibers(), t.num_links(), t.num_flows(),
              t.num_failures());
  return 0;
}

int cmd_show(int argc, char** argv) {
  if (argc < 3) return usage();
  const topo::Topology t = topo::load_file(argv[2]);
  t.validate();
  double demand = 0.0;
  for (int f = 0; f < t.num_flows(); ++f) demand += t.flow(f).demand_gbps;
  long existing = 0;
  for (int l = 0; l < t.num_links(); ++l) existing += t.link(l).initial_units;
  std::printf("topology '%s'\n", t.name().c_str());
  std::printf("  sites    %d\n  fibers   %d\n  IP links %d\n  flows    %d "
              "(%.1f Tbps total)\n  failures %d\n  existing %ld units @ %.0f Gbps\n",
              t.num_sites(), t.num_fibers(), t.num_links(), t.num_flows(),
              demand / 1000.0, t.num_failures(), existing, t.capacity_unit_gbps());
  return 0;
}

int cmd_evaluate(int argc, char** argv) {
  if (argc < 4) return usage();
  const topo::Topology t = topo::load_file(argv[2]);
  const std::vector<int> added = parse_plan_list(argv[3]);
  if (added.size() != static_cast<std::size_t>(t.num_links())) {
    std::fprintf(stderr, "plan has %zu entries, topology has %d links\n",
                 added.size(), t.num_links());
    return 2;
  }
  plan::PlanEvaluator evaluator(t);
  const plan::CheckResult r = evaluator.check(t.total_units(added));
  std::printf("feasible: %s  cost: %.1f\n", r.feasible ? "yes" : "no",
              t.plan_cost(added));
  if (!r.feasible) {
    const std::string name = r.violated_scenario == plan::kHealthyScenario
                                 ? "healthy network"
                                 : t.failure(r.violated_scenario - 1).name;
    std::printf("violated scenario: %s (%.1f Gbps unserved)\n", name.c_str(),
                r.unserved_gbps);
  }
  return r.feasible ? 0 : 1;
}

int cmd_plan(int argc, char** argv) {
  if (argc < 4) return usage();
  const topo::Topology t = topo::load_file(argv[2]);
  const std::string planner = argv[3];
  core::PlanResult result;
  if (planner == "neuroplan") {
    core::NeuroPlanConfig config;
    config.train = core::default_train_config(
        t, static_cast<unsigned>(env_long("NEUROPLAN_SEED", 7)));
    const long epochs = env_long("NEUROPLAN_EPOCHS", 0);
    if (epochs > 0) config.train.epochs = static_cast<int>(epochs);
    const long rollout_workers = env_long("NEUROPLAN_ROLLOUT_WORKERS", 0);
    if (rollout_workers > 0) {
      config.train.rollout_workers = static_cast<int>(rollout_workers);
    }
    config.relax_factor = env_double("NEUROPLAN_ALPHA", 1.5);
    const std::string agent_path = env_string("NEUROPLAN_AGENT", "");
    if (agent_path.empty()) {
      const core::NeuroPlanResult np_result = core::neuroplan(t, config);
      std::printf("first stage: cost %.1f (%.1fs)\n", np_result.first_stage.cost,
                  np_result.train_seconds);
      result = np_result.final;
    } else {
      // Reuse a checkpointed agent: load, fine-tune briefly, plan.
      rl::A2cTrainer trainer(t, config.train);
      ad::load_parameters_file(trainer.network().all_parameters(), agent_path);
      std::printf("loaded agent from %s\n", agent_path.c_str());
      trainer.train();
      trainer.greedy_rollout();
      core::PlanResult first;
      if (trainer.has_feasible_plan()) {
        first.feasible = true;
        first.added_units = trainer.best_added_units();
        first.cost = trainer.best_cost();
      } else {
        first = core::solve_greedy(t);
      }
      if (!first.feasible) {
        std::fprintf(stderr, "no first-stage plan\n");
        return 1;
      }
      std::printf("first stage: cost %.1f\n", first.cost);
      result = core::second_stage(t, first.added_units, config.relax_factor,
                                  config.ilp_time_limit_seconds,
                                  config.ilp_relative_gap);
      if (!result.feasible) result = first;
    }
  } else if (planner == "ilp") {
    core::IlpConfig config;
    config.time_limit_seconds = env_double("NEUROPLAN_ILP_TIME", 300.0);
    result = core::solve_ilp(t, config);
  } else if (planner == "ilp-heur") {
    result = core::solve_ilp_heur(t);
  } else if (planner == "greedy") {
    result = core::solve_greedy(t);
  } else if (planner == "decomposition") {
    result = core::solve_region_decomposition(t).plan;
  } else {
    return usage();
  }
  std::printf("%s: %s, cost %.1f, %.1fs [%s]\n", planner.c_str(),
              result.feasible ? "feasible" : "NO PLAN", result.cost, result.seconds,
              result.detail.c_str());
  if (result.feasible && argc > 4) {
    save_plan_file(argv[4], result.added_units);
    std::printf("plan written to %s\n", argv[4]);
  }
  return result.feasible ? 0 : 1;
}

int cmd_train(int argc, char** argv) {
  if (argc < 4) return usage();
  const topo::Topology t = topo::load_file(argv[2]);
  rl::TrainConfig config = core::default_train_config(
      t, static_cast<unsigned>(env_long("NEUROPLAN_SEED", 7)));
  std::string resume_path;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rollout-workers") {
      if (i + 1 >= argc) return usage();
      config.rollout_workers =
          static_cast<int>(parse_long_arg("--rollout-workers", argv[++i], 1, 4096));
    } else if (arg == "--checkpoint-every") {
      if (i + 1 >= argc) return usage();
      config.checkpoint_every = static_cast<int>(
          parse_long_arg("--checkpoint-every", argv[++i], 1, 1000000));
      config.checkpoint_path = std::string(argv[3]) + ".state";
    } else if (arg == "--resume") {
      if (i + 1 >= argc) return usage();
      resume_path = argv[++i];
    } else if (i == 4) {
      // Positional epochs. Anything unrecognized here (including "-3")
      // goes through the strict parser so the error names the problem
      // instead of dumping usage.
      config.epochs =
          static_cast<int>(parse_long_arg("epochs", argv[i], 1, 1000000));
    } else {
      return usage();
    }
  }
  rl::A2cTrainer trainer(t, config);
  if (!resume_path.empty()) {
    trainer.resume_from_checkpoint(resume_path);
    std::printf("resumed from %s at epoch %d\n", resume_path.c_str(),
                trainer.epochs_completed());
  }
  const auto history = trainer.train();
  trainer.greedy_rollout();
  ad::save_parameters_file(trainer.network().all_parameters(), argv[3]);
  std::printf("trained %zu epochs; best first-stage cost %s; agent -> %s\n",
              history.size(),
              trainer.has_feasible_plan()
                  ? std::to_string(trainer.best_cost()).c_str()
                  : "none",
              argv[3]);
  return trainer.has_feasible_plan() ? 0 : 1;
}

int cmd_report(int argc, char** argv) {
  if (argc < 4) return usage();
  const topo::Topology t = topo::load_file(argv[2]);
  const std::vector<int> added = load_plan_file(argv[3]);
  const plan::PlanReport report = plan::analyze_plan(t, added);
  std::fputs(plan::to_text(t, report).c_str(), stdout);
  return report.feasible ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  obs::configure_from_env();
  // Chaos runs: NEUROPLAN_FAULT_SITES arms fault points (no-op unless
  // built with NEUROPLAN_FAULTS=ON; crash-forensics CI relies on it).
  util::FaultInjector::instance().configure_from_env();
  // Flight-recorder provenance: the full command line, captured before
  // any stripping, so a post-mortem shows exactly how the run started.
  {
    std::string cmdline;
    for (int i = 0; i < argc; ++i) {
      if (i > 0) cmdline += ' ';
      cmdline += argv[i];
    }
    obs::set_run_annotation(cmdline.c_str());
  }
  // Strip the global observability flags before command dispatch so
  // subcommand parsers (which reject unknown flags) never see them.
  std::vector<char*> args;
  args.reserve(argc);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out" || arg == "--trace-out" ||
        arg == "--flight-record-out") {
      if (i + 1 >= argc) return usage();
      if (arg == "--metrics-out") {
        obs::set_metrics_out(argv[++i]);
      } else if (arg == "--trace-out") {
        obs::set_trace_out(argv[++i]);
      } else {
        obs::set_flight_record_path(argv[++i]);
      }
      continue;
    }
    args.push_back(argv[i]);
  }
  obs::install_crash_handlers();
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc < 2) return usage();
  int rc = 2;
  try {
    const std::string command = argv[1];
    if (command == "generate") rc = cmd_generate(argc, argv);
    else if (command == "show") rc = cmd_show(argc, argv);
    else if (command == "evaluate") rc = cmd_evaluate(argc, argv);
    else if (command == "plan") rc = cmd_plan(argc, argv);
    else if (command == "train") rc = cmd_train(argc, argv);
    else if (command == "report") rc = cmd_report(argc, argv);
    else rc = usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // The process survives (clean error exit), but the run is dead —
    // dump the black box before the evidence goes away with it.
    obs::dump_flight_record("unhandled_exception", "main", e.what(),
                            /*fatal=*/true);
    rc = 1;
  }
  obs::shutdown();  // write the trace file + final metrics record
  return rc;
}
