// bench_diff — compare two BENCH_*.json files (or two directories of
// them) and report which numeric results moved. The perf safety net
// for PRs: CI runs the benches on a shared runner, so the output is a
// *conversation starter*, not a verdict — by default the tool prints
// the movement table and exits 0; --gate turns threshold breaches into
// a non-zero exit for jobs that want to block.
//
//   bench_diff <baseline.json|dir> <candidate.json|dir>
//              [--threshold PCT] [--gate]
//
// Every numeric leaf is flattened to a dotted path (arrays by index:
// workers[0].steps_per_sec), so the tool needs no knowledge of any
// bench's schema — new benches are covered the day they exist.
// Mismatched schema_version fields are flagged: the numbers still
// print, but the header says the comparison may be apples-to-oranges.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "np_json.hpp"

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void flatten(const np_json::Value& v, const std::string& path,
             std::map<std::string, double>& out) {
  switch (v.kind) {
    case np_json::Value::Kind::kNumber: out[path] = v.number; return;
    case np_json::Value::Kind::kObject:
      for (const auto& [key, child] : v.object) {
        flatten(child, path.empty() ? key : path + "." + key, out);
      }
      return;
    case np_json::Value::Kind::kArray:
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        flatten(v.array[i], path + "[" + std::to_string(i) + "]", out);
      }
      return;
    default: return;  // strings/bools/nulls are provenance, not results
  }
}

struct DiffStats {
  int compared = 0;
  int flagged = 0;
  int only_base = 0;
  int only_cand = 0;
};

/// Diff one parsed pair; prints the movement table. `label` prefixes
/// every path when diffing directories (file name).
void diff_documents(const np_json::Value& base, const np_json::Value& cand,
                    const std::string& label, double threshold_pct,
                    DiffStats& stats) {
  const double base_schema = base.num_or("schema_version", -1);
  const double cand_schema = cand.num_or("schema_version", -1);
  if (base_schema != cand_schema) {
    std::printf("%s: WARNING schema_version %.0f vs %.0f — fields may not "
                "be comparable\n",
                label.c_str(), base_schema, cand_schema);
  }

  std::map<std::string, double> before, after;
  flatten(base, "", before);
  flatten(cand, "", after);

  // Benches stamp hw_warning.thread_starved when recorded on a single
  // hardware thread (bench_common.hpp): scaling series from such a run
  // measure contention, not parallel speedup, so say it loudly before
  // anyone reads a worker curve off this table.
  for (const auto* side : {&before, &after}) {
    for (const auto& [path, value] : *side) {
      if (value != 0.0 && path.size() >= 25 &&
          path.rfind("hw_warning.thread_starved") ==
              path.size() - 25) {
        std::printf("%s: NOTICE %s run is thread-starved (hw_threads <= 1) — "
                    "worker-scaling numbers measure contention, not speedup\n",
                    label.c_str(), side == &before ? "baseline" : "candidate");
        break;
      }
    }
  }

  for (const auto& [path, was] : before) {
    const auto it = after.find(path);
    if (it == after.end()) {
      ++stats.only_base;
      std::printf("  %-52s %14.4g  (dropped)\n", (label + path).c_str(), was);
      continue;
    }
    const double now = it->second;
    ++stats.compared;
    if (now == was) continue;
    const double pct = was != 0.0
                           ? 100.0 * (now - was) / std::fabs(was)
                           : std::numeric_limits<double>::infinity();
    const bool flag = std::fabs(pct) >= threshold_pct;
    if (flag) ++stats.flagged;
    std::printf("  %-52s %14.4g -> %-14.4g %+8.1f%%%s\n",
                (label + path).c_str(), was, now, pct, flag ? "  <<" : "");
  }
  for (const auto& [path, now] : after) {
    if (before.find(path) != before.end()) continue;
    ++stats.only_cand;
    std::printf("  %-52s %14s -> %-14.4g (new)\n", (label + path).c_str(), "-",
                now);
  }
}

int run(int argc, char** argv) {
  const char* base_arg = nullptr;
  const char* cand_arg = nullptr;
  double threshold_pct = 10.0;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold" && i + 1 < argc) {
      threshold_pct = std::atof(argv[++i]);
    } else if (arg == "--gate") {
      gate = true;
    } else if (base_arg == nullptr) {
      base_arg = argv[i];
    } else if (cand_arg == nullptr) {
      cand_arg = argv[i];
    } else {
      base_arg = nullptr;
      break;
    }
  }
  if (base_arg == nullptr || cand_arg == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_diff <baseline.json|dir> <candidate.json|dir>"
                 " [--threshold PCT] [--gate]\n");
    return 2;
  }

  DiffStats stats;
  const bool dirs = fs::is_directory(base_arg);
  if (dirs != fs::is_directory(cand_arg)) {
    std::fprintf(stderr, "bench_diff: cannot mix a file and a directory\n");
    return 2;
  }
  if (!dirs) {
    std::printf("bench_diff: %s vs %s (threshold %.1f%%)\n", base_arg, cand_arg,
                threshold_pct);
    diff_documents(np_json::parse(read_file(base_arg)),
                   np_json::parse(read_file(cand_arg)), "", threshold_pct,
                   stats);
  } else {
    // Pair up BENCH_*.json by file name; a bench present on only one
    // side is reported, not an error (benches come and go across PRs).
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(base_arg)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
          name.substr(name.size() - 5) == ".json") {
        names.push_back(name);
      }
    }
    std::sort(names.begin(), names.end());
    std::printf("bench_diff: %s vs %s (threshold %.1f%%, %zu baseline files)\n",
                base_arg, cand_arg, threshold_pct, names.size());
    for (const std::string& name : names) {
      const fs::path base_file = fs::path(base_arg) / name;
      const fs::path cand_file = fs::path(cand_arg) / name;
      if (!fs::exists(cand_file)) {
        std::printf("%s: missing from candidate side\n", name.c_str());
        continue;
      }
      diff_documents(np_json::parse(read_file(base_file)),
                     np_json::parse(read_file(cand_file)), name + ": ",
                     threshold_pct, stats);
    }
    for (const auto& entry : fs::directory_iterator(cand_arg)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 &&
          !fs::exists(fs::path(base_arg) / name)) {
        std::printf("%s: new bench (no baseline)\n", name.c_str());
      }
    }
  }

  std::printf("compared %d metrics: %d over %.1f%% threshold, %d dropped, "
              "%d new\n",
              stats.compared, stats.flagged, threshold_pct, stats.only_base,
              stats.only_cand);
  if (gate && stats.flagged > 0) {
    std::fprintf(stderr, "bench_diff: --gate and %d metric(s) moved more "
                         "than %.1f%%\n",
                 stats.flagged, threshold_pct);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 1;
  }
}
