// np_perfbench: runs one workload and prints its raw measurements as
// one JSON object on stdout. run.py turns that into the benchmark's
// metrics; run it directly only to debug a workload.
//
//   np_perfbench --workload <name> [--seed N] [--seconds S]
//                [--trace-out trace.json]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

/// Appends `text` as a JSON string.
void put_string(std::string& out, const std::string& text) {
  out += '"';
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  out += '"';
}

void put_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out += buffer;
}

void put_array(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    put_number(out, values[i]);
  }
  out += ']';
}

void put_object(std::string& out, const std::map<std::string, double>& values) {
  out += '{';
  for (auto it = values.begin(); it != values.end(); ++it) {
    if (it != values.begin()) out += ',';
    put_string(out, it->first);
    out += ':';
    put_number(out, it->second);
  }
  out += '}';
}

void put_phase(std::string& out, const perfbench::Phase& phase) {
  out += "{\"job_seconds\":";
  put_array(out, phase.job_seconds);
  out += ",\"request_ms\":";
  put_array(out, phase.request_ms);
  out += ",\"work_units\":";
  put_number(out, phase.work_units);
  out += ",\"counters\":";
  put_object(out, phase.counters);
  out += '}';
}

std::string report_json(const std::string& workload, unsigned seed,
                        const perfbench::RunReport& report) {
  std::string out = "{\"workload\":";
  put_string(out, workload);
  out += ",\"seed\":";
  put_number(out, seed);
  out += ",\"attempted\":";
  put_number(out, static_cast<double>(report.attempted));
  out += ",\"failed\":";
  put_number(out, static_cast<double>(report.failed));
  out += ",\"failure_reasons\":[";
  for (std::size_t i = 0; i < report.failure_reasons.size(); ++i) {
    if (i > 0) out += ',';
    put_string(out, report.failure_reasons[i]);
  }
  out += "],\"setup_seconds\":";
  put_array(out, report.setup_seconds);
  out += ",\"timed\":";
  put_phase(out, report.timed);
  out += ",\"traced\":";
  put_phase(out, report.traced);
  out += ",\"traced_replies\":[";
  for (std::size_t i = 0; i < report.traced_replies.size(); ++i) {
    const perfbench::ReplyRecord& r = report.traced_replies[i];
    if (i > 0) out += ',';
    put_array(out, {static_cast<double>(r.id), r.written_us, r.handed_us, r.read_us});
  }
  out += "],\"digest\":";
  put_string(out, report.digest);
  out += ",\"inputs\":";
  put_object(out, report.inputs);
  out += ",\"properties\":";
  put_object(out, report.properties);
  out += ",\"layers\":";
  put_object(out, report.layers);
  out += ",\"peak_rss_mb\":";
  put_number(out, report.peak_rss_mb);
  out += '}';
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: np_perfbench --workload <name> [--seed N] [--seconds S] "
               "[--trace-out FILE]\nworkloads:");
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fputc('\n', stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      options.trace_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (options.workload.empty() || !(options.seconds > 0.0)) return usage();
  np::set_log_level(np::LogLevel::kError);

  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "np_perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("%s\n", report_json(options.workload, options.seed, report).c_str());
  return 0;
}
