// Small measurement helpers shared by the workloads: clocks, order
// statistics, output digests and the process memory high-water mark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
double now_seconds();

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics (the "inclusive" definition). 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// FNV-1a 64 over the values a workload returned, so two builds can be
/// compared for bit-identical outputs without storing the outputs.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(long value) { add_bytes(&value, sizeof value); }
  void add(double value) { add_bytes(&value, sizeof value); }
  void add(const std::vector<int>& values);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
