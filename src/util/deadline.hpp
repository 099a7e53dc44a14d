// Monotonic wall-clock deadline threaded through the solver stack so
// every scenario check is bounded in *time*, not just iterations: one
// degenerate LP must never stall an epoch. A Deadline is a point on
// std::chrono::steady_clock; the default-constructed value is
// unlimited and costs a single branch to test, so plumbing it through
// hot paths is free for callers that never set one.
//
// It is the only time bound below the planners' "seconds" settings:
// each planner converts its budget once, every solve under it tests
// that deadline, and two budgets combine through earliest().
#pragma once

#include <algorithm>
#include <chrono>
#include <limits>

namespace np::util {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unlimited: never expires.
  Deadline() = default;

  /// Expires `seconds` of wall clock from now. Non-positive budgets
  /// produce an already-expired deadline (callers treat "no budget
  /// left" uniformly). A budget the clock cannot represent (+inf, NaN,
  /// or more than half the clock's range) is unlimited and reads no
  /// clock: converting it would overflow.
  static Deadline after_seconds(double seconds) {
    constexpr double kRepresentable =
        0.5 * std::chrono::duration<double>(Clock::duration::max()).count();
    if (!(seconds < kRepresentable)) return unlimited();
    Deadline d;
    d.unlimited_ = false;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(std::max(seconds, 0.0)));
    return d;
  }

  static Deadline unlimited() { return Deadline(); }

  /// The sooner of two deadlines; unlimited is the neutral element.
  static Deadline earliest(const Deadline& a, const Deadline& b) {
    if (a.unlimited_) return b;
    if (b.unlimited_) return a;
    return b.at_ < a.at_ ? b : a;
  }

  bool is_unlimited() const { return unlimited_; }

  /// True once the deadline has passed. Unlimited deadlines never
  /// expire and skip the clock read entirely.
  bool expired() const { return !unlimited_ && Clock::now() >= at_; }

  /// Seconds of budget left (clamped at 0); +inf when unlimited.
  double remaining_seconds() const {
    if (unlimited_) return std::numeric_limits<double>::infinity();
    const double left = std::chrono::duration<double>(at_ - Clock::now()).count();
    return left > 0.0 ? left : 0.0;
  }

 private:
  bool unlimited_ = true;
  Clock::time_point at_{};
};

}  // namespace np::util
