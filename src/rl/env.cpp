#include "rl/env.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace np::rl {

namespace {

/// Wall-clock budget per scenario solve. A scenario that exhausts it
/// reports Verdict::kUnknown and the env degrades conservatively: the
/// plan counts as not-yet-feasible and the episode keeps adding
/// capacity. It bounds a single pathological LP without ever firing on
/// the paper-scale topologies, whose scenario solves run in
/// milliseconds.
constexpr double kScenarioTimeLimitSeconds = 60.0;

}  // namespace

PlanningEnv::PlanningEnv(const topo::Topology& topology, const EnvConfig& config)
    : topology_(topology),
      config_(config),
      transform_(topo::node_link_transform(topology)),
      evaluator_(topology),
      initial_units_(topology.initial_units()) {
  if (config.max_units_per_step < 1) {
    throw std::invalid_argument("PlanningEnv: max_units_per_step must be >= 1");
  }
  if (config.max_trajectory_steps < 1) {
    throw std::invalid_argument("PlanningEnv: max_trajectory_steps must be >= 1");
  }
  evaluator_.set_scenario_budget(kScenarioTimeLimitSeconds);
  // Reward scale: the most expensive possible single step, so each
  // intermediate reward lands in [-1, 0] (§4.2 "reward representation").
  double max_unit_cost = 0.0;
  for (int l = 0; l < topology.num_links(); ++l) {
    max_unit_cost = std::max(max_unit_cost, topology.link_unit_cost(l));
  }
  reward_scale_ = std::max(1e-9, max_unit_cost * config.max_units_per_step);
  reset();
}

void PlanningEnv::reset() {
  units_ = initial_units_;
  steps_ = 0;
  done_ = false;
}

la::Matrix PlanningEnv::features() const {
  return topo::node_features(topology_, units_, config_.include_static_features);
}

void PlanningEnv::features_into(la::Matrix& out) const {
  topo::node_features_into(topology_, units_, config_.include_static_features,
                           out);
}

std::vector<std::uint8_t> PlanningEnv::action_mask() const {
  std::vector<std::uint8_t> mask;
  action_mask_into(mask);
  return mask;
}

void PlanningEnv::action_mask_into(std::vector<std::uint8_t>& mask) const {
  mask.assign(num_actions(), 0);
  for (int l = 0; l < topology_.num_links(); ++l) {
    const int headroom = topology_.spectrum_headroom_units(l, units_);
    const int allowed = std::min(headroom, config_.max_units_per_step);
    for (int k = 1; k <= allowed; ++k) {
      mask[l * config_.max_units_per_step + (k - 1)] = 1;
    }
  }
#if NP_CHECKS_ENABLED
  // Post-condition (Eq. 4): the mask must agree with a fresh headroom
  // recomputation — a stale or corrupted mask corrupts the policy's
  // action distribution silently.
  std::vector<int> headroom_units(topology_.num_links());
  for (int l = 0; l < topology_.num_links(); ++l) {
    headroom_units[l] = topology_.spectrum_headroom_units(l, units_);
  }
  NP_CHECK_ACTION_MASK(mask, headroom_units, config_.max_units_per_step,
                       "PlanningEnv::action_mask");
#endif
}

bool PlanningEnv::has_valid_action() const {
  for (int l = 0; l < topology_.num_links(); ++l) {
    if (topology_.spectrum_headroom_units(l, units_) > 0) return true;
  }
  return false;
}

StepResult PlanningEnv::step(int flat_action) {
  if (done_) throw std::logic_error("PlanningEnv::step: episode is done");
  if (flat_action < 0 || flat_action >= num_actions()) {
    throw std::invalid_argument("PlanningEnv::step: action out of range");
  }
  const int link = flat_action / config_.max_units_per_step;
  const int add = flat_action % config_.max_units_per_step + 1;
  if (topology_.spectrum_headroom_units(link, units_) < add) {
    throw std::invalid_argument("PlanningEnv::step: masked action (spectrum)");
  }

  units_[link] += add;
  ++steps_;

  StepResult result;
  result.reward = -(add * topology_.link_unit_cost(link)) / reward_scale_;

  if (evaluator_.check(units_).feasible) {
    result.done = true;
    result.feasible = true;
  } else if (steps_ >= config_.max_trajectory_steps || !has_valid_action()) {
    result.done = true;
    result.truncated = true;
    result.reward += -1.0;  // timeout penalty (§4.2)
  }
  done_ = result.done;
  return result;
}

void PlanningEnv::restore_units(const std::vector<int>& units) {
  if (units.size() != static_cast<std::size_t>(topology_.num_links())) {
    throw std::invalid_argument("PlanningEnv::restore_units: size mismatch");
  }
  for (std::size_t l = 0; l < units.size(); ++l) {
    if (units[l] < initial_units_[l]) {
      throw std::invalid_argument(
          "PlanningEnv::restore_units: units below initial topology");
    }
  }
  units_ = units;
}

std::vector<int> PlanningEnv::added_units() const {
  std::vector<int> added(units_.size());
  for (std::size_t l = 0; l < units_.size(); ++l) {
    added[l] = units_[l] - initial_units_[l];
  }
  return added;
}

double PlanningEnv::added_cost() const { return topology_.plan_cost(added_units()); }

}  // namespace np::rl
