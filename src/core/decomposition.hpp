// Topology decomposition (§3.2, first production heuristic):
// "We decompose the topology into several smaller sub-topologies, and
// each sub-topology is solved with an ILP. The decomposition is usually
// done by segmenting the topology into geographical regions ... and
// sizing inter-regional links ... The segmentation and stitching are
// done manually."
//
// Automated rendition: regions come from Site::region; inter-regional
// links are sized by worst-case shortest-path load over all scenarios
// (size_by_shortest_paths, the greedy design's sizing);
// each region becomes a sub-topology (its sites, fibers, links, the
// healthy-path-induced internal flow segments, and the failures that
// touch it) solved independently with the lazy MILP; the stitched plan
// is verified against the full problem and repaired with the greedy
// design where the decomposition's blind spots (cross-region reroutes
// under failures) left gaps.
#pragma once

#include "core/lazy_solve.hpp"
#include "core/planner.hpp"

namespace np::core {

struct DecompositionResult {
  PlanResult plan;
  int regions = 0;
  /// True when the stitched plan needed the greedy repair pass.
  bool repaired = false;
};

/// `regional` configures each region's lazy MILP (budget, gap) at base
/// capacity units.
DecompositionResult solve_region_decomposition(const topo::Topology& topology,
                                               const LazySolveConfig& regional = {});

}  // namespace np::core
