// Topology model, node-link transformation, generator presets and
// serialization round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <sstream>

#include "temp_path.hpp"
#include "topo/generator.hpp"
#include "topo/serialize.hpp"
#include "topo/topology.hpp"
#include "topo/paths.hpp"
#include "topo/transform.hpp"

namespace np::topo {
namespace {

/// The Figure 1 example: sites A..F, ring fibers, two/three IP links.
Topology figure1_topology() {
  Topology t;
  t.set_name("figure1");
  t.set_capacity_unit_gbps(100.0);
  const int a = t.add_site({"A", 0, 0, 0});
  const int b = t.add_site({"B", 1, 1, 0});
  const int c = t.add_site({"C", 2, 1, 0});
  const int d = t.add_site({"D", 3, 0, 0});
  const int e = t.add_site({"E", 1, -1, 0});
  const int f = t.add_site({"F", 2, -1, 0});
  auto fiber = [&](int s1, int s2, const std::string& name) {
    Fiber fb;
    fb.site_a = s1; fb.site_b = s2;
    fb.length_km = 100.0; fb.spectrum_ghz = 4800.0; fb.build_cost = 1000.0;
    fb.name = name;
    return t.add_fiber(fb);
  };
  const int f_ab = fiber(a, b, "A-B");
  const int f_bc = fiber(b, c, "B-C");
  const int f_cd = fiber(c, d, "C-D");
  const int f_ae = fiber(a, e, "A-E");
  const int f_ef = fiber(e, f, "E-F");
  const int f_fd = fiber(f, d, "F-D");
  auto link = [&](int s1, int s2, std::vector<int> path, const std::string& name) {
    IpLink l;
    l.site_a = s1; l.site_b = s2;
    l.fiber_path = std::move(path);
    l.spectrum_per_unit_ghz = 37.5;
    l.name = name;
    return t.add_ip_link(std::move(l));
  };
  link(a, d, {f_ab, f_bc, f_cd}, "link1");  // A-B-C-D
  link(a, d, {f_ae, f_ef, f_fd}, "link2");  // A-E-F-D
  t.add_flow({a, d, 100.0, CoS::kGold});
  t.add_failure({{f_ae}, {}, "cut-A-E"});
  t.add_failure({{f_bc}, {}, "cut-B-C"});
  return t;
}

TEST(Topology, Figure1Builds) {
  Topology t = figure1_topology();
  t.validate();
  EXPECT_EQ(t.num_sites(), 6);
  EXPECT_EQ(t.num_fibers(), 6);
  EXPECT_EQ(t.num_links(), 2);
  EXPECT_DOUBLE_EQ(t.link_length_km(0), 300.0);
}

TEST(Topology, RejectsBadFiber) {
  Topology t;
  t.add_site({"A", 0, 0, 0});
  t.add_site({"B", 0, 0, 0});
  Fiber f;
  f.site_a = 0; f.site_b = 5; f.length_km = 1; f.spectrum_ghz = 1;
  EXPECT_THROW(t.add_fiber(f), std::invalid_argument);
  f.site_b = 0;
  EXPECT_THROW(t.add_fiber(f), std::invalid_argument);  // self loop
  f.site_b = 1; f.length_km = -1;
  EXPECT_THROW(t.add_fiber(f), std::invalid_argument);
}

TEST(Topology, RejectsDisconnectedFiberPath) {
  Topology t = figure1_topology();
  IpLink l;
  l.site_a = 0; l.site_b = 3;
  l.fiber_path = {0, 4};  // A-B then E-F: not a walk
  EXPECT_THROW(t.add_ip_link(std::move(l)), std::invalid_argument);
}

TEST(Topology, RejectsPathNotReachingEndpoint) {
  Topology t = figure1_topology();
  IpLink l;
  l.site_a = 0; l.site_b = 3;
  l.fiber_path = {0};  // A-B only
  EXPECT_THROW(t.add_ip_link(std::move(l)), std::invalid_argument);
}

TEST(Topology, RejectsBadFlow) {
  Topology t = figure1_topology();
  EXPECT_THROW(t.add_flow({0, 0, 10.0, CoS::kGold}), std::invalid_argument);
  EXPECT_THROW(t.add_flow({0, 99, 10.0, CoS::kGold}), std::invalid_argument);
  EXPECT_THROW(t.add_flow({0, 1, -5.0, CoS::kGold}), std::invalid_argument);
}

TEST(Topology, RejectsBadFailure) {
  Topology t = figure1_topology();
  EXPECT_THROW(t.add_failure({{99}, {}, "bad"}), std::invalid_argument);
  EXPECT_THROW(t.add_failure({{}, {99}, "bad"}), std::invalid_argument);
}

TEST(Topology, LinkFailedLogic) {
  Topology t = figure1_topology();
  EXPECT_FALSE(t.link_failed(0, t.failure(0)));  // cut A-E does not hit link1
  EXPECT_TRUE(t.link_failed(1, t.failure(0)));   // ... but kills link2
  EXPECT_TRUE(t.link_failed(0, t.failure(1)));   // cut B-C kills link1
  Failure site_failure{{}, {0}, "site-A"};
  EXPECT_TRUE(t.link_failed(0, site_failure));   // endpoint down
  EXPECT_TRUE(t.link_failed(1, site_failure));
}

TEST(Topology, FlowRequiredHonorsPolicyAndEndpoints) {
  Topology t = figure1_topology();
  t.add_flow({1, 2, 50.0, CoS::kSilver});
  const Failure healthy{{}, {}, "none"};
  EXPECT_TRUE(t.flow_required(t.flow(0), healthy));
  EXPECT_TRUE(t.flow_required(t.flow(1), healthy));  // silver, healthy: required
  EXPECT_TRUE(t.flow_required(t.flow(0), t.failure(0)));   // gold under failure
  EXPECT_FALSE(t.flow_required(t.flow(1), t.failure(0)));  // silver not protected
  const Failure site_a{{}, {0}, "site-A"};
  EXPECT_FALSE(t.flow_required(t.flow(0), site_a));  // endpoint down
}

TEST(Topology, SpectrumAccounting) {
  Topology t = figure1_topology();
  std::vector<int> units = {2, 3};
  // Fiber A-B carries only link1 (2 units * 37.5).
  EXPECT_DOUBLE_EQ(t.fiber_spectrum_used(0, units), 75.0);
  EXPECT_DOUBLE_EQ(t.fiber_spectrum_used(3, units), 112.5);
  const int max_units = t.link_max_units(0);
  EXPECT_EQ(max_units, static_cast<int>(4800.0 / 37.5));
  EXPECT_EQ(t.spectrum_headroom_units(0, units), max_units - 2);
}

TEST(Topology, HeadroomAccountsForSharedFibers) {
  Topology t = figure1_topology();
  // Add link3 = A-B-F-D style: reuse fiber A-B so link1 and link3 share it.
  IpLink l;
  l.site_a = 0; l.site_b = 2;
  l.fiber_path = {0, 1};  // A-B, B-C -> A to C
  l.spectrum_per_unit_ghz = 37.5;
  l.name = "link3";
  t.add_ip_link(std::move(l));
  std::vector<int> units = {100, 0, 20};
  // Fiber A-B: (100+20)*37.5 = 4500 used of 4800 -> 300/37.5 = 8 units left.
  EXPECT_EQ(t.spectrum_headroom_units(0, units), 8);
  EXPECT_EQ(t.spectrum_headroom_units(2, units), 8);
}

TEST(Topology, PlanCostUsesUnitCosts) {
  Topology t = figure1_topology();
  t.set_cost_model({0.01, 0.0});
  // link1 length 300km: unit cost = 100 * 0.01 * 300 = 300.
  EXPECT_NEAR(t.link_unit_cost(0), 300.0, 1e-9);
  EXPECT_NEAR(t.plan_cost({2, 1}), 2 * 300.0 + 300.0, 1e-9);
  EXPECT_THROW(t.plan_cost({1}), std::invalid_argument);
  EXPECT_THROW(t.plan_cost({-1, 0}), std::invalid_argument);
}

TEST(Topology, FiberCostAmortizedIntoUnitCost) {
  Topology t = figure1_topology();
  t.set_cost_model({0.0, 1.0});
  // Unit cost = sum over 3 fibers of 1000 * (37.5/4800).
  EXPECT_NEAR(t.link_unit_cost(0), 3 * 1000.0 * 37.5 / 4800.0, 1e-9);
}

TEST(Topology, SetLinkInitialUnitsValidates) {
  Topology t = figure1_topology();
  t.set_link_initial_units(0, 5);
  EXPECT_EQ(t.link(0).initial_units, 5);
  EXPECT_THROW(t.set_link_initial_units(0, -1), std::invalid_argument);
  EXPECT_THROW(t.set_link_initial_units(0, 100000), std::invalid_argument);
  EXPECT_THROW(t.set_link_initial_units(99, 1), std::invalid_argument);
}

TEST(Topology, ValidateCatchesOversubscribedInitialCapacity) {
  Topology t = figure1_topology();
  // 4800/37.5 = 128 max units; setting via the checked API refuses more,
  // so validate() on a fresh topology is clean.
  EXPECT_NO_THROW(t.validate());
}

// ---- node-link transformation ----

TEST(Transform, Figure5Example) {
  // The paper's Figure 5: nodes A,B,C,D,E; links AB, AD, DE, CE, BC1, BC2.
  Topology t;
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    t.add_site({name, 0, 0, 0});
  }
  auto fiber = [&](int a, int b) {
    Fiber f;
    f.site_a = a; f.site_b = b; f.length_km = 1.0; f.spectrum_ghz = 1000.0;
    return t.add_fiber(f);
  };
  auto link = [&](int a, int b, const char* name) {
    IpLink l;
    l.site_a = a; l.site_b = b;
    l.fiber_path = {fiber(a, b)};
    l.spectrum_per_unit_ghz = 1.0;
    l.name = name;
    return t.add_ip_link(std::move(l));
  };
  const int ab = link(0, 1, "AB");
  const int ad = link(0, 3, "AD");
  const int de = link(3, 4, "DE");
  const int ce = link(2, 4, "CE");
  const int bc1 = link(1, 2, "BC1");
  const int bc2 = link(1, 2, "BC2");

  TransformedGraph g = node_link_transform(t);
  EXPECT_EQ(g.num_nodes, 6);
  std::set<std::pair<int, int>> edges(g.edges.begin(), g.edges.end());
  auto has = [&](int i, int j) {
    return edges.count({std::min(i, j), std::max(i, j)}) > 0;
  };
  // Shared-endpoint pairs from the figure.
  EXPECT_TRUE(has(ab, ad));    // share A
  EXPECT_TRUE(has(ab, bc1));   // share B
  EXPECT_TRUE(has(ab, bc2));
  EXPECT_TRUE(has(ad, de));    // share D
  EXPECT_TRUE(has(de, ce));    // share E
  EXPECT_TRUE(has(ce, bc1));   // share C
  EXPECT_TRUE(has(ce, bc2));
  // Parallel links must NOT be connected.
  EXPECT_FALSE(has(bc1, bc2));
  // Non-adjacent links are not connected.
  EXPECT_FALSE(has(ab, ce));
  EXPECT_FALSE(has(ad, bc1));
  // Exactly the 7 shared-endpoint pairs enumerated above.
  EXPECT_EQ(edges.size(), 7u);
}

TEST(Transform, EdgeCountMatchesManualEnumeration) {
  Topology t = figure1_topology();
  // link1 (A-D) and link2 (A-D) are parallel -> no edges at all.
  TransformedGraph g = node_link_transform(t);
  EXPECT_EQ(g.num_nodes, 2);
  EXPECT_TRUE(g.edges.empty());
}

TEST(Transform, NormalizedAdjacencyRowSumsForRegularGraph) {
  // For Â = D^-1/2 (A+I) D^-1/2 on a k-regular graph every row sums to 1.
  Topology t;
  for (int i = 0; i < 4; ++i) t.add_site({"s" + std::to_string(i), 0, 0, 0});
  auto link = [&](int a, int b) {
    Fiber f;
    f.site_a = a; f.site_b = b; f.length_km = 1.0; f.spectrum_ghz = 1000.0;
    const int fid = t.add_fiber(f);
    IpLink l;
    l.site_a = a; l.site_b = b; l.fiber_path = {fid};
    t.add_ip_link(std::move(l));
  };
  // A 4-cycle of links: transformed graph is a 4-cycle (2-regular).
  link(0, 1);
  link(1, 2);
  link(2, 3);
  link(3, 0);
  TransformedGraph g = node_link_transform(t);
  ASSERT_EQ(g.num_nodes, 4);
  EXPECT_EQ(g.edges.size(), 4u);
  la::Matrix dense = g.normalized_adjacency->to_dense();
  for (std::size_t r = 0; r < 4; ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < 4; ++c) row_sum += dense(r, c);
    EXPECT_NEAR(row_sum, 1.0, 1e-12);
  }
}

TEST(Transform, AdjacencyIsSymmetric) {
  Topology t = make_preset('B');
  TransformedGraph g = node_link_transform(t);
  la::Matrix dense = g.normalized_adjacency->to_dense();
  EXPECT_LT(la::max_abs_diff(dense, dense.transposed()), 1e-12);
}

TEST(Transform, FeaturesAreZNormalized) {
  Topology t = make_preset('A');
  std::vector<int> units = t.initial_units();
  units[0] += 5;  // make it non-constant
  la::Matrix f = node_features(t, units, true);
  ASSERT_EQ(f.rows(), static_cast<std::size_t>(t.num_links()));
  ASSERT_EQ(f.cols(), 4u);
  double mean = 0.0, var = 0.0;
  for (std::size_t i = 0; i < f.rows(); ++i) mean += f(i, 0);
  mean /= static_cast<double>(f.rows());
  for (std::size_t i = 0; i < f.rows(); ++i) var += (f(i, 0) - mean) * (f(i, 0) - mean);
  var /= static_cast<double>(f.rows());
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(var, 1.0, 1e-9);
}

TEST(Transform, ConstantCapacityNormalizesToZero) {
  Topology t = make_preset('A');
  std::vector<int> units(t.num_links(), 3);
  la::Matrix f = node_features(t, units, false);
  ASSERT_EQ(f.cols(), 1u);
  for (std::size_t i = 0; i < f.rows(); ++i) EXPECT_DOUBLE_EQ(f(i, 0), 0.0);
}

TEST(Transform, FeatureDimensionMatches) {
  EXPECT_EQ(feature_dimension(true), 4);
  EXPECT_EQ(feature_dimension(false), 1);
}

TEST(Transform, RejectsWrongUnitVectorSize) {
  Topology t = make_preset('A');
  EXPECT_THROW(node_features(t, {1, 2, 3}, true), std::invalid_argument);
}

// ---- generator ----

TEST(Generator, PresetsAscendInSize) {
  int prev_links = 0, prev_failures = 0, prev_flows = 0;
  for (char id : {'A', 'B', 'C', 'D', 'E'}) {
    Topology t = make_preset(id);
    EXPECT_NO_THROW(t.validate()) << id;
    EXPECT_GT(t.num_links(), prev_links) << id;
    EXPECT_GT(t.num_failures(), prev_failures) << id;
    EXPECT_GT(t.num_flows(), prev_flows) << id;
    prev_links = t.num_links();
    prev_failures = t.num_failures();
    prev_flows = t.num_flows();
  }
}

TEST(Generator, DeterministicForSeed) {
  Topology a = make_preset('B', 7);
  Topology b = make_preset('B', 7);
  EXPECT_EQ(to_text(a), to_text(b));
}

TEST(Generator, DifferentSeedsDiffer) {
  Topology a = make_preset('B', 7);
  Topology b = make_preset('B', 8);
  EXPECT_NE(to_text(a), to_text(b));
}

TEST(Generator, RejectsBadParams) {
  GeneratorParams p;
  p.sites_per_region = 2;
  EXPECT_THROW(generate(p), std::invalid_argument);
  p = GeneratorParams{};
  p.num_flows = 0;
  EXPECT_THROW(generate(p), std::invalid_argument);
}

TEST(Generator, UnknownPresetThrows) {
  EXPECT_THROW(preset('Z'), std::invalid_argument);
}

TEST(Generator, EveryRequiredFlowSurvivesEveryFailureTopologically) {
  for (char id : {'A', 'B', 'C'}) {
    Topology t = make_preset(id);
    for (int k = 0; k < t.num_failures(); ++k) {
      const Failure& failure = t.failure(k);
      for (int fl = 0; fl < t.num_flows(); ++fl) {
        if (!t.flow_required(t.flow(fl), failure)) continue;
        // BFS over surviving links.
        std::vector<std::vector<int>> adj(t.num_sites());
        for (int l = 0; l < t.num_links(); ++l) {
          if (t.link_failed(l, failure)) continue;
          adj[t.link(l).site_a].push_back(t.link(l).site_b);
          adj[t.link(l).site_b].push_back(t.link(l).site_a);
        }
        std::vector<bool> seen(t.num_sites(), false);
        std::vector<int> stack = {t.flow(fl).src};
        seen[t.flow(fl).src] = true;
        while (!stack.empty()) {
          const int u = stack.back();
          stack.pop_back();
          for (int v : adj[u]) {
            if (!seen[v]) {
              seen[v] = true;
              stack.push_back(v);
            }
          }
        }
        EXPECT_TRUE(seen[t.flow(fl).dst])
            << "topology " << id << " failure " << failure.name;
      }
    }
  }
}

TEST(Generator, InitialCapacityRespectsSpectrum) {
  Topology t = make_preset('C');
  const auto units = t.initial_units();
  for (int f = 0; f < t.num_fibers(); ++f) {
    EXPECT_LE(t.fiber_spectrum_used(f, units), t.fiber(f).spectrum_ghz + 1e-9);
  }
}

TEST(Generator, ScaleInitialCapacityVariants) {
  Topology base = make_preset('A');
  Topology zero = scale_initial_capacity(base, 0.0);
  for (int l = 0; l < zero.num_links(); ++l) {
    EXPECT_EQ(zero.link(l).initial_units, 0);
  }
  Topology same = scale_initial_capacity(base, 1.0);
  for (int l = 0; l < same.num_links(); ++l) {
    EXPECT_EQ(same.link(l).initial_units, base.link(l).initial_units);
  }
  Topology half = scale_initial_capacity(base, 0.5);
  for (int l = 0; l < half.num_links(); ++l) {
    EXPECT_LE(half.link(l).initial_units, base.link(l).initial_units);
  }
  EXPECT_THROW(scale_initial_capacity(base, -0.1), std::invalid_argument);
}

TEST(Generator, HasParallelLinks) {
  Topology t = make_preset('C');
  bool found_parallel = false;
  for (int i = 0; i < t.num_links() && !found_parallel; ++i) {
    for (int j = i + 1; j < t.num_links(); ++j) {
      const auto& a = t.link(i);
      const auto& b = t.link(j);
      if (std::minmax(a.site_a, a.site_b) == std::minmax(b.site_a, b.site_b)) {
        EXPECT_NE(a.fiber_path, b.fiber_path);  // distinct fiber paths
        found_parallel = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_parallel);
}

TEST(Generator, DistanceAdaptiveModulationTiersSpectrum) {
  GeneratorParams p = preset('C');
  p.distance_adaptive_modulation = true;
  Topology t = generate(p);
  const double mid = p.spectrum_per_unit_ghz;
  int short_links = 0, long_links = 0;
  for (int l = 0; l < t.num_links(); ++l) {
    const double spu = t.link(l).spectrum_per_unit_ghz;
    const double length = t.link_length_km(l);
    if (length < p.short_reach_km) {
      EXPECT_NEAR(spu, mid * 2.0 / 3.0, 1e-9);
      ++short_links;
    } else if (length > p.long_reach_km) {
      EXPECT_NEAR(spu, mid * 4.0 / 3.0, 1e-9);
      ++long_links;
    } else {
      EXPECT_NEAR(spu, mid, 1e-9);
    }
  }
  // The multi-region layout must produce both tiers.
  EXPECT_GT(short_links, 0);
  EXPECT_GT(long_links, 0);
  EXPECT_NO_THROW(t.validate());
}

TEST(Generator, ConduitFailuresCutTwinPairs) {
  GeneratorParams p = preset('B');
  p.conduit_failures = true;
  Topology t = generate(p);
  int conduits = 0;
  for (int k = 0; k < t.num_failures(); ++k) {
    const Failure& failure = t.failure(k);
    if (failure.name.rfind("conduit-", 0) != 0) continue;
    ++conduits;
    ASSERT_EQ(failure.fibers.size(), 2u);
    const Fiber& a = t.fiber(failure.fibers[0]);
    const Fiber& b = t.fiber(failure.fibers[1]);
    // Twin fibers connect the same sites.
    EXPECT_EQ(std::minmax(a.site_a, a.site_b), std::minmax(b.site_a, b.site_b));
  }
  EXPECT_GT(conduits, 0);
  // Conduit failures must still leave every required flow connected.
  for (int k = 0; k < t.num_failures(); ++k) {
    for (int fl = 0; fl < t.num_flows(); ++fl) {
      if (!t.flow_required(t.flow(fl), t.failure(k))) continue;
      std::vector<bool> usable(t.num_links());
      for (int l = 0; l < t.num_links(); ++l) {
        usable[l] = !t.link_failed(l, t.failure(k));
      }
      EXPECT_FALSE(
          shortest_ip_path(t, t.flow(fl).src, t.flow(fl).dst, usable).empty());
    }
  }
}

// ---- serialization ----

TEST(Serialize, RoundTripPreservesEverything) {
  for (char id : {'A', 'B'}) {
    Topology original = make_preset(id);
    Topology reloaded = from_text(to_text(original));
    EXPECT_EQ(to_text(original), to_text(reloaded));
    EXPECT_EQ(reloaded.num_sites(), original.num_sites());
    EXPECT_EQ(reloaded.num_fibers(), original.num_fibers());
    EXPECT_EQ(reloaded.num_links(), original.num_links());
    EXPECT_EQ(reloaded.num_flows(), original.num_flows());
    EXPECT_EQ(reloaded.num_failures(), original.num_failures());
    EXPECT_DOUBLE_EQ(reloaded.capacity_unit_gbps(), original.capacity_unit_gbps());
    EXPECT_NO_THROW(reloaded.validate());
  }
}

TEST(Serialize, QuotedNamesWithSpacesSurvive) {
  Topology t = figure1_topology();
  t.set_name("my topology \"quoted\"");
  Topology r = from_text(to_text(t));
  EXPECT_EQ(r.name(), "my topology \"quoted\"");
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  Topology t = figure1_topology();
  std::string text = "# header comment\n\n" + to_text(t) + "\n# trailing\n";
  EXPECT_NO_THROW(from_text(text));
}

TEST(Serialize, UnknownRecordThrowsWithLineNumber) {
  try {
    from_text("topology \"x\"\nbogus 1 2 3\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Serialize, TruncatedRecordThrows) {
  EXPECT_THROW(from_text("site \"A\" 1.0\n"), std::runtime_error);
}

/// `text` with every field separator outside quotes replaced by `sep`
/// and every line ending by `eol`.
std::string reformat(const std::string& text, const std::string& sep,
                     const std::string& eol) {
  std::string out;
  bool in_quotes = false;
  for (char c : text) {
    if (c == '"') in_quotes = !in_quotes;
    if (c == ' ' && !in_quotes) {
      out += sep;
    } else if (c == '\n') {
      out += eol;
    } else {
      out += c;
    }
  }
  return out;
}

TEST(Serialize, CrlfAndTabSeparatedRecordsParse) {
  const std::string text = to_text(make_preset('A'));
  EXPECT_EQ(to_text(from_text(reformat(text, " ", "\r\n"))), text);
  EXPECT_EQ(to_text(from_text(reformat(text, "\t", "\n"))), text);
  const std::string spaced = reformat(text, " \t\v\f ", "\r\n");
  EXPECT_EQ(to_text(from_text(spaced)), text);
  std::istringstream in(spaced);
  EXPECT_EQ(to_text(load(in)), text);
}

TEST(Serialize, NumbersReadAsStrtodReadsThem) {
  // Full precision, exponents, a leading '+', signed zero, subnormals
  // and underflow to zero: every value carries strtod's bits.
  for (const char* number :
       {"0.1", "3.141592653589793", "0.30000000000000004", "1e+06", "1E-3", "+2.5",
        "-0", "5.", ".5", "-.5e2", "123456789012345678901234567890",
        "2.2250738585072014e-308", "1.7976931348623157e308",
        "4.9406564584124654e-324", "2e-320", "1e-400", "-1e-400"}) {
    const Topology t = from_text(std::string("site \"s\" ") + number + " 0 0\n");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(t.site(0).x),
              std::bit_cast<std::uint64_t>(std::strtod(number, nullptr)))
        << number;
  }
}

TEST(Serialize, MalformedNumbersAreParseErrors) {
  for (const char* number : {"inf", "-inf", "nan", "1e400", "-1e999", "1e", "1e+", ".",
                             "+", "-", "+-1", "x"}) {
    EXPECT_THROW(from_text(std::string("site \"s\" ") + number + " 0 0\n"),
                 std::runtime_error)
        << number;
  }
  // int's range: one past either end is a parse error, the ends parse.
  for (const char* region : {"2147483648", "-2147483649", "99999999999", "+-1"}) {
    EXPECT_THROW(from_text(std::string("site \"s\" 0 0 ") + region + "\n"),
                 std::runtime_error)
        << region;
  }
  EXPECT_EQ(from_text("site \"s\" 0 0 2147483647\n").site(0).region, 2147483647);
  EXPECT_EQ(from_text("site \"s\" 0 0 -2147483648\n").site(0).region, -2147483647 - 1);
  EXPECT_EQ(from_text("site \"s\" 0 0 +7\n").site(0).region, 7);
  try {
    from_text("topology \"x\"\nunit 10\npolicy 4294967296\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(Serialize, FileRoundTrip) {
  Topology t = make_preset('A');
  const std::string path = test::temp_path("np_topo_roundtrip.txt");
  save_file(t, path);
  Topology r = load_file(path);
  EXPECT_EQ(to_text(t), to_text(r));
  EXPECT_THROW(load_file("/nonexistent/dir/file.txt"), std::runtime_error);
}

}  // namespace
}  // namespace np::topo
