// Neural-network microbenchmarks (google-benchmark): GCN and
// actor-critic forward/backward at the node counts of the preset
// topologies — the per-RL-step compute of the training loop.
#include <benchmark/benchmark.h>

#include "ad/adam.hpp"
#include "nn/actor_critic.hpp"
#include "topo/generator.hpp"
#include "topo/transform.hpp"
#include "util/rng.hpp"

namespace {

using namespace np;

struct Setup {
  topo::Topology topology;
  topo::TransformedGraph graph;
  la::Matrix features;
  std::vector<std::uint8_t> mask;
  nn::ActorCritic net;

  static Setup make(char id) {
    Rng rng(3);
    topo::Topology t = topo::make_preset(id);
    topo::TransformedGraph g = topo::node_link_transform(t);
    la::Matrix f = topo::node_features(t, t.initial_units(), true);
    nn::NetworkConfig c;
    c.feature_dim = 4;
    c.gcn_layers = 2;
    c.gcn_hidden = 32;
    c.mlp_hidden = {64, 64};
    c.max_units_per_step = 4;
    std::vector<std::uint8_t> mask(t.num_links() * 4, 1);
    return Setup{std::move(t), std::move(g), std::move(f), std::move(mask),
                 nn::ActorCritic(c, rng)};
  }
};

void BM_PolicyForward(benchmark::State& state) {
  Setup s = Setup::make(static_cast<char>('A' + state.range(0)));
  for (auto _ : state) {
    ad::Tape tape;
    ad::Tensor lp = s.net.policy_log_probs(tape, s.graph.normalized_adjacency,
                                           s.features, s.mask);
    benchmark::DoNotOptimize(tape.data(lp)[0]);
  }
}
BENCHMARK(BM_PolicyForward)->Arg(0)->Arg(2)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_PolicyForwardBackward(benchmark::State& state) {
  Setup s = Setup::make(static_cast<char>('A' + state.range(0)));
  for (auto _ : state) {
    for (ad::Parameter* p : s.net.all_parameters()) p->zero_grad();
    ad::Tape tape;
    ad::Tensor lp = s.net.policy_log_probs(tape, s.graph.normalized_adjacency,
                                           s.features, s.mask);
    tape.backward(tape.pick(lp, 0, 0));
    benchmark::DoNotOptimize(s.net.all_parameters()[0]->grad.max_abs());
  }
}
BENCHMARK(BM_PolicyForwardBackward)->Arg(0)->Arg(2)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_CriticForward(benchmark::State& state) {
  Setup s = Setup::make(static_cast<char>('A' + state.range(0)));
  for (auto _ : state) {
    ad::Tape tape;
    ad::Tensor v = s.net.value(tape, s.graph.normalized_adjacency, s.features);
    benchmark::DoNotOptimize(tape.data(v)[0]);
  }
}
BENCHMARK(BM_CriticForward)->Arg(0)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_NodeLinkTransform(benchmark::State& state) {
  const topo::Topology t = topo::make_preset(static_cast<char>('A' + state.range(0)));
  for (auto _ : state) {
    topo::TransformedGraph g = topo::node_link_transform(t);
    benchmark::DoNotOptimize(g.edges.size());
  }
}
BENCHMARK(BM_NodeLinkTransform)->Arg(0)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_AdamStep(benchmark::State& state) {
  Setup s = Setup::make('C');
  ad::Adam adam;
  adam.add_parameters(s.net.all_parameters());
  for (auto _ : state) {
    adam.step();
  }
}
BENCHMARK(BM_AdamStep)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
