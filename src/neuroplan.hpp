// Umbrella header: the public API of NeuroPlan-cpp in one include.
//
//   #include "neuroplan.hpp"
//
//   auto topology = np::topo::make_preset('A');
//   np::core::NeuroPlanConfig config;
//   config.train = np::core::default_train_config(topology);
//   auto result = np::core::neuroplan(topology, config);
//
// Individual headers remain includable on their own; this is a
// convenience for applications, examples and quick experiments.
#pragma once

// Topology model, generators, transformation, serialization.
#include "topo/generator.hpp"
#include "topo/paths.hpp"
#include "topo/serialize.hpp"
#include "topo/topology.hpp"
#include "topo/transform.hpp"

// Plan evaluation and the planning MILP formulation.
#include "plan/evaluator.hpp"
#include "plan/formulation.hpp"
#include "plan/report.hpp"

// Solvers (Gurobi's role in the paper).
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"

// Learning stack (PyTorch/SpinningUp's role in the paper).
#include "ad/adam.hpp"
#include "ad/checkpoint.hpp"
#include "ad/tape.hpp"
#include "nn/actor_critic.hpp"
#include "rl/trainer.hpp"

// The two-stage pipeline and baselines.
#include "core/baselines.hpp"
#include "core/decomposition.hpp"
#include "core/lazy_solve.hpp"
#include "core/neuroplan.hpp"
