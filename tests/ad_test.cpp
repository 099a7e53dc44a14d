// Autodiff correctness: every op's analytic gradient is checked against
// central finite differences, plus end-to-end checks on composed
// GCN/MLP-shaped graphs and the Adam optimizer.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "ad/adam.hpp"
#include "ad/tape.hpp"
#include "util/rng.hpp"

namespace np::ad {
namespace {

using la::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng, double scale = 1.0) {
  Matrix m(r, c);
  for (double& v : m.flat()) v = rng.normal() * scale;
  return m;
}

/// Numerically differentiate the scalar produced by `build` w.r.t. param
/// via central differences and compare against the analytic gradient
/// from one backward pass. `build` returns the scalar root tensor.
void check_param_gradient(Parameter& param,
                          const std::function<Tensor(Tape&)>& build,
                          double tolerance = 1e-5) {
  Tape tape;
  param.zero_grad();
  Tensor root = build(tape);
  tape.backward(root);
  const Matrix analytic = param.grad;

  const double h = 1e-6;
  for (std::size_t i = 0; i < param.value.flat().size(); ++i) {
    const double saved = param.value.flat()[i];
    param.value.flat()[i] = saved + h;
    Tape tp;
    const double up = tp.value(build(tp))(0, 0);
    param.value.flat()[i] = saved - h;
    Tape tm;
    const double down = tm.value(build(tm))(0, 0);
    param.value.flat()[i] = saved;
    const double numeric = (up - down) / (2 * h);
    EXPECT_NEAR(analytic.flat()[i], numeric, tolerance)
        << "entry " << i << " of " << param.name;
  }
}

TEST(Tape, ConstantHasNoGradient) {
  Tape tape;
  Tensor c = tape.constant(Matrix{{1, 2}});
  Tensor s = tape.sum(c);
  EXPECT_THROW(tape.backward(s), std::invalid_argument);
}

TEST(Tape, BackwardRequiresScalarRoot) {
  Tape tape;
  Parameter p("p", Matrix{{1, 2}});
  Tensor t = tape.parameter(p);
  EXPECT_THROW(tape.backward(t), std::invalid_argument);
}

TEST(Tape, SumGradientIsOnes) {
  Parameter p("p", Matrix{{1, 2}, {3, 4}});
  Tape tape;
  Tensor root = tape.sum(tape.parameter(p));
  tape.backward(root);
  EXPECT_EQ(p.grad, Matrix(2, 2, 1.0));
}

TEST(Tape, AddGradient) {
  Rng rng(1);
  Parameter p("p", random_matrix(2, 3, rng));
  const Matrix other = random_matrix(2, 3, rng);
  check_param_gradient(p, [&](Tape& t) {
    return t.sum(t.add(t.parameter(p), t.constant(other)));
  });
}

TEST(Tape, SubGradientBothSides) {
  Rng rng(2);
  Parameter p("p", random_matrix(2, 2, rng));
  const Matrix other = random_matrix(2, 2, rng);
  check_param_gradient(p, [&](Tape& t) {
    // p appears on both sides: grad = 1 - 1 = 0 for (p - p), so use (p - c) + (c - p) forms.
    Tensor a = t.sub(t.parameter(p), t.constant(other));
    Tensor b = t.sub(t.constant(other), t.parameter(p));
    return t.sum(t.add(t.square(a), t.square(b)));
  });
}

TEST(Tape, ScaleGradient) {
  Rng rng(3);
  Parameter p("p", random_matrix(3, 2, rng));
  check_param_gradient(p, [&](Tape& t) {
    return t.sum(t.scale(t.parameter(p), -2.5));
  });
}

TEST(Tape, HadamardGradient) {
  Rng rng(4);
  Parameter p("p", random_matrix(2, 3, rng));
  const Matrix other = random_matrix(2, 3, rng);
  check_param_gradient(p, [&](Tape& t) {
    return t.sum(t.hadamard(t.parameter(p), t.constant(other)));
  });
}

TEST(Tape, ReluGradient) {
  Parameter p("p", Matrix{{-1.0, 0.5}, {2.0, -0.3}});
  check_param_gradient(p, [&](Tape& t) {
    return t.sum(t.relu(t.parameter(p)));
  });
  // Explicit: negative entries get zero gradient.
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(p.grad(0, 1), 1.0);
}

TEST(Tape, SquareGradient) {
  Rng rng(5);
  Parameter p("p", random_matrix(2, 2, rng));
  check_param_gradient(p, [&](Tape& t) {
    return t.sum(t.square(t.parameter(p)));
  });
}

TEST(Tape, ExpGradient) {
  Rng rng(19);
  Parameter p("p", random_matrix(2, 3, rng, 0.5));
  check_param_gradient(p, [&](Tape& t) {
    return t.sum(t.exp(t.parameter(p)));
  });
}

TEST(Tape, ExpValue) {
  Tape tape;
  Tensor e = tape.exp(tape.constant(Matrix{{0.0, 1.0}}));
  EXPECT_DOUBLE_EQ(tape.value(e)(0, 0), 1.0);
  EXPECT_NEAR(tape.value(e)(0, 1), 2.718281828459045, 1e-12);
}

TEST(Tape, MatmulGradientLeft) {
  Rng rng(6);
  Parameter p("w", random_matrix(3, 4, rng));
  const Matrix rhs = random_matrix(4, 2, rng);
  check_param_gradient(p, [&](Tape& t) {
    return t.sum(t.matmul(t.parameter(p), t.constant(rhs)));
  });
}

TEST(Tape, MatmulGradientRight) {
  Rng rng(7);
  Parameter p("w", random_matrix(4, 2, rng));
  const Matrix lhs = random_matrix(3, 4, rng);
  check_param_gradient(p, [&](Tape& t) {
    return t.sum(t.matmul(t.constant(lhs), t.parameter(p)));
  });
}

TEST(Tape, SpmmGradient) {
  Rng rng(8);
  Matrix dense(4, 4, 0.0);
  dense(0, 1) = 1.0;
  dense(1, 0) = 1.0;
  dense(2, 3) = 0.5;
  dense(3, 3) = 2.0;
  auto adj = std::make_shared<la::CsrMatrix>(la::CsrMatrix::from_dense(dense));
  Parameter p("x", random_matrix(4, 3, rng));
  check_param_gradient(p, [&](Tape& t) {
    return t.sum(t.square(t.spmm(adj, t.parameter(p))));
  });
}

TEST(Tape, SpmmNullAdjacencyThrows) {
  Tape tape;
  Parameter p("x", Matrix(2, 2, 1.0));
  EXPECT_THROW(tape.spmm(nullptr, tape.parameter(p)), std::invalid_argument);
}

TEST(Tape, AddRowBroadcastGradient) {
  Rng rng(9);
  Parameter bias("b", random_matrix(1, 3, rng));
  const Matrix x = random_matrix(4, 3, rng);
  check_param_gradient(bias, [&](Tape& t) {
    return t.sum(t.square(t.add_row_broadcast(t.constant(x), t.parameter(bias))));
  });
}

TEST(Tape, MeanRowsGradient) {
  Rng rng(10);
  Parameter p("x", random_matrix(5, 3, rng));
  check_param_gradient(p, [&](Tape& t) {
    return t.sum(t.square(t.mean_rows(t.parameter(p))));
  });
}

TEST(Tape, FlattenGradient) {
  Rng rng(11);
  Parameter p("x", random_matrix(3, 2, rng));
  check_param_gradient(p, [&](Tape& t) {
    return t.sum(t.square(t.flatten_to_row(t.parameter(p))));
  });
}

TEST(Tape, PickGradient) {
  Parameter p("x", Matrix{{1, 2}, {3, 4}});
  Tape tape;
  Tensor root = tape.pick(tape.parameter(p), 1, 0);
  tape.backward(root);
  EXPECT_EQ(p.grad, (Matrix{{0, 0}, {1, 0}}));
}

TEST(Tape, PickOutOfRangeThrows) {
  Tape tape;
  Parameter p("x", Matrix(2, 2, 0.0));
  Tensor t = tape.parameter(p);
  EXPECT_THROW(tape.pick(t, 2, 0), std::out_of_range);
}

TEST(Tape, MaskedLogSoftmaxIsNormalized) {
  Tape tape;
  Tensor logits = tape.constant(Matrix{{1.0, 2.0, 3.0, 4.0}});
  Tensor lp = tape.masked_log_softmax(logits, {1, 0, 1, 1});
  const Matrix& v = tape.value(lp);
  double total = 0.0;
  for (std::size_t i : {0u, 2u, 3u}) total += std::exp(v(0, i));
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_LT(v(0, 1), -1e20);  // masked entry
}

TEST(Tape, MaskedLogSoftmaxAllMaskedThrows) {
  Tape tape;
  Tensor logits = tape.constant(Matrix{{1.0, 2.0}});
  EXPECT_THROW(tape.masked_log_softmax(logits, {0, 0}), std::invalid_argument);
}

TEST(Tape, MaskedLogSoftmaxMaskSizeMismatchThrows) {
  Tape tape;
  Tensor logits = tape.constant(Matrix{{1.0, 2.0}});
  EXPECT_THROW(tape.masked_log_softmax(logits, {1}), std::invalid_argument);
}

TEST(Tape, MaskedLogSoftmaxGradient) {
  Rng rng(12);
  Parameter p("logits", random_matrix(1, 5, rng));
  const std::vector<std::uint8_t> mask = {1, 0, 1, 1, 0};
  check_param_gradient(p, [&](Tape& t) {
    Tensor lp = t.masked_log_softmax(t.parameter(p), mask);
    return t.pick(lp, 0, 2);
  });
  // Masked entries receive no gradient.
  EXPECT_DOUBLE_EQ(p.grad(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(p.grad(0, 4), 0.0);
}

TEST(Tape, MaskedLogSoftmaxNumericallyStableForLargeLogits) {
  Tape tape;
  Tensor logits = tape.constant(Matrix{{1000.0, 999.0}});
  Tensor lp = tape.masked_log_softmax(logits, {1, 1});
  EXPECT_FALSE(tape.value(lp).has_non_finite());
}

TEST(Tape, EntropyGradient) {
  Rng rng(13);
  Parameter p("logits", random_matrix(1, 4, rng));
  const std::vector<std::uint8_t> mask = {1, 1, 0, 1};
  check_param_gradient(p, [&](Tape& t) {
    Tensor lp = t.masked_log_softmax(t.parameter(p), mask);
    return t.entropy_from_log_probs(lp);
  });
}

TEST(Tape, EntropyOfUniformIsLogK) {
  Tape tape;
  Tensor logits = tape.constant(Matrix{{0.0, 0.0, 0.0}});
  Tensor lp = tape.masked_log_softmax(logits, {1, 1, 1});
  Tensor h = tape.entropy_from_log_probs(lp);
  EXPECT_NEAR(tape.value(h)(0, 0), std::log(3.0), 1e-12);
}

TEST(Tape, ParameterUsedTwiceAccumulates) {
  Parameter p("p", Matrix{{2.0}});
  Tape tape;
  Tensor a = tape.parameter(p);
  Tensor b = tape.parameter(p);
  Tensor root = tape.sum(tape.add(a, b));
  p.zero_grad();
  tape.backward(root);
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 2.0);
}

TEST(Tape, TwoBackwardPassesOnSeparateTapesAccumulate) {
  // Algorithm 1 runs policy and value losses as separate updates that
  // both touch the shared GNN parameters.
  Parameter p("p", Matrix{{3.0}});
  p.zero_grad();
  {
    Tape tape;
    tape.backward(tape.sum(tape.parameter(p)));
  }
  {
    Tape tape;
    tape.backward(tape.sum(tape.scale(tape.parameter(p), 2.0)));
  }
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 3.0);
}

TEST(Tape, ComposedMlpGradient) {
  // Two-layer MLP with relu: end-to-end gradcheck through every op.
  Rng rng(14);
  Parameter w1("w1", random_matrix(3, 4, rng, 0.5));
  Parameter b1("b1", random_matrix(1, 4, rng, 0.1));
  Parameter w2("w2", random_matrix(4, 1, rng, 0.5));
  const Matrix x = random_matrix(2, 3, rng);
  auto build = [&](Tape& t) {
    Tensor h = t.relu(t.add_row_broadcast(t.matmul(t.constant(x), t.parameter(w1)),
                                          t.parameter(b1)));
    return t.sum(t.matmul(h, t.parameter(w2)));
  };
  check_param_gradient(w1, build, 1e-4);
  check_param_gradient(b1, build, 1e-4);
  check_param_gradient(w2, build, 1e-4);
}

TEST(Tape, ClearResetsState) {
  Tape tape;
  Parameter p("p", Matrix{{1.0}});
  tape.backward(tape.sum(tape.parameter(p)));
  tape.clear();
  EXPECT_EQ(tape.size(), 0u);
  // Fresh use after clear works and does not double-accumulate.
  p.zero_grad();
  tape.backward(tape.sum(tape.parameter(p)));
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 1.0);
}

TEST(Adam, ConvergesOnQuadratic) {
  // min (x - 3)^2 elementwise.
  Parameter p("x", Matrix(1, 4, 0.0));
  Adam adam(AdamConfig{.learning_rate = 0.1, .grad_clip = 0.0});
  adam.add_parameter(p);
  const Matrix target(1, 4, 3.0);
  for (int step = 0; step < 500; ++step) {
    adam.zero_grad();
    Tape tape;
    Tensor diff = tape.sub(tape.parameter(p), tape.constant(target));
    tape.backward(tape.sum(tape.square(diff)));
    adam.step();
  }
  for (double v : p.value.flat()) EXPECT_NEAR(v, 3.0, 1e-3);
}

TEST(Adam, GradClipLimitsStepDirection) {
  Parameter p("x", Matrix(1, 1, 0.0));
  p.grad(0, 0) = 1e9;
  Adam adam(AdamConfig{.learning_rate = 0.1, .grad_clip = 1.0});
  adam.add_parameter(p);
  adam.step();
  // First Adam step magnitude is ~lr regardless, but must be finite and
  // negative (descent).
  EXPECT_LT(p.value(0, 0), 0.0);
  EXPECT_GT(p.value(0, 0), -0.2);
}

TEST(Adam, ZeroGradClearsAll) {
  Parameter a("a", Matrix(2, 2, 1.0));
  a.grad = Matrix(2, 2, 5.0);
  Adam adam;
  adam.add_parameter(a);
  adam.zero_grad();
  EXPECT_DOUBLE_EQ(a.grad.max_abs(), 0.0);
}

}  // namespace
}  // namespace np::ad
