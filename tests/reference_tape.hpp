// Test-only whole-matrix reference for ad::Tape's adjoints: one
// la::Matrix value and gradient per node, weights copied into leaves,
// one std::function adjoint per node, and the adjoint formulas written
// as whole-matrix products:
//   dA += G @ W^T,   dW += A^T @ G,   dX += A^T @ G (spmm).
// Products are plain triple loops (reference_la.hpp), so this shares no
// product code with the library. Leaf gradients are added into
// Parameter::grad in registration order, as ad::Tape does. Only the ops
// the NeuroPlan networks and losses use are provided.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ad/parameter.hpp"
#include "la/sparse.hpp"
#include "reference_la.hpp"

namespace np::ref {

class RefTape {
 public:
  using Id = std::size_t;

  const la::Matrix& value(Id id) const { return nodes_[id].value; }

  Id constant(la::Matrix v) { return emit(std::move(v), false, nullptr); }

  Id parameter(ad::Parameter& p) {
    const Id id = emit(p.value, true, nullptr);
    leaves_.emplace_back(id, &p);
    return id;
  }

  Id add(Id a, Id b) {
    return emit(value(a) + value(b), needs(a) || needs(b),
                [a, b](RefTape& t, const Node& self) {
                  if (t.needs(a)) t.grad(a) += self.grad;
                  if (t.needs(b)) t.grad(b) += self.grad;
                });
  }

  Id sub(Id a, Id b) {
    return emit(value(a) - value(b), needs(a) || needs(b),
                [a, b](RefTape& t, const Node& self) {
                  if (t.needs(a)) t.grad(a) += self.grad;
                  if (t.needs(b)) t.grad(b) -= self.grad;
                });
  }

  Id scale(Id a, double f) {
    return emit(value(a) * f, needs(a), [a, f](RefTape& t, const Node& self) {
      if (t.needs(a)) t.grad(a) += self.grad * f;
    });
  }

  Id square(Id a) {
    return emit(value(a).hadamard(value(a)), needs(a), [a](RefTape& t, const Node& self) {
      if (!t.needs(a)) return;
      for (std::size_t i = 0; i < self.grad.size(); ++i) {
        t.grad(a).flat()[i] += 2.0 * t.value(a).flat()[i] * self.grad.flat()[i];
      }
    });
  }

  Id relu(Id a) {
    la::Matrix out = value(a);
    for (double& x : out.flat()) x = x > 0.0 ? x : 0.0;
    return emit(std::move(out), needs(a), [a](RefTape& t, const Node& self) {
      if (!t.needs(a)) return;
      for (std::size_t i = 0; i < self.grad.size(); ++i) {
        if (t.value(a).flat()[i] > 0.0) t.grad(a).flat()[i] += self.grad.flat()[i];
      }
    });
  }

  Id matmul(Id a, Id b) {
    return emit(naive_matmul(value(a), value(b)), needs(a) || needs(b),
                [a, b](RefTape& t, const Node& self) {
                  if (t.needs(a)) {
                    t.grad(a) += naive_matmul(self.grad, t.value(b).transposed());
                  }
                  if (t.needs(b)) {
                    t.grad(b) += naive_matmul(t.value(a).transposed(), self.grad);
                  }
                });
  }

  Id spmm(const la::CsrMatrix& lhs, Id x) {
    const la::Matrix dense = lhs.to_dense();
    return emit(naive_matmul(dense, value(x)), needs(x),
                [dense, x](RefTape& t, const Node& self) {
                  if (t.needs(x)) t.grad(x) += naive_matmul(dense.transposed(), self.grad);
                });
  }

  Id add_row_broadcast(Id m, Id row) {
    return emit(value(m).add_row_broadcast(value(row)), needs(m) || needs(row),
                [m, row](RefTape& t, const Node& self) {
                  if (t.needs(m)) t.grad(m) += self.grad;
                  if (t.needs(row)) t.grad(row) += self.grad.sum_rows();
                });
  }

  Id mean_rows(Id a) {
    const double inv = 1.0 / static_cast<double>(value(a).rows());
    return emit(value(a).sum_rows() * inv, needs(a), [a, inv](RefTape& t, const Node& self) {
      if (!t.needs(a)) return;
      la::Matrix& g = t.grad(a);
      for (std::size_t r = 0; r < g.rows(); ++r) {
        for (std::size_t c = 0; c < g.cols(); ++c) g(r, c) += inv * self.grad(0, c);
      }
    });
  }

  Id flatten_to_row(Id a) {
    la::Matrix out(1, value(a).size());
    out.flat() = value(a).flat();
    return emit(std::move(out), needs(a), [a](RefTape& t, const Node& self) {
      if (!t.needs(a)) return;
      for (std::size_t i = 0; i < self.grad.size(); ++i) {
        t.grad(a).flat()[i] += self.grad.flat()[i];
      }
    });
  }

  Id pick(Id a, std::size_t r, std::size_t c) {
    return emit(la::Matrix(1, 1, value(a)(r, c)), needs(a),
                [a, r, c](RefTape& t, const Node& self) {
                  if (t.needs(a)) t.grad(a)(r, c) += self.grad(0, 0);
                });
  }

  Id masked_log_softmax(Id row, const std::vector<std::uint8_t>& mask) {
    const la::Matrix& x = value(row);
    double max_valid = -1e300;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) max_valid = std::max(max_valid, x(0, i));
    }
    double sum_exp = 0.0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) sum_exp += std::exp(x(0, i) - max_valid);
    }
    const double log_z = max_valid + std::log(sum_exp);
    la::Matrix out(1, x.cols(), -1e30);
    std::vector<double> probs(mask.size(), 0.0);
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) {
        out(0, i) = x(0, i) - log_z;
        probs[i] = std::exp(out(0, i));
      }
    }
    return emit(std::move(out), needs(row),
                [row, probs, mask](RefTape& t, const Node& self) {
                  if (!t.needs(row)) return;
                  double grad_sum = 0.0;
                  for (std::size_t i = 0; i < mask.size(); ++i) {
                    if (mask[i]) grad_sum += self.grad(0, i);
                  }
                  for (std::size_t i = 0; i < mask.size(); ++i) {
                    if (mask[i]) t.grad(row)(0, i) += self.grad(0, i) - probs[i] * grad_sum;
                  }
                });
  }

  Id entropy_from_log_probs(Id lp) {
    double h = 0.0;
    for (double l : value(lp).flat()) {
      if (l > -1e30 * 0.5) h -= std::exp(l) * l;
    }
    return emit(la::Matrix(1, 1, h), needs(lp), [lp](RefTape& t, const Node& self) {
      if (!t.needs(lp)) return;
      const double d = self.grad(0, 0);
      for (std::size_t i = 0; i < t.value(lp).cols(); ++i) {
        const double l = t.value(lp)(0, i);
        if (l > -1e30 * 0.5) t.grad(lp)(0, i) += d * (-std::exp(l) * (1.0 + l));
      }
    });
  }

  /// GAT aggregation over the adjacency's pattern (ascending columns),
  /// leaky slope 0.2 — the encoder's neighbor order and default.
  Id gat_aggregate(Id src, Id dst, Id z, const la::CsrMatrix& adjacency) {
    constexpr double kSlope = 0.2;
    std::vector<std::vector<std::size_t>> lists(adjacency.rows());
    for (std::size_t r = 0; r < adjacency.rows(); ++r) {
      for (std::size_t e = adjacency.row_offsets()[r]; e < adjacency.row_offsets()[r + 1];
           ++e) {
        lists[r].push_back(adjacency.col_indices()[e]);
      }
    }
    const la::Matrix& zv = value(z);
    std::vector<std::vector<double>> alphas(lists.size());
    la::Matrix out(zv.rows(), zv.cols(), 0.0);
    for (std::size_t i = 0; i < lists.size(); ++i) {
      std::vector<double>& alpha = alphas[i];
      alpha.resize(lists[i].size());
      double max_e = -1e300;
      for (std::size_t k = 0; k < lists[i].size(); ++k) {
        const double pre = value(src)(i, 0) + value(dst)(lists[i][k], 0);
        alpha[k] = pre > 0.0 ? pre : kSlope * pre;
        max_e = std::max(max_e, alpha[k]);
      }
      double total = 0.0;
      for (double& a : alpha) {
        a = std::exp(a - max_e);
        total += a;
      }
      for (std::size_t k = 0; k < lists[i].size(); ++k) {
        alpha[k] /= total;
        for (std::size_t c = 0; c < zv.cols(); ++c) {
          out(i, c) += alpha[k] * zv(lists[i][k], c);
        }
      }
    }
    return emit(
        std::move(out), needs(src) || needs(dst) || needs(z),
        [src, dst, z, lists, alphas](RefTape& t, const Node& self) {
          const la::Matrix& zv = t.value(z);
          for (std::size_t i = 0; i < lists.size(); ++i) {
            std::vector<double> dalpha(lists[i].size());
            double weighted = 0.0;
            for (std::size_t k = 0; k < lists[i].size(); ++k) {
              double dot = 0.0;
              for (std::size_t c = 0; c < zv.cols(); ++c) {
                dot += self.grad(i, c) * zv(lists[i][k], c);
              }
              dalpha[k] = dot;
              weighted += alphas[i][k] * dot;
              if (t.needs(z)) {
                for (std::size_t c = 0; c < zv.cols(); ++c) {
                  t.grad(z)(lists[i][k], c) += alphas[i][k] * self.grad(i, c);
                }
              }
            }
            if (!t.needs(src) && !t.needs(dst)) continue;
            for (std::size_t k = 0; k < lists[i].size(); ++k) {
              const double de = alphas[i][k] * (dalpha[k] - weighted);
              const double pre = t.value(src)(i, 0) + t.value(dst)(lists[i][k], 0);
              const double dpre = de * (pre > 0.0 ? 1.0 : kSlope);
              if (t.needs(src)) t.grad(src)(i, 0) += dpre;
              if (t.needs(dst)) t.grad(dst)(lists[i][k], 0) += dpre;
            }
          }
        });
  }

  void backward(Id root) {
    for (Node& n : nodes_) {
      if (n.needs_grad) n.grad = la::Matrix(n.value.rows(), n.value.cols(), 0.0);
    }
    nodes_[root].grad(0, 0) = 1.0;
    for (std::size_t i = root + 1; i-- > 0;) {
      if (nodes_[i].needs_grad && nodes_[i].back) nodes_[i].back(*this, nodes_[i]);
    }
    for (const auto& [id, param] : leaves_) param->grad += nodes_[id].grad;
  }

 private:
  struct Node {
    la::Matrix value;
    la::Matrix grad;
    std::function<void(RefTape&, const Node&)> back;
    bool needs_grad = false;
  };

  Id emit(la::Matrix v, bool needs_grad, std::function<void(RefTape&, const Node&)> back) {
    nodes_.push_back(Node{std::move(v), la::Matrix(), std::move(back), needs_grad});
    return nodes_.size() - 1;
  }
  bool needs(Id id) const { return nodes_[id].needs_grad; }
  la::Matrix& grad(Id id) { return nodes_[id].grad; }

  std::vector<Node> nodes_;
  std::vector<std::pair<Id, ad::Parameter*>> leaves_;
};

}  // namespace np::ref
