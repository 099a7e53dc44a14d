#include "ad/tape.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "la/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace np::ad {

namespace {
constexpr double kMaskedLogProb = -1e30;

std::string shape(std::size_t rows, std::size_t cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

/// dst[i] += src[i]. Adjoints form each term whole (a product in
/// scratch) before adding it, so every gradient entry is one ordered sum
/// of rounded terms: the sum the whole-matrix adjoint formulas give.
void add_into(double* dst, const double* src, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) dst[i] += src[i];
}
}  // namespace

Tape::Node Tape::make_node(Op op, std::size_t rows, std::size_t cols,
                           const double* value, bool needs_grad) {
  Node n;
  n.op = op;
  n.rows = rows;
  n.cols = cols;
  n.value = value;
  n.needs_grad = needs_grad;
  return n;
}

Tensor Tape::emit(const Node& node) {
  nodes_.push_back(node);
  return Tensor{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

void Tape::clear() {
  nodes_.clear();
  leaves_.clear();
  held_.clear();
  transposes_.clear();
  scratch_ = nullptr;
  arena_.reset();
}

std::size_t Tape::reserved_bytes() const {
  return arena_.capacity_bytes() + nodes_.capacity() * sizeof(Node) +
         leaves_.capacity() * sizeof(Leaf) +
         held_.capacity() * sizeof(std::shared_ptr<const void>) +
         transposes_.capacity() * sizeof(decltype(transposes_)::value_type);
}

la::Matrix Tape::value(Tensor t) const {
  const Node& n = node(t);
  la::Matrix out(n.rows, n.cols);
  if (n.size() > 0) std::memcpy(out.data(), n.value, n.size() * sizeof(double));
  return out;
}

la::Matrix Tape::grad(Tensor t) const {
  const Node& n = node(t);
  if (n.grad == nullptr) return la::Matrix();
  la::Matrix out(n.rows, n.cols);
  if (n.size() > 0) std::memcpy(out.data(), n.grad, n.size() * sizeof(double));
  return out;
}

Tensor Tape::constant(const la::Matrix& value) {
  double* out = alloc(value.size());
  if (value.size() > 0) std::memcpy(out, value.data(), value.size() * sizeof(double));
  return emit(make_node(Op::kConstant, value.rows(), value.cols(), out, false));
}

Tensor Tape::scalar(double value) {
  double* out = alloc(1);
  out[0] = value;
  return emit(make_node(Op::kConstant, 1, 1, out, false));
}

Tensor Tape::parameter(Parameter& param) {
  const Tensor t = emit(make_node(Op::kParameter, param.value.rows(),
                                  param.value.cols(), param.value.data(), true));
  leaves_.push_back(Leaf{t.index, &param, param.version});
  return t;
}

Tensor Tape::add(Tensor a, Tensor b) {
  const Node& x = node(a);
  const Node& y = node(b);
  if (x.rows != y.rows || x.cols != y.cols) {
    throw std::invalid_argument("Tape::add: shape mismatch " + shape(x.rows, x.cols) +
                                " vs " + shape(y.rows, y.cols));
  }
  double* out = alloc(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x.value[i] + y.value[i];
  Node n = make_node(Op::kAdd, x.rows, x.cols, out, x.needs_grad || y.needs_grad);
  n.in[0] = a.index;
  n.in[1] = b.index;
  return emit(n);
}

Tensor Tape::sub(Tensor a, Tensor b) {
  const Node& x = node(a);
  const Node& y = node(b);
  if (x.rows != y.rows || x.cols != y.cols) {
    throw std::invalid_argument("Tape::sub: shape mismatch " + shape(x.rows, x.cols) +
                                " vs " + shape(y.rows, y.cols));
  }
  double* out = alloc(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x.value[i] - y.value[i];
  Node n = make_node(Op::kSub, x.rows, x.cols, out, x.needs_grad || y.needs_grad);
  n.in[0] = a.index;
  n.in[1] = b.index;
  return emit(n);
}

Tensor Tape::scale(Tensor a, double factor) {
  const Node& x = node(a);
  double* out = alloc(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x.value[i] * factor;
  Node n = make_node(Op::kScale, x.rows, x.cols, out, x.needs_grad);
  n.in[0] = a.index;
  n.scalar = factor;
  return emit(n);
}

Tensor Tape::hadamard(Tensor a, Tensor b) {
  const Node& x = node(a);
  const Node& y = node(b);
  if (x.rows != y.rows || x.cols != y.cols) {
    throw std::invalid_argument("Tape::hadamard: shape mismatch " +
                                shape(x.rows, x.cols) + " vs " + shape(y.rows, y.cols));
  }
  double* out = alloc(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x.value[i] * y.value[i];
  Node n = make_node(Op::kHadamard, x.rows, x.cols, out, x.needs_grad || y.needs_grad);
  n.in[0] = a.index;
  n.in[1] = b.index;
  return emit(n);
}

Tensor Tape::relu(Tensor a) {
  const Node& x = node(a);
  double* out = alloc(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = x.value[i] > 0.0 ? x.value[i] : 0.0;
  }
  Node n = make_node(Op::kRelu, x.rows, x.cols, out, x.needs_grad);
  n.in[0] = a.index;
  return emit(n);
}

Tensor Tape::square(Tensor a) {
  const Node& x = node(a);
  double* out = alloc(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x.value[i] * x.value[i];
  Node n = make_node(Op::kSquare, x.rows, x.cols, out, x.needs_grad);
  n.in[0] = a.index;
  return emit(n);
}

Tensor Tape::exp(Tensor a) {
  const Node& x = node(a);
  double* out = alloc(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::exp(x.value[i]);
  Node n = make_node(Op::kExp, x.rows, x.cols, out, x.needs_grad);
  n.in[0] = a.index;
  return emit(n);
}

Tensor Tape::matmul(Tensor a, Tensor b) {
  const Node& x = node(a);
  const Node& w = node(b);
  if (x.cols != w.rows) {
    throw std::invalid_argument("Tape::matmul: inner dimension mismatch " +
                                shape(x.rows, x.cols) + " vs " + shape(w.rows, w.cols));
  }
  double* out = alloc(x.rows * w.cols);
  la::kernels::matmul(x.value, x.rows, x.cols, w.value, w.cols, out);
  NP_CHECK_FINITE(out, x.rows * w.cols, "Tape::matmul");
  Node n = make_node(Op::kMatmul, x.rows, w.cols, out, x.needs_grad || w.needs_grad);
  n.in[0] = a.index;
  n.in[1] = b.index;
  return emit(n);
}

Tensor Tape::spmm(std::shared_ptr<const la::CsrMatrix> lhs, Tensor rhs) {
  if (lhs == nullptr) throw std::invalid_argument("Tape::spmm: null adjacency");
  const Node& x = node(rhs);
  if (lhs->cols() != x.rows) {
    throw std::invalid_argument("Tape::spmm: dimension mismatch " +
                                shape(lhs->rows(), lhs->cols()) + " vs " +
                                shape(x.rows, x.cols));
  }
  double* out = alloc(lhs->rows() * x.cols);
  la::kernels::spmm(*lhs, x.value, x.cols, out);
  NP_CHECK_FINITE(out, lhs->rows() * x.cols, "Tape::spmm");
  Node n = make_node(Op::kSpmm, lhs->rows(), x.cols, out, x.needs_grad);
  n.in[0] = rhs.index;
  n.extra = lhs.get();
  hold(lhs);
  return emit(n);
}

Tensor Tape::add_row_broadcast(Tensor matrix, Tensor bias_row) {
  const Node& x = node(matrix);
  const Node& row = node(bias_row);
  if (row.rows != 1 || row.cols != x.cols) {
    throw std::invalid_argument("Tape::add_row_broadcast: need 1x" +
                                std::to_string(x.cols) + ", got " +
                                shape(row.rows, row.cols));
  }
  double* out = alloc(x.size());
  for (std::size_t r = 0; r < x.rows; ++r) {
    const double* xrow = x.value + r * x.cols;
    double* orow = out + r * x.cols;
    for (std::size_t c = 0; c < x.cols; ++c) orow[c] = xrow[c] + row.value[c];
  }
  Node n = make_node(Op::kAddRowBroadcast, x.rows, x.cols, out,
                     x.needs_grad || row.needs_grad);
  n.in[0] = matrix.index;
  n.in[1] = bias_row.index;
  return emit(n);
}

Tensor Tape::mean_rows(Tensor a) {
  const Node& x = node(a);
  if (x.rows == 0) throw std::invalid_argument("Tape::mean_rows: empty input");
  const double inv_n = 1.0 / static_cast<double>(x.rows);
  double* out = alloc(x.cols);
  std::fill(out, out + x.cols, 0.0);
  for (std::size_t r = 0; r < x.rows; ++r) {
    const double* xrow = x.value + r * x.cols;
    for (std::size_t c = 0; c < x.cols; ++c) out[c] += xrow[c];
  }
  for (std::size_t c = 0; c < x.cols; ++c) out[c] *= inv_n;
  Node n = make_node(Op::kMeanRows, 1, x.cols, out, x.needs_grad);
  n.in[0] = a.index;
  n.scalar = inv_n;
  return emit(n);
}

Tensor Tape::slice_rows(Tensor a, std::size_t begin, std::size_t count) {
  const Node& x = node(a);
  if (count == 0) throw std::invalid_argument("Tape::slice_rows: empty slice");
  if (begin + count > x.rows) {
    throw std::out_of_range("Tape::slice_rows: rows out of range");
  }
  double* out = alloc(count * x.cols);
  std::copy(x.value + begin * x.cols, x.value + (begin + count) * x.cols, out);
  Node n = make_node(Op::kSliceRows, count, x.cols, out, x.needs_grad);
  n.in[0] = a.index;
  n.aux = begin;
  return emit(n);
}

Tensor Tape::mean_rows_segments(Tensor a, std::size_t segment) {
  const Node& x = node(a);
  if (segment == 0 || x.rows == 0 || x.rows % segment != 0) {
    throw std::invalid_argument("Tape::mean_rows_segments: rows must be a "
                                "positive multiple of segment");
  }
  const std::size_t segments = x.rows / segment;
  const double inv = 1.0 / static_cast<double>(segment);
  double* out = alloc(segments * x.cols);
  std::fill(out, out + segments * x.cols, 0.0);
  for (std::size_t s = 0; s < segments; ++s) {
    double* orow = out + s * x.cols;
    // Sum ascending then scale — matches mean_rows bitwise.
    for (std::size_t r = s * segment; r < (s + 1) * segment; ++r) {
      const double* xrow = x.value + r * x.cols;
      for (std::size_t c = 0; c < x.cols; ++c) orow[c] += xrow[c];
    }
    for (std::size_t c = 0; c < x.cols; ++c) orow[c] *= inv;
  }
  Node n = make_node(Op::kMeanRowsSegments, segments, x.cols, out, x.needs_grad);
  n.in[0] = a.index;
  n.aux = segment;
  n.scalar = inv;
  return emit(n);
}

Tensor Tape::flatten_to_row(Tensor a) {
  const Node& x = node(a);
  // A reshape: the value is the input's storage, read-only.
  Node n = make_node(Op::kFlatten, 1, x.size(), x.value, x.needs_grad);
  n.in[0] = a.index;
  return emit(n);
}

Tensor Tape::sum(Tensor a) {
  const Node& x = node(a);
  double total = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) total += x.value[i];
  double* out = alloc(1);
  out[0] = total;
  Node n = make_node(Op::kSum, 1, 1, out, x.needs_grad);
  n.in[0] = a.index;
  return emit(n);
}

Tensor Tape::pick(Tensor a, std::size_t r, std::size_t c) {
  const Node& x = node(a);
  if (r >= x.rows || c >= x.cols) throw std::out_of_range("Tape::pick");
  const std::size_t offset = r * x.cols + c;
  Node n = make_node(Op::kPick, 1, 1, x.value + offset, x.needs_grad);
  n.in[0] = a.index;
  n.aux = offset;
  return emit(n);
}

Tensor Tape::masked_log_softmax(Tensor row, const std::vector<std::uint8_t>& mask) {
  const Node& x = node(row);
  if (x.rows != 1) throw std::invalid_argument("masked_log_softmax: need a row vector");
  if (mask.size() != x.cols) {
    throw std::invalid_argument("masked_log_softmax: mask size mismatch");
  }
  const std::size_t k = x.cols;
  double max_valid = -1e300;
  std::size_t valid_count = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (mask[i]) {
      max_valid = std::max(max_valid, x.value[i]);
      ++valid_count;
    }
  }
  if (valid_count == 0) {
    throw std::invalid_argument("masked_log_softmax: no valid entries");
  }
  double sum_exp = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (mask[i]) sum_exp += std::exp(x.value[i] - max_valid);
  }
  const double log_z = max_valid + std::log(sum_exp);
  double* out = alloc(k);
  // Probabilities for the adjoint: dx_j = dy_j - p_j * sum(dy).
  double* probs = alloc(k);
  std::uint8_t* kept_mask = arena_.alloc_bytes(k);
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = mask[i] ? x.value[i] - log_z : kMaskedLogProb;
    probs[i] = mask[i] ? std::exp(out[i]) : 0.0;
    kept_mask[i] = mask[i];
  }
  Node n = make_node(Op::kMaskedLogSoftmax, 1, k, out, x.needs_grad);
  n.in[0] = row.index;
  n.extra = kept_mask;
  n.saved = probs;
  return emit(n);
}

Tensor Tape::entropy_from_log_probs(Tensor log_probs) {
  const Node& lp = node(log_probs);
  if (lp.rows != 1) {
    throw std::invalid_argument("entropy_from_log_probs: need a row vector");
  }
  double h = 0.0;
  for (std::size_t i = 0; i < lp.cols; ++i) {
    const double l = lp.value[i];
    if (l > kMaskedLogProb * 0.5) h -= std::exp(l) * l;
  }
  double* out = alloc(1);
  out[0] = h;
  Node n = make_node(Op::kEntropy, 1, 1, out, lp.needs_grad);
  n.in[0] = log_probs.index;
  return emit(n);
}

Tensor Tape::gat_aggregate(
    Tensor scores_src, Tensor scores_dst, Tensor features,
    std::shared_ptr<const std::vector<std::vector<int>>> neighbors,
    double leaky_slope) {
  if (neighbors == nullptr) {
    throw std::invalid_argument("gat_aggregate: null neighbor lists");
  }
  const Node& src = node(scores_src);
  const Node& dst = node(scores_dst);
  const Node& z = node(features);
  const std::size_t n = z.rows;
  if (src.rows != n || src.cols != 1 || dst.rows != n || dst.cols != 1) {
    throw std::invalid_argument("gat_aggregate: scores must be n x 1");
  }
  if (neighbors->size() != n) {
    throw std::invalid_argument("gat_aggregate: neighbor list size mismatch");
  }
  std::size_t edges = 0;
  for (const auto& list : *neighbors) {
    for (int j : list) {
      if (j < 0 || static_cast<std::size_t>(j) >= n) {
        throw std::invalid_argument("gat_aggregate: neighbor index out of range");
      }
    }
    if (list.empty()) {
      throw std::invalid_argument("gat_aggregate: node without neighbors "
                                  "(self loops are required)");
    }
    edges += list.size();
  }

  // Forward: per-node masked softmax over LeakyReLU(src_i + dst_j).
  // Attention weights (node-major, neighbor order) are kept for the
  // adjoint.
  double* alphas = alloc(edges);
  double* out = alloc(n * z.cols);
  std::fill(out, out + n * z.cols, 0.0);
  double* alpha = alphas;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& list = (*neighbors)[i];
    double max_e = -1e300;
    for (std::size_t k = 0; k < list.size(); ++k) {
      const double pre = src.value[i] + dst.value[list[k]];
      alpha[k] = pre > 0.0 ? pre : leaky_slope * pre;
      max_e = std::max(max_e, alpha[k]);
    }
    double total = 0.0;
    for (std::size_t k = 0; k < list.size(); ++k) {
      alpha[k] = std::exp(alpha[k] - max_e);
      total += alpha[k];
    }
    double* orow = out + i * z.cols;
    for (std::size_t k = 0; k < list.size(); ++k) {
      alpha[k] /= total;
      const double* zrow = z.value + static_cast<std::size_t>(list[k]) * z.cols;
      for (std::size_t c = 0; c < z.cols; ++c) orow[c] += alpha[k] * zrow[c];
    }
    alpha += list.size();
  }

  Node node_out = make_node(Op::kGatAggregate, n, z.cols, out,
                            src.needs_grad || dst.needs_grad || z.needs_grad);
  node_out.in[0] = scores_src.index;
  node_out.in[1] = scores_dst.index;
  node_out.in[2] = features.index;
  node_out.scalar = leaky_slope;
  node_out.extra = neighbors.get();
  node_out.saved = alphas;
  hold(neighbors);
  return emit(node_out);
}

const double* Tape::transposed(const Node& n) {
  // Only parameter leaves are cached: their value pointer identifies
  // the parameter (other nodes may alias storage, e.g. flatten_to_row).
  if (n.op == Op::kParameter) {
    for (const auto& [source, copy] : transposes_) {
      if (source == n.value) return copy;
    }
  }
  double* copy = alloc(n.size());
  la::kernels::transpose(n.value, n.rows, n.cols, copy);
  if (n.op == Op::kParameter) transposes_.emplace_back(n.value, copy);
  return copy;
}

void Tape::backward_node(const Node& self) {
  const double* g = self.grad;
  const std::size_t count = self.size();
  Node& a = nodes_[self.in[0]];
  switch (self.op) {
    case Op::kConstant:
    case Op::kParameter:
      return;
    case Op::kAdd:
    case Op::kSub: {
      Node& b = nodes_[self.in[1]];
      if (a.needs_grad) add_into(a.grad, g, count);
      if (b.needs_grad) {
        if (self.op == Op::kAdd) {
          add_into(b.grad, g, count);
        } else {
          for (std::size_t i = 0; i < count; ++i) b.grad[i] -= g[i];
        }
      }
      return;
    }
    case Op::kScale:
      if (a.needs_grad) {
        for (std::size_t i = 0; i < count; ++i) a.grad[i] += g[i] * self.scalar;
      }
      return;
    case Op::kHadamard: {
      Node& b = nodes_[self.in[1]];
      if (a.needs_grad) {
        for (std::size_t i = 0; i < count; ++i) a.grad[i] += g[i] * b.value[i];
      }
      if (b.needs_grad) {
        for (std::size_t i = 0; i < count; ++i) b.grad[i] += g[i] * a.value[i];
      }
      return;
    }
    case Op::kRelu:
      if (a.needs_grad) {
        for (std::size_t i = 0; i < count; ++i) {
          if (a.value[i] > 0.0) a.grad[i] += g[i];
        }
      }
      return;
    case Op::kSquare:
      if (a.needs_grad) {
        for (std::size_t i = 0; i < count; ++i) a.grad[i] += 2.0 * a.value[i] * g[i];
      }
      return;
    case Op::kExp:
      // d exp(x) = exp(x) dx uses the forward value.
      if (a.needs_grad) {
        for (std::size_t i = 0; i < count; ++i) a.grad[i] += self.value[i] * g[i];
      }
      return;
    case Op::kMatmul: {
      // self = a (n x k) @ b (k x m); each product is finished in scratch
      // before it is added (see add_into).
      Node& b = nodes_[self.in[1]];
      if (a.needs_grad) {  // dA = G @ B^T
        la::kernels::matmul(g, a.rows, b.cols, transposed(b), a.cols, scratch_);
        add_into(a.grad, scratch_, a.size());
      }
      if (b.needs_grad) {  // dB = A^T @ G
        la::kernels::matmul_tn(a.value, a.rows, a.cols, g, b.cols, scratch_);
        add_into(b.grad, scratch_, b.size());
      }
      return;
    }
    case Op::kSpmm:
      if (a.needs_grad) {
        la::kernels::spmm_tn(*static_cast<const la::CsrMatrix*>(self.extra), g,
                             self.cols, scratch_);
        add_into(a.grad, scratch_, a.size());
      }
      return;
    case Op::kAddRowBroadcast: {
      Node& bias = nodes_[self.in[1]];
      if (a.needs_grad) add_into(a.grad, g, count);
      if (bias.needs_grad) {
        // Column sums in ascending row order, then one add per entry.
        std::fill(scratch_, scratch_ + self.cols, 0.0);
        for (std::size_t r = 0; r < self.rows; ++r) {
          add_into(scratch_, g + r * self.cols, self.cols);
        }
        add_into(bias.grad, scratch_, self.cols);
      }
      return;
    }
    case Op::kMeanRows:
      if (a.needs_grad) {
        for (std::size_t r = 0; r < a.rows; ++r) {
          double* grow = a.grad + r * a.cols;
          for (std::size_t c = 0; c < a.cols; ++c) grow[c] += self.scalar * g[c];
        }
      }
      return;
    case Op::kSliceRows:
      if (a.needs_grad) add_into(a.grad + self.aux * a.cols, g, count);
      return;
    case Op::kMeanRowsSegments:
      if (a.needs_grad) {
        for (std::size_t r = 0; r < a.rows; ++r) {
          const double* srow = g + (r / self.aux) * a.cols;
          double* grow = a.grad + r * a.cols;
          for (std::size_t c = 0; c < a.cols; ++c) grow[c] += self.scalar * srow[c];
        }
      }
      return;
    case Op::kFlatten:
      if (a.needs_grad) add_into(a.grad, g, count);
      return;
    case Op::kSum:
      if (a.needs_grad) {
        const double d = g[0];
        for (std::size_t i = 0; i < a.size(); ++i) a.grad[i] += d;
      }
      return;
    case Op::kPick:
      if (a.needs_grad) a.grad[self.aux] += g[0];
      return;
    case Op::kMaskedLogSoftmax: {
      if (!a.needs_grad) return;
      const auto* mask = static_cast<const std::uint8_t*>(self.extra);
      double grad_sum = 0.0;
      for (std::size_t i = 0; i < count; ++i) {
        if (mask[i]) grad_sum += g[i];
      }
      for (std::size_t i = 0; i < count; ++i) {
        if (mask[i]) a.grad[i] += g[i] - self.saved[i] * grad_sum;
      }
      return;
    }
    case Op::kEntropy:
      if (a.needs_grad) {
        const double d = g[0];
        for (std::size_t i = 0; i < a.cols; ++i) {
          const double l = a.value[i];
          if (l > kMaskedLogProb * 0.5) a.grad[i] += d * (-std::exp(l) * (1.0 + l));
        }
      }
      return;
    case Op::kGatAggregate: {
      Node& src = a;
      Node& dst = nodes_[self.in[1]];
      Node& z = nodes_[self.in[2]];
      const auto& neighbors =
          *static_cast<const std::vector<std::vector<int>>*>(self.extra);
      const double slope = self.scalar;
      const double* alpha = self.saved;
      double* dalpha = scratch_;  // max-degree doubles
      for (std::size_t i = 0; i < self.rows; ++i) {
        const auto& list = neighbors[i];
        const double* grow = g + i * z.cols;
        // d alpha_k = dOut_i . z_k ; softmax backward ; LeakyReLU.
        double weighted = 0.0;
        for (std::size_t k = 0; k < list.size(); ++k) {
          const std::size_t j = static_cast<std::size_t>(list[k]);
          const double* zrow = z.value + j * z.cols;
          double dot = 0.0;
          for (std::size_t c = 0; c < z.cols; ++c) dot += grow[c] * zrow[c];
          dalpha[k] = dot;
          weighted += alpha[k] * dot;
          if (z.needs_grad) {
            double* gzrow = z.grad + j * z.cols;
            for (std::size_t c = 0; c < z.cols; ++c) gzrow[c] += alpha[k] * grow[c];
          }
        }
        if (src.needs_grad || dst.needs_grad) {
          for (std::size_t k = 0; k < list.size(); ++k) {
            const double de = alpha[k] * (dalpha[k] - weighted);
            const double pre = src.value[i] + dst.value[list[k]];
            const double dpre = de * (pre > 0.0 ? 1.0 : slope);
            if (src.needs_grad) src.grad[i] += dpre;
            if (dst.needs_grad) dst.grad[list[k]] += dpre;
          }
        }
        alpha += list.size();
      }
      return;
    }
  }
}

void Tape::backward(Tensor root) {
  NP_SPAN("ad.backward");
  static obs::Counter& backwards = obs::counter("ad.backwards");
  backwards.add(1);
  const Node& r = nodes_[root.index];
  if (r.rows != 1 || r.cols != 1) {
    throw std::invalid_argument("Tape::backward: root must be 1x1");
  }
  if (!r.needs_grad) {
    throw std::invalid_argument("Tape::backward: root does not require grad");
  }
  for (const Leaf& leaf : leaves_) {
    NP_ASSERT(leaf.index > root.index || leaf.param->version == leaf.version,
              "Tape::backward: parameter '", leaf.param->name,
              "' was updated after the tape registered it");
  }
  // Gradients only for nodes that need them, only now; plus one scratch
  // buffer sized to the largest adjoint product.
  std::size_t scratch = 0;
  for (std::size_t i = 0; i <= root.index; ++i) {
    Node& n = nodes_[i];
    if (!n.needs_grad) continue;
    n.grad = alloc(n.size());
    std::fill(n.grad, n.grad + n.size(), 0.0);
    switch (n.op) {
      case Op::kMatmul:
        scratch = std::max({scratch, nodes_[n.in[0]].size(), nodes_[n.in[1]].size()});
        break;
      case Op::kSpmm:
        scratch = std::max(scratch, nodes_[n.in[0]].size());
        break;
      case Op::kAddRowBroadcast:
        scratch = std::max(scratch, n.cols);
        break;
      case Op::kGatAggregate:
        for (const auto& list :
             *static_cast<const std::vector<std::vector<int>>*>(n.extra)) {
          scratch = std::max(scratch, list.size());
        }
        break;
      default:
        break;
    }
  }
  scratch_ = alloc(scratch);
  transposes_.clear();
  nodes_[root.index].grad[0] = 1.0;
  for (std::size_t i = root.index + 1; i-- > 0;) {
    const Node& n = nodes_[i];
    if (n.needs_grad) backward_node(n);
  }
  // Leaf order, not reverse order: the order the per-leaf sums reach
  // Parameter::grad fixes its rounding.
  for (const Leaf& leaf : leaves_) {
    if (leaf.index > root.index) continue;
    const Node& n = nodes_[leaf.index];
    NP_CHECK_FINITE(n.grad, n.size(), "Tape::backward parameter gradient");
    la::Matrix& target = leaf.param->grad;
    if (target.rows() != n.rows || target.cols() != n.cols) {
      throw std::invalid_argument("Tape::backward: gradient of '" + leaf.param->name +
                                  "' is " + target.shape_string() + ", value is " +
                                  shape(n.rows, n.cols));
    }
    add_into(target.data(), n.grad, n.size());
  }
}

}  // namespace np::ad
