// Tape-based reverse-mode automatic differentiation.
//
// A Tape records every operation of a forward pass; Tensor is a cheap
// handle (an index into the tape). backward(root) runs the recorded
// adjoint operations in reverse creation order — parents always precede
// children on the tape, so reverse order is a valid topological order —
// and finally accumulates gradients of registered parameters into their
// Parameter::grad fields.
//
// Storage: node values, gradients and adjoint scratch live in one bump
// arena (la::Arena) that clear() rewinds and keeps, so a tape reused
// across passes of the same shape stops allocating after the first one.
// Gradients and adjoint scratch are made only inside backward(), so a
// forward that is never back-propagated (an acting forward,
// ActorCritic::act) stores neither.
// Parameters are leaves BY REFERENCE: the tape reads Parameter::value in
// place until backward(), so the parameter must not change in between
// (checks-on builds assert this through Parameter::version). Products
// and their adjoints run on la/kernels.
//
// The op set is exactly what the NeuroPlan networks need (GCN per
// Eq. 7 of the paper + MLP actor/critic + masked categorical policy);
// each op's gradient is verified against finite differences in tests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ad/parameter.hpp"
#include "la/arena.hpp"
#include "la/matrix.hpp"
#include "la/sparse.hpp"

namespace np::ad {

class Tape;

/// Handle to a tape node. Valid only for the Tape that produced it and
/// only until Tape::clear().
struct Tensor {
  std::uint32_t index = 0;
};

class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Number of recorded nodes.
  std::size_t size() const { return nodes_.size(); }

  /// Drop all recorded nodes (start a fresh forward pass). Keeps the
  /// storage for the next pass.
  void clear();

  // ---- graph inputs ----

  /// Record a constant (no gradient flows into it). The value is copied.
  Tensor constant(const la::Matrix& value);

  /// Record a 1 x 1 constant.
  Tensor scalar(double value);

  /// Record a trainable parameter as a leaf, by reference: param.value
  /// is read in place until backward() and must not change before it.
  /// The same Parameter may be registered many times per tape (e.g.
  /// once per RL step); each leaf keeps its own gradient, and backward()
  /// adds them into param.grad in registration order.
  Tensor parameter(Parameter& param);

  // ---- elementwise / structural ops ----
  Tensor add(Tensor a, Tensor b);
  Tensor sub(Tensor a, Tensor b);
  Tensor scale(Tensor a, double factor);
  Tensor hadamard(Tensor a, Tensor b);
  Tensor relu(Tensor a);
  Tensor square(Tensor a);
  Tensor exp(Tensor a);

  /// Dense matrix product.
  Tensor matmul(Tensor a, Tensor b);

  /// Sparse-constant times dense-variable: adjacency @ features. The
  /// tape holds the adjacency until clear(); it is not copied.
  Tensor spmm(std::shared_ptr<const la::CsrMatrix> lhs, Tensor rhs);

  /// Broadcast-add a 1 x c bias row to every row of an n x c matrix.
  Tensor add_row_broadcast(Tensor matrix, Tensor bias_row);

  /// n x c -> 1 x c column means (graph pooling for the critic).
  Tensor mean_rows(Tensor a);

  /// n x m -> 1 x (n*m) row-major flatten (per-link logits -> action logits).
  Tensor flatten_to_row(Tensor a);

  /// Sum of all entries -> 1 x 1.
  Tensor sum(Tensor a);

  /// Entry (r, c) -> 1 x 1 (gather a sampled action's log-probability).
  Tensor pick(Tensor a, std::size_t r, std::size_t c);

  /// Masked log-softmax over a 1 x k row. Entries where mask[i] is false
  /// get value -infinity-ish (-1e30) and receive no gradient; valid
  /// entries form a proper log-distribution. Requires >= 1 valid entry.
  Tensor masked_log_softmax(Tensor row, const std::vector<std::uint8_t>& mask);

  /// Entropy -sum(p * logp) of a log-distribution row -> 1 x 1.
  /// Input must be log-probabilities (e.g. from masked_log_softmax);
  /// -1e30 entries contribute zero.
  Tensor entropy_from_log_probs(Tensor log_probs);

  /// Graph-attention aggregation (GAT, Velickovic et al.), using the
  /// standard decomposition e_ij = LeakyReLU(src_i + dst_j):
  ///   out_i = sum_{j in N(i)} softmax_j(e_ij) * features_j,
  /// where N(i) is row i of the n x n adjacency's sparsity pattern in
  /// stored column order (every row needs its self loop). scores_src
  /// and scores_dst are n x 1; features is n x h. The tape holds the
  /// adjacency until clear(), as spmm does.
  Tensor gat_aggregate(Tensor scores_src, Tensor scores_dst, Tensor features,
                       std::shared_ptr<const la::CsrMatrix> adjacency,
                       double leaky_slope = 0.2);

  // ---- access ----
  std::size_t rows(Tensor t) const { return nodes_[t.index].rows; }
  std::size_t cols(Tensor t) const { return nodes_[t.index].cols; }
  /// Row-major value, valid until clear(). The hot-path accessor.
  const double* data(Tensor t) const { return nodes_[t.index].value; }
  /// A copy of the value (tests and cold paths).
  la::Matrix value(Tensor t) const;
  /// A copy of the gradient; empty before backward() or when the node
  /// needs no gradient.
  la::Matrix grad(Tensor t) const;

  /// Reverse pass from a 1 x 1 root. Seeds d(root)=1, propagates through
  /// the tape, then adds each parameter leaf's gradient into its
  /// Parameter::grad. Callable once per forward pass.
  void backward(Tensor root);

  // ---- storage (steady-state tests) ----
  /// Heap allocations the node arena has made since construction.
  long arena_reallocations() const { return arena_.reallocations(); }
  /// Bytes the tape keeps across clear(): arena plus bookkeeping.
  std::size_t reserved_bytes() const;

 private:
  enum class Op : std::uint8_t {
    kConstant,
    kParameter,
    kAdd,
    kSub,
    kScale,
    kHadamard,
    kRelu,
    kSquare,
    kExp,
    kMatmul,
    kSpmm,
    kAddRowBroadcast,
    kMeanRows,
    kFlatten,
    kSum,
    kPick,
    kMaskedLogSoftmax,
    kEntropy,
    kGatAggregate,
  };

  /// One recorded op. Value, grad and `saved` point into the arena (a
  /// parameter leaf's value into its Parameter); `in` are parent
  /// indices; `scalar`, `aux` and `extra` are op-specific.
  struct Node {
    const double* value = nullptr;
    double* grad = nullptr;  ///< allocated by backward()
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::uint32_t in[3] = {0, 0, 0};
    Op op = Op::kConstant;
    bool needs_grad = false;
    double scalar = 0.0;            ///< scale factor, 1/n, leaky slope
    std::size_t aux = 0;            ///< picked offset
    const void* extra = nullptr;    ///< CSR adjacency, mask bytes
    const double* saved = nullptr;  ///< GAT attention weights
    std::size_t size() const { return rows * cols; }
  };

  struct Leaf {
    std::uint32_t index;
    Parameter* param;
    std::uint64_t version;  ///< param->version at registration
  };

  static Node make_node(Op op, std::size_t rows, std::size_t cols,
                        const double* value, bool needs_grad);
  Tensor emit(const Node& node);
  const Node& node(Tensor t) const { return nodes_[t.index]; }
  double* alloc(std::size_t count) { return arena_.alloc_doubles(count); }
  /// Keep `owner` alive until clear() (an adjacency).
  template <class T>
  void hold(const std::shared_ptr<T>& owner) {
    if (held_.empty() || held_.back().get() != owner.get()) held_.emplace_back(owner);
  }
  /// Transpose of a node value. A parameter's is cached for one
  /// backward() (a weight used by every step of a chunk is transposed
  /// once); nothing survives clear().
  const double* transposed(const Node& n);
  /// Scatter this node's gradient into its parents' gradients.
  void backward_node(const Node& n);

  std::vector<Node> nodes_;
  std::vector<Leaf> leaves_;
  std::vector<std::shared_ptr<const void>> held_;
  std::vector<std::pair<const double*, const double*>> transposes_;
  double* scratch_ = nullptr;  ///< adjoint product buffer of one backward()
  la::Arena arena_;
};

}  // namespace np::ad
