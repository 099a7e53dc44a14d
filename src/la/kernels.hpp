// Dense and sparse kernels: raw-pointer, allocation-free building
// blocks for every network forward and backward — the tape's matmul,
// spmm and their adjoints (ad::Tape) and the tape-free acting path
// (nn::InferenceEngine). la::Matrix::matmul and CsrMatrix::multiply
// call them too, so each product has one implementation.
//
// Every kernel accumulates each output element over its reduction
// dimension in strictly ascending order, starting from +0.0, with a
// separate multiply and add per term. So any two paths through these
// kernels — the AVX2 tiles, the portable loops, tape or engine — give
// BIT-IDENTICAL results (the determinism suite relies on this; see
// docs/INTERNALS.md §8). Speed comes from register tiling (a 4 x 8
// output block in eight AVX2 accumulators, chosen at run time from the
// CPU), row-chunked CSR SpMM, and fused bias+activation epilogues — not
// from reassociating sums. FMA is never enabled: a fused a*b+c rounds
// once instead of twice and would change every digest.
//
// All outputs are caller-allocated (typically from an la::Arena);
// kernels never touch the heap.
#pragma once

#include <cstddef>
#include <cstdint>

#include "la/sparse.hpp"

namespace np::la::kernels {

enum class Activation { kNone, kRelu };

/// out (n x m) = a (n x k) @ b (k x m), all row-major. `out` need not
/// be initialized and must not alias an input.
void matmul(const double* a, std::size_t n, std::size_t k, const double* b,
            std::size_t m, double* out);

/// out (k x m) = a^T @ g for a (n x k) and g (n x m), without building
/// a^T: out(p, j) sums a(i, p) * g(i, j) over ascending i, so the
/// result is bit-identical to transposing a and calling matmul. This is
/// the weight gradient X^T G of a dense layer.
void matmul_tn(const double* a, std::size_t n, std::size_t k, const double* g,
               std::size_t m, double* out);

/// out (cols x rows) = a^T for a (rows x cols).
void transpose(const double* a, std::size_t rows, std::size_t cols, double* out);

/// Fused linear layer: out = act(a @ b + bias), with `bias` a length-m
/// row (nullptr = no bias). The epilogue applies bias then activation
/// elementwise, matching tape add_row_broadcast + relu bitwise.
void matmul_bias_act(const double* a, std::size_t n, std::size_t k,
                     const double* b, std::size_t m, const double* bias,
                     Activation act, double* out);

/// out (rows x cols) = A (rows x ?) @ x, row-chunked CSR SpMM
/// (per-row nnz order ascending).
void spmm(const CsrMatrix& a, const double* x, std::size_t cols, double* out);

/// out (A.cols x cols) = A^T @ x for x (A.rows x cols): each output row
/// sums its contributions in ascending row order of A. The adjoint of
/// spmm.
void spmm_tn(const CsrMatrix& a, const double* x, std::size_t cols, double* out);

/// Elementwise max(x + bias, 0) over `n` rows of width `m` (the GCN
/// layer epilogue when the product came from spmm-then-matmul).
void bias_relu(double* x, std::size_t n, std::size_t m, const double* bias,
               Activation act);

/// out (1 x c) = column means of x (n x c), sum-ascending-then-scale —
/// bit-identical to Tape::mean_rows.
void mean_rows(const double* x, std::size_t n, std::size_t c, double* out);

/// Masked log-softmax over a length-k row: invalid entries get -1e30,
/// valid entries x[i] - log(sum exp). Bit-identical to
/// Tape::masked_log_softmax. Throws std::invalid_argument when no
/// entry is valid.
void masked_log_softmax(const double* logits, const std::uint8_t* mask,
                        std::size_t k, double* out);

/// Single-head GAT aggregation over the CSR adjacency pattern
/// (neighbor order = ascending column index, exactly the order
/// GatEncoder::neighbor_lists produces): for each node i,
///   out_i = sum_j softmax_j(LeakyReLU(src_i + dst_j)) * z_j.
/// `scratch` must hold at least max-row-nnz doubles (attention weights
/// for one node). Bit-identical to Tape::gat_aggregate's forward.
void gat_aggregate(const CsrMatrix& adjacency, const double* src,
                   const double* dst, const double* z, std::size_t cols,
                   double leaky_slope, double* scratch, double* out);

}  // namespace np::la::kernels
