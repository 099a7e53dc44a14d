// Dense and sparse kernels: raw-pointer, allocation-free building
// blocks for every network forward and backward — the tape's matmul,
// spmm and their adjoints (ad::Tape), for PPO updates and acting alike.
// la::Matrix::matmul and CsrMatrix::multiply call them too, so each
// product has one implementation.
//
// Every kernel accumulates each output element over its reduction
// dimension in strictly ascending order, starting from +0.0, with a
// separate multiply and add per term. So the AVX2 tiles and the
// portable loops give BIT-IDENTICAL results (the determinism suite
// relies on this; see docs/INTERNALS.md §8). Speed comes from register
// tiling (a 4 x 8 output block in eight AVX2 accumulators, chosen at
// run time from the CPU) and row-chunked CSR SpMM — not from
// reassociating sums. FMA is never enabled: a fused a*b+c rounds once
// instead of twice and would change every digest.
//
// All outputs are caller-allocated (typically from an la::Arena);
// kernels never touch the heap.
#pragma once

#include <cstddef>

#include "la/sparse.hpp"

namespace np::la::kernels {

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

/// out (rows x cols) = A (rows x ?) @ x, row-chunked CSR SpMM
/// (per-row nnz order ascending).
void spmm(const CsrMatrix& a, const double* x, std::size_t cols, double* out);

/// out (A.cols x cols) = A^T @ x for x (A.rows x cols): each output row
/// sums its contributions in ascending row order of A. The adjoint of
/// spmm.
void spmm_tn(const CsrMatrix& a, const double* x, std::size_t cols, double* out);

}  // namespace np::la::kernels
