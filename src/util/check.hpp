// Contract-checking layer: NP_ASSERT / NP_CHECK_* macros plus the deep
// validators behind them.
//
// The macros compile to real checks in Debug builds and in builds
// configured with -DNEUROPLAN_CHECKS=ON (the asan/tsan presets do
// this); in Release builds with NDEBUG they compile to ((void)0), so
// the hot paths carry no cost. The validator functions themselves are
// always compiled and callable directly — tests exercise them in every
// build, including ones where the macros are disabled.
//
// A failed contract throws ContractViolation (a std::logic_error):
// sanitizer CI surfaces it as a test failure with file:line and a
// description of the violated invariant, and throwing (rather than
// aborting) keeps the checks testable under ASan/TSan where death
// tests are unreliable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

// NP_CHECKS_ENABLED is 1 when contract macros expand to real checks.
#if defined(NEUROPLAN_ENABLE_CHECKS) || !defined(NDEBUG)
#define NP_CHECKS_ENABLED 1
#else
#define NP_CHECKS_ENABLED 0
#endif

namespace np::util {

/// Thrown by every failed contract. Deliberately distinct from the
/// std::logic_error uses inside the solvers: internal retry handlers
/// (e.g. lp::solve's singular-basis fallback) rethrow this type so a
/// genuine contract bug is never silently retried away.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what_arg);
};

/// True when this translation unit was compiled with the macros active.
inline constexpr bool kChecksEnabled = NP_CHECKS_ENABLED == 1;

/// Log (at error level) and throw ContractViolation. `kind` is the
/// macro name, `expr` the stringified condition or validator call.
[[noreturn]] void contract_failure(const char* kind, const char* expr,
                                   const char* file, int line,
                                   const std::string& detail = std::string());

// ---- deep validators (always compiled; throw ContractViolation) ----

/// CSR structural validity: row_offsets has rows+1 entries, starts at 0,
/// is non-decreasing, ends at col_indices.size(); column indices are
/// in-bounds and strictly ascending within each row; values_size agrees
/// with col_indices.size().
void check_csr(std::size_t rows, std::size_t cols,
               const std::vector<std::size_t>& row_offsets,
               const std::vector<std::size_t>& col_indices,
               std::size_t values_size, const char* where);

/// Every entry is finite (no NaN / Inf).
void check_finite(const double* data, std::size_t count, const char* where);
void check_finite(const std::vector<double>& values, const char* where);

/// Action-mask <-> spectrum-headroom consistency (paper Eq. 4): entry
/// l*max_units_per_step + (k-1) must be set iff adding k units keeps
/// link l within min(headroom_units[l], max_units_per_step).
void check_action_mask(const std::vector<std::uint8_t>& mask,
                       const std::vector<int>& headroom_units,
                       int max_units_per_step, const char* where);

/// Matrix-shape invariant for nn parameter plumbing: actual dims must
/// equal the expected dims, where an expected value of -1 is a
/// wildcard (any extent). Used for GCN/GAT/linear layer inputs whose
/// width is fixed by the layer's parameters while the row count (nodes
/// or batch) is free.
void check_dims(std::size_t rows, std::size_t cols, long expected_rows,
                long expected_cols, const char* where);

/// Sparse LU factorization invariants (basis refactorization in
/// np::lp): all index spaces are pivot positions 0..dim-1. `lower[k]`
/// holds L's strictly-below-diagonal entries of column k (unit diagonal
/// implicit), `upper[k]` U's strictly-above-diagonal entries, `diag[k]`
/// U's diagonal. Checks L unit-lower-triangular, U's diagonal finite
/// and nonsingular, and the residual P·B·Q - L·U: each reconstructed
/// column must match `permuted_columns[k]` (the basis column pivoted at
/// step k, rows mapped to pivot positions) within `tolerance` relative
/// to the column's magnitude.
void check_lu(int dim,
              const std::vector<std::vector<std::pair<int, double>>>& lower,
              const std::vector<std::vector<std::pair<int, double>>>& upper,
              const std::vector<double>& diag,
              const std::vector<std::vector<std::pair<int, double>>>& permuted_columns,
              double tolerance, const char* where);

namespace detail {
template <class... Args>
std::string concat(const Args&... args) {
  if constexpr (sizeof...(Args) > 0) {
    std::ostringstream os;
    (os << ... << args);
    return os.str();
  } else {
    return std::string();
  }
}
}  // namespace detail

}  // namespace np::util

#if NP_CHECKS_ENABLED

/// Generic invariant: NP_ASSERT(cond) or NP_ASSERT(cond, streamable...).
#define NP_ASSERT(cond, ...)                                                \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::np::util::contract_failure("NP_ASSERT", #cond, __FILE__, __LINE__,  \
                                   ::np::util::detail::concat(__VA_ARGS__)); \
    }                                                                       \
  } while (false)

#define NP_CHECK_CSR(rows, cols, row_offsets, col_indices, values_size, where) \
  ::np::util::check_csr((rows), (cols), (row_offsets), (col_indices),          \
                        (values_size), (where))
#define NP_CHECK_FINITE(data, count, where) \
  ::np::util::check_finite((data), (count), (where))
#define NP_CHECK_ACTION_MASK(mask, headroom, max_units, where) \
  ::np::util::check_action_mask((mask), (headroom), (max_units), (where))
#define NP_CHECK_LU(dim, lower, upper, diag, permuted_columns, tolerance, where) \
  ::np::util::check_lu((dim), (lower), (upper), (diag), (permuted_columns),      \
                       (tolerance), (where))
#define NP_CHECK_DIMS(rows, cols, expected_rows, expected_cols, where) \
  ::np::util::check_dims((rows), (cols), (expected_rows), (expected_cols), \
                         (where))

#else

// Unevaluated, so free at run time, but the condition and message parts
// must still compile: a checks-off build rejects what a checks-on build
// would (e.g. a message streamed with << instead of comma-separated).
#define NP_ASSERT(cond, ...) \
  ((void)sizeof((cond) ? 0 : (::np::util::detail::concat(__VA_ARGS__), 0)))
#define NP_CHECK_CSR(rows, cols, row_offsets, col_indices, values_size, where) \
  ((void)0)
#define NP_CHECK_FINITE(data, count, where) ((void)0)
#define NP_CHECK_ACTION_MASK(mask, headroom, max_units, where) ((void)0)
#define NP_CHECK_LU(dim, lower, upper, diag, permuted_columns, tolerance, where) \
  ((void)0)
#define NP_CHECK_DIMS(rows, cols, expected_rows, expected_cols, where) ((void)0)

#endif  // NP_CHECKS_ENABLED
