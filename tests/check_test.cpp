// Contract-layer coverage: every NP_CHECK_* validator must fire on a
// deliberately corrupted input, and the macro layer must be armed
// exactly when the build says it is (np::util::kChecksEnabled). The
// validator functions are always compiled, so the corruption tests run
// in every build; the end-to-end macro tests flip between EXPECT_THROW
// and EXPECT_NO_THROW on kChecksEnabled, which doubles as a regression
// test for the no-cost-in-Release guarantee.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "ad/tape.hpp"
#include "la/matrix.hpp"
#include "la/sparse.hpp"
#include "rl/env.hpp"
#include "topo/generator.hpp"
#include "util/check.hpp"

namespace np {
namespace {

using util::ContractViolation;

// ---- CSR structural validator ----

TEST(CheckValidators, CsrAcceptsWellFormedMatrix) {
  // 2x3 with nnz {(0,0), (0,2), (1,1)}.
  const std::vector<std::size_t> offsets{0, 2, 3};
  const std::vector<std::size_t> cols{0, 2, 1};
  EXPECT_NO_THROW(util::check_csr(2, 3, offsets, cols, 3, "test"));
}

TEST(CheckValidators, CsrRejectsCorruptedOffsets) {
  const std::vector<std::size_t> cols{0, 2, 1};
  EXPECT_THROW(util::check_csr(2, 3, {0, 2}, cols, 3, "test"),
               ContractViolation);  // offsets too short
  EXPECT_THROW(util::check_csr(2, 3, {1, 2, 3}, cols, 3, "test"),
               ContractViolation);  // does not start at 0
  EXPECT_THROW(util::check_csr(2, 3, {0, 2, 2}, cols, 3, "test"),
               ContractViolation);  // back != nnz
  EXPECT_THROW(util::check_csr(2, 3, {0, 3, 2}, cols, 3, "test"),
               ContractViolation);  // decreasing (and back != nnz)
}

TEST(CheckValidators, CsrRejectsBadColumnIndices) {
  const std::vector<std::size_t> offsets{0, 2, 3};
  EXPECT_THROW(util::check_csr(2, 3, offsets, {0, 3, 1}, 3, "test"),
               ContractViolation);  // column out of bounds
  EXPECT_THROW(util::check_csr(2, 3, offsets, {2, 0, 1}, 3, "test"),
               ContractViolation);  // not ascending within row 0
  EXPECT_THROW(util::check_csr(2, 3, offsets, {0, 0, 1}, 3, "test"),
               ContractViolation);  // duplicate column within row 0
}

TEST(CheckValidators, CsrRejectsValueSizeMismatch) {
  EXPECT_THROW(util::check_csr(2, 3, {0, 2, 3}, {0, 2, 1}, 2, "test"),
               ContractViolation);
}

// ---- finite-value validator ----

TEST(CheckValidators, FiniteAcceptsFiniteAndRejectsNanInf) {
  EXPECT_NO_THROW(util::check_finite({1.0, -2.5, 0.0}, "test"));
  EXPECT_THROW(util::check_finite({1.0, std::nan(""), 0.0}, "test"),
               ContractViolation);
  EXPECT_THROW(util::check_finite({1.0, HUGE_VAL}, "test"), ContractViolation);
  EXPECT_THROW(util::check_finite({-HUGE_VAL}, "test"), ContractViolation);
}

// ---- action-mask consistency validator ----

TEST(CheckValidators, ActionMaskAgreesWithHeadroom) {
  // Two links, m = 3: headroom 2 and 0.
  const std::vector<int> headroom{2, 0};
  const std::vector<std::uint8_t> good{1, 1, 0, 0, 0, 0};
  EXPECT_NO_THROW(util::check_action_mask(good, headroom, 3, "test"));

  std::vector<std::uint8_t> unmasked_beyond_headroom = good;
  unmasked_beyond_headroom[2] = 1;  // allows adding 3 units with headroom 2
  EXPECT_THROW(
      util::check_action_mask(unmasked_beyond_headroom, headroom, 3, "test"),
      ContractViolation);

  std::vector<std::uint8_t> masked_valid_action = good;
  masked_valid_action[0] = 0;  // forbids a spectrum-legal action
  EXPECT_THROW(util::check_action_mask(masked_valid_action, headroom, 3, "test"),
               ContractViolation);

  EXPECT_THROW(util::check_action_mask({1, 0}, headroom, 3, "test"),
               ContractViolation);  // wrong size
}

// ---- matrix-dimension validator (nn feature-width contracts) ----

TEST(CheckValidators, DimsAcceptsMatchAndWildcard) {
  EXPECT_NO_THROW(util::check_dims(3, 4, 3, 4, "test"));
  EXPECT_NO_THROW(util::check_dims(3, 4, -1, 4, "test"));  // -1 = any rows
  EXPECT_NO_THROW(util::check_dims(3, 4, 3, -1, "test"));  // -1 = any cols
  EXPECT_NO_THROW(util::check_dims(3, 4, -1, -1, "test"));
}

TEST(CheckValidators, DimsRejectsMismatch) {
  EXPECT_THROW(util::check_dims(3, 4, 2, 4, "test"), ContractViolation);
  EXPECT_THROW(util::check_dims(3, 4, -1, 5, "test"),
               ContractViolation);  // feature-width divergence
}

// ---- macro layer: armed in Debug/sanitizer builds, free in Release ----

TEST(CheckMacros, AssertFiresExactlyWhenEnabled) {
  EXPECT_NO_THROW(NP_ASSERT(1 + 1 == 2, "arithmetic holds"));
  if (util::kChecksEnabled) {
    EXPECT_THROW(NP_ASSERT(false, "deliberate failure"), ContractViolation);
  } else {
    EXPECT_NO_THROW(NP_ASSERT(false, "compiled out"));
  }
}

TEST(CheckMacros, NanPoisonedTapeIsCaughtWhenEnabled) {
  ad::Tape tape;
  la::Matrix poisoned(2, 2, 1.0);
  poisoned(0, 1) = std::nan("");
  const ad::Tensor a = tape.constant(poisoned);
  const ad::Tensor b = tape.constant(la::Matrix(2, 2, 1.0));
  if (util::kChecksEnabled) {
    EXPECT_THROW(tape.matmul(a, b), ContractViolation);
  } else {
    EXPECT_NO_THROW(tape.matmul(a, b));
  }
}

TEST(CheckMacros, SpmmPropagatedNanIsCaughtWhenEnabled) {
  ad::Tape tape;
  auto adjacency = std::make_shared<const la::CsrMatrix>(
      la::CsrMatrix::from_dense(la::Matrix::identity(2)));
  la::Matrix poisoned(2, 1, 0.5);
  poisoned(1, 0) = std::nan("");
  const ad::Tensor features = tape.constant(poisoned);
  if (util::kChecksEnabled) {
    EXPECT_THROW(tape.spmm(adjacency, features), ContractViolation);
  } else {
    EXPECT_NO_THROW(tape.spmm(adjacency, features));
  }
}

// ---- LU factorization validator ----

namespace lu {
// Hand-computed factorization of B = [[2, 1], [1, 3]] with identity
// permutations: L = [[1, 0], [.5, 1]], U = [[2, 1], [0, 2.5]].
using Cols = std::vector<std::vector<std::pair<int, double>>>;
const Cols kLower = {{{1, 0.5}}, {}};
const Cols kUpper = {{}, {{0, 1.0}}};
const std::vector<double> kDiag = {2.0, 2.5};
const Cols kColumns = {{{0, 2.0}, {1, 1.0}}, {{0, 1.0}, {1, 3.0}}};
}  // namespace lu

TEST(CheckValidators, LuAcceptsValidFactorization) {
  EXPECT_NO_THROW(util::check_lu(2, lu::kLower, lu::kUpper, lu::kDiag,
                                 lu::kColumns, 1e-9, "test"));
}

TEST(CheckValidators, LuRejectsSingularOrNonFiniteDiagonal) {
  for (const double bad : {0.0, std::nan("")}) {
    std::vector<double> diag = lu::kDiag;
    diag[1] = bad;
    EXPECT_THROW(
        util::check_lu(2, lu::kLower, lu::kUpper, diag, lu::kColumns, 1e-9, "test"),
        ContractViolation);
  }
}

TEST(CheckValidators, LuRejectsEntriesOutsideStrictTriangles) {
  lu::Cols lower = lu::kLower;
  lower[1].push_back({1, 0.25});  // on-diagonal entry in L
  EXPECT_THROW(
      util::check_lu(2, lower, lu::kUpper, lu::kDiag, lu::kColumns, 1e-9, "test"),
      ContractViolation);
  lu::Cols upper = lu::kUpper;
  upper[0].push_back({1, 0.25});  // below-diagonal entry in U
  EXPECT_THROW(
      util::check_lu(2, lu::kLower, upper, lu::kDiag, lu::kColumns, 1e-9, "test"),
      ContractViolation);
}

TEST(CheckValidators, LuRejectsResidualMismatch) {
  lu::Cols columns = lu::kColumns;
  columns[1][1].second += 0.01;  // L·U no longer reproduces this column
  EXPECT_THROW(
      util::check_lu(2, lu::kLower, lu::kUpper, lu::kDiag, columns, 1e-9, "test"),
      ContractViolation);
}

TEST(CheckMacros, EnvMaskAndCsrPostconditionsHoldOnHealthyPaths) {
  // Positive control: the instrumented hot paths must not fire on
  // well-formed inputs, in any build.
  const topo::Topology t = topo::make_preset('A');
  rl::EnvConfig config;
  config.max_units_per_step = 2;
  rl::PlanningEnv env(t, config);
  EXPECT_NO_THROW((void)env.action_mask());
  EXPECT_NO_THROW((void)la::CsrMatrix::from_dense(la::Matrix::identity(4)));
}

}  // namespace
}  // namespace np
