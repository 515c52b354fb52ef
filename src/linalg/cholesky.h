// Cholesky factorization of symmetric positive-definite matrices.
//
// The numerical core behind the Gaussian-process surrogate predictor: a
// GP posterior needs K = L Lᵀ once per fit, then one forward/back
// substitution per training solve, one forward substitution per
// predictive variance, and K⁻¹ once where a power GP is compiled into
// per-config tables. Kernel matrices are SPD by construction (plus a
// noise term on the diagonal), so Cholesky is both the fastest and the
// most numerically honest factorization here — a failed pivot means the
// kernel matrix genuinely is not positive definite.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace acsel::linalg {

class CholeskyFactorization {
 public:
  /// An empty factorization (size 0), to be assigned over.
  CholeskyFactorization() = default;

  /// Factorizes symmetric positive-definite `a` (only the lower triangle
  /// is read). Throws acsel::Error when a pivot is not strictly positive
  /// — the matrix is not (numerically) positive definite.
  /// Left-looking, column by column, four rows per step; every l_ij is
  /// a_ij - Σ_k l_ik l_jk summed in k order, as in the textbook
  /// dot-product form, so the factor is bit-identical to it.
  explicit CholeskyFactorization(const Matrix& a);

  std::size_t size() const { return l_.rows(); }

  /// The lower-triangular factor L with A = L Lᵀ.
  const Matrix& l() const { return l_; }

  /// Solves A x = b (forward then back substitution). b.size() == size().
  std::vector<double> solve(std::span<const double> b) const;

  /// Solves L y = b (forward substitution only) — the half-solve whose
  /// squared norm is the GP predictive-variance reduction kᵀ K⁻¹ k.
  std::vector<double> solve_lower(std::span<const double> b) const;

  /// A⁻¹ = L⁻ᵀL⁻¹, symmetric with both triangles filled. Built blocked
  /// like the factor, in about n³/3 multiply-adds; it agrees with
  /// solve(e_c) column by column to rounding, not bit for bit.
  Matrix inverse() const;

  /// log det A = 2 Σ log l_ii (the GP log-marginal-likelihood ingredient).
  double log_determinant() const;

 private:
  Matrix l_;
};

}  // namespace acsel::linalg
