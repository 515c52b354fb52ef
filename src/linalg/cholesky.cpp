#include "linalg/cholesky.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.h"

namespace acsel::linalg {

namespace {

/// Four row indices from `first`. A block of only `count` < 4 rows
/// repeats its last row: the repeated sums come out identical and are
/// stored to the same place.
std::array<std::size_t, 4> block(std::size_t first, std::size_t count) {
  return {first, first + std::min<std::size_t>(1, count - 1),
          first + std::min<std::size_t>(2, count - 1),
          first + std::min<std::size_t>(3, count - 1)};
}

/// The left-looking step for a block of rows below the diagonal of column
/// j: l_ij = (a_ij - Σ_{k<j} l_ik l_jk) / l_jj. Each row's sum runs in k
/// order, exactly the dot-product recurrence, so the factor is
/// bit-identical to it; the four sums share every load of row j and stay
/// in registers (named scalars: an array of sums is kept in memory).
void factor_rows(const Matrix& a, Matrix& l, std::size_t i,
                 std::size_t count, std::size_t j) {
  const auto [i_0, i_1, i_2, i_3] = block(i, count);
  const double* const l_j = l.row(j).data();
  double* const l_0 = l.row(i_0).data();
  double* const l_1 = l.row(i_1).data();
  double* const l_2 = l.row(i_2).data();
  double* const l_3 = l.row(i_3).data();
  double s_0 = a(i_0, j);
  double s_1 = a(i_1, j);
  double s_2 = a(i_2, j);
  double s_3 = a(i_3, j);
  for (std::size_t k = 0; k < j; ++k) {
    const double l_jk = l_j[k];
    s_0 -= l_0[k] * l_jk;
    s_1 -= l_1[k] * l_jk;
    s_2 -= l_2[k] * l_jk;
    s_3 -= l_3[k] * l_jk;
  }
  l_0[j] = s_0 / l_j[j];
  l_1[j] = s_1 / l_j[j];
  l_2[j] = s_2 / l_j[j];
  l_3[j] = s_3 / l_j[j];
}

/// A block of columns c.. of L⁻¹ by forward substitution, stored as rows
/// of w = L⁻ᵀ: w_ci = (δ_ci - Σ_{k<i} l_ik w_ck) / l_ii. Entries before a
/// column's diagonal come out zero, so every sum can start at k = c.
void invert_columns(const Matrix& l, Matrix& w, std::size_t c,
                    std::size_t count) {
  const auto [c_0, c_1, c_2, c_3] = block(c, count);
  double* const w_0 = w.row(c_0).data();
  double* const w_1 = w.row(c_1).data();
  double* const w_2 = w.row(c_2).data();
  double* const w_3 = w.row(c_3).data();
  for (std::size_t i = c; i < l.rows(); ++i) {
    const double* const l_i = l.row(i).data();
    double s_0 = i == c_0 ? 1.0 : 0.0;
    double s_1 = i == c_1 ? 1.0 : 0.0;
    double s_2 = i == c_2 ? 1.0 : 0.0;
    double s_3 = i == c_3 ? 1.0 : 0.0;
    for (std::size_t k = c; k < i; ++k) {
      const double l_ik = l_i[k];
      s_0 -= l_ik * w_0[k];
      s_1 -= l_ik * w_1[k];
      s_2 -= l_ik * w_2[k];
      s_3 -= l_ik * w_3[k];
    }
    w_0[i] = s_0 / l_i[i];
    w_1[i] = s_1 / l_i[i];
    w_2[i] = s_2 / l_i[i];
    w_3[i] = s_3 / l_i[i];
  }
}

/// Entries (i.., j) of A⁻¹ = L⁻ᵀL⁻¹ for a block of rows i >= j, mirrored
/// to (j, i..): Σ_{k>=i} w_ik w_jk. Rows of w are zero before their
/// diagonal, so every sum can start at the block's first row.
void inverse_rows(const Matrix& w, Matrix& inv, std::size_t i,
                  std::size_t count, std::size_t j) {
  const auto [i_0, i_1, i_2, i_3] = block(i, count);
  // Destinations are fetched up front: a call after the loop would make
  // the compiler keep the sums in memory.
  double* const inv_j = inv.row(j).data();
  double* const inv_0 = inv.row(i_0).data();
  double* const inv_1 = inv.row(i_1).data();
  double* const inv_2 = inv.row(i_2).data();
  double* const inv_3 = inv.row(i_3).data();
  const double* const w_j = w.row(j).data();
  const double* const w_0 = w.row(i_0).data();
  const double* const w_1 = w.row(i_1).data();
  const double* const w_2 = w.row(i_2).data();
  const double* const w_3 = w.row(i_3).data();
  double s_0 = 0.0;
  double s_1 = 0.0;
  double s_2 = 0.0;
  double s_3 = 0.0;
  for (std::size_t k = i; k < w.cols(); ++k) {
    const double w_jk = w_j[k];
    s_0 += w_0[k] * w_jk;
    s_1 += w_1[k] * w_jk;
    s_2 += w_2[k] * w_jk;
    s_3 += w_3[k] * w_jk;
  }
  inv_0[j] = inv_j[i_0] = s_0;
  inv_1[j] = inv_j[i_1] = s_1;
  inv_2[j] = inv_j[i_2] = s_2;
  inv_3[j] = inv_j[i_3] = s_3;
}

}  // namespace

CholeskyFactorization::CholeskyFactorization(const Matrix& a) {
  ACSEL_CHECK_MSG(a.rows() == a.cols() && a.rows() > 0,
                  "Cholesky needs a square non-empty matrix");
  const std::size_t n = a.rows();
  l_ = Matrix{n, n};
  // Column by column: the pivot, then the rows below it four at a time.
  for (std::size_t j = 0; j < n; ++j) {
    const std::span<double> l_j = l_.row(j);
    double pivot = a(j, j);
    for (std::size_t k = 0; k < j; ++k) {
      pivot -= l_j[k] * l_j[k];
    }
    ACSEL_CHECK_MSG(pivot > 0.0,
                    "Cholesky pivot <= 0: matrix is not positive definite");
    l_j[j] = std::sqrt(pivot);
    for (std::size_t i = j + 1; i < n; i += 4) {
      factor_rows(a, l_, i, std::min<std::size_t>(4, n - i), j);
    }
  }
}

std::vector<double> CholeskyFactorization::solve_lower(
    std::span<const double> b) const {
  const std::size_t n = size();
  ACSEL_CHECK_MSG(b.size() == n, "Cholesky solve: size mismatch");
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> l_i = l_.row(i);
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) {
      sum -= l_i[k] * y[k];
    }
    y[i] = sum / l_i[i];
  }
  return y;
}

std::vector<double> CholeskyFactorization::solve(
    std::span<const double> b) const {
  const std::size_t n = size();
  std::vector<double> x = solve_lower(b);
  // Back substitution with Lᵀ: column i of L, read down its rows.
  const std::span<const double> l = l_.data();
  for (std::size_t i = n; i-- > 0;) {
    double sum = x[i];
    for (std::size_t k = i + 1; k < n; ++k) {
      sum -= l[k * n + i] * x[k];
    }
    x[i] = sum / l[i * n + i];
  }
  return x;
}

Matrix CholeskyFactorization::inverse() const {
  const std::size_t n = size();
  ACSEL_CHECK_MSG(n > 0, "Cholesky inverse of an empty factorization");
  Matrix w{n, n};
  for (std::size_t c = 0; c < n; c += 4) {
    invert_columns(l_, w, c, std::min<std::size_t>(4, n - c));
  }
  Matrix inv{n, n};
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j; i < n; i += 4) {
      inverse_rows(w, inv, i, std::min<std::size_t>(4, n - i), j);
    }
  }
  return inv;
}

double CholeskyFactorization::log_determinant() const {
  double log_det = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    log_det += 2.0 * std::log(l_(i, i));
  }
  return log_det;
}

}  // namespace acsel::linalg
