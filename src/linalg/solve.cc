#include "linalg/solve.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace milr {
namespace {

// Applies the Householder reflector H = I − τ·v·vᵀ stored in column k of
// `qr` (v_k = 1 implicit, v_r = qr(r, k) below) to columns [col_begin, end)
// of `target`, whose rows k.. line up with v. Row-major: the dot products
// vᵀ·target[:, c] for all columns accumulate together, one contiguous row
// at a time, in the same order a per-column loop would sum them.
void ApplyReflector(const Matrix& qr, std::size_t k, double tau,
                    Matrix& target, std::size_t col_begin,
                    std::vector<double>& scale) {
  const std::size_t m = qr.rows();
  const std::size_t width = target.cols() - col_begin;
  if (width == 0) return;
  scale.assign(target.row(k) + col_begin, target.row(k) + target.cols());
  for (std::size_t r = k + 1; r < m; ++r) {
    const double v = qr.at(r, k);
    const double* row = target.row(r) + col_begin;
    for (std::size_t c = 0; c < width; ++c) scale[c] += v * row[c];
  }
  for (double& s : scale) s *= tau;
  double* krow = target.row(k) + col_begin;
  for (std::size_t c = 0; c < width; ++c) krow[c] -= scale[c];
  for (std::size_t r = k + 1; r < m; ++r) {
    const double v = qr.at(r, k);
    double* row = target.row(r) + col_begin;
    for (std::size_t c = 0; c < width; ++c) row[c] -= scale[c] * v;
  }
}

}  // namespace

Result<LuFactorization> LuFactorization::Compute(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status(StatusCode::kInvalidArgument,
                  "LU requires a square matrix, got " + a.ShapeString());
  }
  const std::size_t n = a.rows();
  LuFactorization f;
  f.lu_ = a;
  f.perm_.resize(n);
  std::iota(f.perm_.begin(), f.perm_.end(), std::size_t{0});

  double max_abs = 0.0;
  for (const double v : a.flat()) max_abs = std::max(max_abs, std::abs(v));
  const double tiny = std::max(max_abs, 1.0) * kSingularRel;

  Matrix& lu = f.lu_;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude entry in column k.
    std::size_t pivot = k;
    double pivot_abs = std::abs(lu.at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu.at(r, k));
      if (v > pivot_abs) {
        pivot_abs = v;
        pivot = r;
      }
    }
    if (pivot_abs <= tiny) {
      return Status(StatusCode::kUnsolvable,
                    "LU: singular at column " + std::to_string(k));
    }
    if (pivot != k) {
      std::swap_ranges(lu.row(k), lu.row(k) + n, lu.row(pivot));
      std::swap(f.perm_[k], f.perm_[pivot]);
    }
    const double pivot_val = lu.at(k, k);
    const double* krow = lu.row(k);
    // Trailing update, row by row with a contiguous inner loop. Serial on
    // purpose: at recovery sizes, spawning threads for every pivot costs
    // more than it saves.
    for (std::size_t r = k + 1; r < n; ++r) {
      double* rrow = lu.row(r);
      const double factor = rrow[k] / pivot_val;
      rrow[k] = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) rrow[c] -= factor * krow[c];
    }
  }
  return f;
}

Matrix LuFactorization::Solve(const Matrix& rhs) const {
  const std::size_t n = lu_.rows();
  if (rhs.rows() != n) {
    throw std::invalid_argument("LU solve: rhs rows " + rhs.ShapeString() +
                                " != n=" + std::to_string(n));
  }
  const std::size_t k = rhs.cols();
  Matrix x(n, k);
  // Apply permutation.
  for (std::size_t r = 0; r < n; ++r) {
    const double* src = rhs.row(perm_[r]);
    double* dst = x.row(r);
    for (std::size_t c = 0; c < k; ++c) dst[c] = src[c];
  }
  // Forward substitution (L, unit diagonal). Columns are independent, rows
  // are not; iterate rows outer, vectorize across RHS columns.
  for (std::size_t r = 1; r < n; ++r) {
    double* xr = x.row(r);
    const double* lr = lu_.row(r);
    for (std::size_t j = 0; j < r; ++j) {
      const double l = lr[j];
      if (l == 0.0) continue;
      const double* xj = x.row(j);
      for (std::size_t c = 0; c < k; ++c) xr[c] -= l * xj[c];
    }
  }
  // Back substitution (U).
  for (std::size_t ri = n; ri-- > 0;) {
    double* xr = x.row(ri);
    const double* ur = lu_.row(ri);
    for (std::size_t j = ri + 1; j < n; ++j) {
      const double u = ur[j];
      if (u == 0.0) continue;
      const double* xj = x.row(j);
      for (std::size_t c = 0; c < k; ++c) xr[c] -= u * xj[c];
    }
    const double diag = ur[ri];
    for (std::size_t c = 0; c < k; ++c) xr[c] /= diag;
  }
  return x;
}

Result<QrFactorization> QrFactorization::Compute(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m < n) {
    return Status(StatusCode::kInvalidArgument,
                  "QR requires rows >= cols, got " + a.ShapeString());
  }
  QrFactorization f;
  f.qr_ = a;
  f.tau_.assign(n, 0.0);
  Matrix& qr = f.qr_;

  double max_abs = 0.0;
  for (const double v : a.flat()) max_abs = std::max(max_abs, std::abs(v));
  const double tiny = std::max(max_abs, 1.0) * kSingularRel;

  std::vector<double> scratch;
  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder reflector for column k.
    double norm_sq = 0.0;
    for (std::size_t r = k; r < m; ++r) {
      const double v = qr.at(r, k);
      norm_sq += v * v;
    }
    const double norm = std::sqrt(norm_sq);
    if (norm <= tiny) {
      return Status(StatusCode::kUnsolvable,
                    "QR: rank deficient at column " + std::to_string(k));
    }
    const double alpha = qr.at(k, k) >= 0 ? -norm : norm;
    const double v0 = qr.at(k, k) - alpha;
    // Normalize so the reflector's leading element is 1 (stored implicitly).
    for (std::size_t r = k + 1; r < m; ++r) qr.at(r, k) /= v0;
    f.tau_[k] = -v0 / alpha;  // equals 2 / (vᵀv) with v0-scaling
    qr.at(k, k) = alpha;

    ApplyReflector(qr, k, f.tau_[k], qr, k + 1, scratch);
  }
  return f;
}

Matrix QrFactorization::SolveLeastSquares(const Matrix& rhs) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  if (rhs.rows() != m) {
    throw std::invalid_argument("QR solve: rhs rows mismatch");
  }
  const std::size_t k = rhs.cols();
  Matrix y = rhs;
  // Apply reflectors: y := Qᵀ·y.
  std::vector<double> scratch;
  for (std::size_t j = 0; j < n; ++j) {
    ApplyReflector(qr_, j, tau_[j], y, 0, scratch);
  }
  // Back substitution on R (top n rows of y).
  Matrix x(n, k);
  for (std::size_t ri = n; ri-- > 0;) {
    double* xr = x.row(ri);
    const double* yr = y.row(ri);
    for (std::size_t c = 0; c < k; ++c) xr[c] = yr[c];
    for (std::size_t j = ri + 1; j < n; ++j) {
      const double u = qr_.at(ri, j);
      if (u == 0.0) continue;
      const double* xj = x.row(j);
      for (std::size_t c = 0; c < k; ++c) xr[c] -= u * xj[c];
    }
    const double diag = qr_.at(ri, ri);
    for (std::size_t c = 0; c < k; ++c) xr[c] /= diag;
  }
  return x;
}

Result<Matrix> SolveLinear(const Matrix& a, const Matrix& b) {
  auto lu = LuFactorization::Compute(a);
  if (!lu.ok()) return lu.status();
  return lu.value().Solve(b);
}

Result<Matrix> SolveLinearRight(const Matrix& a, const Matrix& b) {
  // X·A = B  ⇔  Aᵀ·Xᵀ = Bᵀ.
  auto xt = SolveLinear(a.Transposed(), b.Transposed());
  if (!xt.ok()) return xt.status();
  return xt.value().Transposed();
}

Result<Matrix> SolveLeastSquares(const Matrix& a, const Matrix& b) {
  if (a.rows() >= a.cols()) {
    auto qr = QrFactorization::Compute(a);
    if (!qr.ok()) return qr.status();
    return qr.value().SolveLeastSquares(b);
  }
  // Underdetermined: minimum-norm solution x = Aᵀ·(A·Aᵀ)⁻¹·b.
  const Matrix at = a.Transposed();
  auto inner = SolveLinear(MatMul(a, at), b);
  if (!inner.ok()) {
    return Status(StatusCode::kUnsolvable,
                  "least squares: underdetermined system is rank deficient (" +
                      a.ShapeString() + ")");
  }
  return MatMul(at, inner.value());
}

Result<Matrix> Invert(const Matrix& a) {
  auto lu = LuFactorization::Compute(a);
  if (!lu.ok()) return lu.status();
  return lu.value().Solve(Matrix::Identity(a.rows()));
}

}  // namespace milr
