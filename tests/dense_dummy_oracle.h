// Explicit-matrix reference for MILR's dense dummy-row algebra.
//
// The library never forms the dummy-row matrix A: it computes A·W and Aᵀ·Y
// as fast DCTs (milr/algebra.h, linalg/dct.h). These helpers build A entry by
// entry from DenseDummyRowEntry, the definition of A, and solve with it
// directly, so tests can check the transforms against the plain algebra.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "milr/algebra.h"

namespace milr::core {

/// The first `rows` dummy input rows, shape (rows, N), in float.
inline Tensor MakeDenseDummyRows(std::size_t rows, std::size_t n,
                                 std::uint64_t seed) {
  const std::vector<float> signs = DenseDummyColumnSigns(n, seed);
  Tensor out(Shape{rows, n});
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      out.at(r, c) = DenseDummyRowEntry(r, c, n, signs[c]);
    }
  }
  return out;
}

/// DenseSolveParams with A spelled out: W = Aᵀ·Y summed in double when
/// dummy_rows == N, and an LU solve of [x_real; A]·W = [y_real; Y] when
/// dummy_rows == N − 1.
inline Result<Tensor> DenseSolveParamsExplicit(std::size_t n, std::size_t p,
                                               const Tensor& x_real,
                                               const Tensor& y_real,
                                               std::size_t dummy_rows,
                                               std::uint64_t row_seed,
                                               const Tensor& dummy_outputs) {
  if (dummy_rows == n) {
    const std::vector<float> signs = DenseDummyColumnSigns(n, row_seed);
    Tensor w(Shape{n, p});
    std::vector<double> acc(p);
    for (std::size_t c = 0; c < n; ++c) {
      std::fill(acc.begin(), acc.end(), 0.0);
      for (std::size_t r = 0; r < n; ++r) {
        const double a = DenseDummyRowEntry(r, c, n, signs[c]);
        for (std::size_t j = 0; j < p; ++j) {
          acc[j] += a * static_cast<double>(dummy_outputs[r * p + j]);
        }
      }
      for (std::size_t j = 0; j < p; ++j) {
        w[c * p + j] = static_cast<float>(acc[j]);
      }
    }
    return w;
  }
  if (dummy_rows + 1 != n) {
    return Status(StatusCode::kInvalidArgument,
                  "DenseSolveParamsExplicit: needs N or N - 1 dummy rows");
  }
  const Tensor rows = MakeDenseDummyRows(dummy_rows, n, row_seed);
  Matrix a(n, n);
  Matrix rhs(n, p);
  for (std::size_t c = 0; c < n; ++c) a.at(0, c) = x_real[c];
  for (std::size_t j = 0; j < p; ++j) rhs.at(0, j) = y_real[j];
  for (std::size_t r = 0; r < dummy_rows; ++r) {
    for (std::size_t c = 0; c < n; ++c) a.at(r + 1, c) = rows.at(r, c);
    for (std::size_t j = 0; j < p; ++j) {
      rhs.at(r + 1, j) = static_cast<double>(dummy_outputs[r * p + j]);
    }
  }
  auto solved = SolveLinear(a, rhs);
  if (!solved.ok()) return solved.status();
  return MatrixToTensor(solved.value(), Shape{n, p});
}

}  // namespace milr::core
