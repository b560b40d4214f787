// Chebyshev semi-iteration for Laplacian smoothing.
//
// Damped Jacobi attenuates the high-frequency error of D^-1 A by a constant
// factor per sweep; Chebyshev polynomials over a target eigenvalue band do
// strictly better for the same number of matrix applications and need no
// inner products (which is why multigrid smoothers favour them). Used as an
// optional smoother in the multilevel Steiner solver.
#pragma once

#include <span>
#include <vector>

#include "hicond/graph/graph.hpp"
#include "hicond/la/cg.hpp"

namespace hicond {

/// Fixed-degree Chebyshev smoother for the diagonally preconditioned
/// Laplacian D^{-1} A over the eigenvalue band [lambda_lo, lambda_hi].
class ChebyshevSmoother {
 public:
  /// `degree` matrix applications per smooth() call. The band is the upper
  /// part of the spectrum of D^{-1} A (which is contained in [0, 2]):
  /// [hi/4, hi] with hi estimated by a few power iterations.
  ChebyshevSmoother(const Graph& g, int degree = 3);

  /// One smoothing pass: improves z as an approximate solution of A z = r,
  /// starting from the current z (use z = 0 for a first sweep). W > 1
  /// smooths W vertex-interleaved vectors (util/interleave.hpp), lane j
  /// bitwise identical to the W = 1 pass on vector j. `residual`, `d` and
  /// `work` are the caller's n*W-slot scratch. Instantiated for W in
  /// {1, 2, 4, 8}.
  template <std::size_t W = 1>
  void smooth(std::span<const double> r, std::span<double> z,
              std::span<double> residual, std::span<double> d,
              std::span<double> work) const;

 private:
  const Graph* g_;
  int degree_;
  double lambda_lo_ = 0.0;
  double lambda_hi_ = 2.0;
  std::vector<double> inv_diag_;
};

/// Estimate lambda_max(D^{-1} A) by power iteration (Laplacian-normalized
/// spectral radius; always <= 2).
[[nodiscard]] double estimate_jacobi_lambda_max(const Graph& g,
                                                int iterations = 30);

}  // namespace hicond
