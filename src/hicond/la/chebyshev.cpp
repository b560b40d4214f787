#include "hicond/la/chebyshev.hpp"

#include <cmath>

#include "hicond/la/vector_ops.hpp"
#include "hicond/util/common.hpp"
#include "hicond/util/interleave.hpp"
#include "hicond/util/parallel.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {

double estimate_jacobi_lambda_max(const Graph& g, int iterations) {
  HICOND_CHECK(iterations > 0, "estimate_jacobi_lambda_max: iterations must be positive");
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (n < 2) return 2.0;
  const std::vector<double> inv_diag = inverse_volumes(g);
  Rng rng(31);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> y(n);
  double lambda = 2.0;
  for (int it = 0; it < iterations; ++it) {
    g.laplacian_apply(x, y);
    parallel_for(n, [&](std::size_t i) { y[i] *= inv_diag[i]; });
    const double norm = la::norm2(y);
    if (!(norm > 0.0)) break;
    // Rayleigh-ish estimate from the normalized power step.
    lambda = norm / std::max(la::norm2(x), 1e-300);
    la::scale(1.0 / norm, y);
    x.swap(y);
  }
  return std::min(lambda * 1.05, 2.0);  // safety margin, capped at the bound
}

ChebyshevSmoother::ChebyshevSmoother(const Graph& g, int degree)
    : g_(&g), degree_(degree) {
  HICOND_CHECK(degree >= 1, "Chebyshev degree must be >= 1");
  // The smoothed band is [lambda_hi / 4, lambda_hi].
  constexpr double kBandFraction = 4.0;
  lambda_hi_ = estimate_jacobi_lambda_max(g);
  lambda_lo_ = lambda_hi_ / kBandFraction;
  inv_diag_ = inverse_volumes(g);
}

template <std::size_t W>
void ChebyshevSmoother::smooth(std::span<const double> r, std::span<double> z,
                               std::span<double> residual, std::span<double> d,
                               std::span<double> work) const {
  const std::size_t len = inv_diag_.size() * W;
  HICOND_CHECK(r.size() == len && z.size() == len, "size mismatch");
  HICOND_CHECK(residual.size() == len && d.size() == len && work.size() == len,
               "scratch size mismatch");
  // Standard three-term Chebyshev recurrence on the preconditioned residual
  // (Saad, "Iterative Methods", ch. 12): smooths the band
  // [lambda_lo, lambda_hi] of D^{-1} A. Every lane runs the same scalar
  // recurrence; only the vectors are W wide.
  const double theta = 0.5 * (lambda_hi_ + lambda_lo_);
  const double delta = 0.5 * (lambda_hi_ - lambda_lo_);
  const auto lanes = [&](auto&& fn) {
    parallel_for(len, [&](std::size_t i) { fn(i, inv_diag_[i / W]); });
  };
  // residual = r - A z (preconditioned).
  g_->laplacian_apply<W>(z, work);
  lanes([&](std::size_t i, double inv) {
    residual[i] = (r[i] - work[i]) * inv;
  });
  double alpha = 1.0 / theta;
  lanes([&](std::size_t i, double) { d[i] = alpha * residual[i]; });
  double sigma = theta / delta;
  double rho = 1.0 / sigma;
  for (int k = 1; k < degree_; ++k) {
    la::axpy(1.0, d, z);
    g_->laplacian_apply<W>(d, work);
    lanes([&](std::size_t i, double inv) { residual[i] -= work[i] * inv; });
    const double rho_next = 1.0 / (2.0 * sigma - rho);
    const double beta = rho * rho_next;
    alpha = 2.0 * rho_next / delta;
    lanes([&](std::size_t i, double) {
      d[i] = beta * d[i] + alpha * residual[i];
    });
    rho = rho_next;
  }
  la::axpy(1.0, d, z);
}

#define HICOND_INSTANTIATE(W)                                               \
  template void ChebyshevSmoother::smooth<W>(                               \
      std::span<const double>, std::span<double>, std::span<double>,        \
      std::span<double>, std::span<double>) const;
HICOND_FOR_EACH_LANE_WIDTH(HICOND_INSTANTIATE)
#undef HICOND_INSTANTIATE

}  // namespace hicond
