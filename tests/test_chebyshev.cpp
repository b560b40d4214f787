#include "hicond/la/chebyshev.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "hicond/graph/generators.hpp"
#include "hicond/la/dense_eigen.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/precond/multilevel.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

// One smoothing pass over single vectors, with fresh recurrence scratch.
void smooth(const ChebyshevSmoother& smoother, std::span<const double> r,
            std::span<double> z) {
  std::vector<double> residual(r.size());
  std::vector<double> d(r.size());
  std::vector<double> work(r.size());
  smoother.smooth(r, z, residual, d, work);
}

TEST(JacobiLambdaMax, WithinSpectralBounds) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 3.0), 3);
  const double est = estimate_jacobi_lambda_max(g);
  EXPECT_GT(est, 1.0);   // grids have lambda_max(D^-1 A) close to 2
  EXPECT_LE(est, 2.0 + 1e-12);
}

TEST(JacobiLambdaMax, NearExactOnBipartiteGraph) {
  // Bipartite graphs have lambda_max(D^-1 A) = 2 exactly.
  const Graph g = gen::path(40);
  EXPECT_NEAR(estimate_jacobi_lambda_max(g, 100), 2.0, 0.05);
}

TEST(Chebyshev, ReducesHighFrequencyError) {
  const Graph g = gen::grid2d(10, 10, gen::WeightSpec::uniform(1.0, 2.0), 5);
  const ChebyshevSmoother smoother(g, 4);
  // Solve A z = r approximately from zero; the residual after one sweep
  // must shrink substantially in the smoothed band. Use a random rhs.
  Rng rng(7);
  std::vector<double> r(100);
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(r);
  std::vector<double> z(100, 0.0);
  smooth(smoother, r, z);
  std::vector<double> residual(100);
  g.laplacian_apply(z, residual);
  for (std::size_t i = 0; i < 100; ++i) residual[i] = r[i] - residual[i];
  EXPECT_LT(la::norm2(residual), la::norm2(r));
}

TEST(Chebyshev, BeatsJacobiAtEqualWork) {
  // degree-d Chebyshev vs d damped-Jacobi sweeps: compare residuals after
  // equal numbers of matrix applications.
  const Graph g = gen::grid2d(12, 12, gen::WeightSpec::uniform(1.0, 2.0), 9);
  const int d = 4;
  Rng rng(3);
  std::vector<double> r(144);
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(r);

  std::vector<double> z_cheb(144, 0.0);
  const ChebyshevSmoother smoother(g, d);
  smooth(smoother, r, z_cheb);
  std::vector<double> res_cheb(144);
  g.laplacian_apply(z_cheb, res_cheb);
  for (std::size_t i = 0; i < 144; ++i) res_cheb[i] = r[i] - res_cheb[i];

  std::vector<double> z_jac(144, 0.0);
  std::vector<double> work(144);
  for (int s = 0; s < d; ++s) {
    g.laplacian_apply(z_jac, work);
    for (std::size_t i = 0; i < 144; ++i) {
      z_jac[i] += 0.7 * (r[i] - work[i]) / g.vol(static_cast<vidx>(i));
    }
  }
  std::vector<double> res_jac(144);
  g.laplacian_apply(z_jac, res_jac);
  for (std::size_t i = 0; i < 144; ++i) res_jac[i] = r[i] - res_jac[i];

  EXPECT_LT(la::norm2(res_cheb), la::norm2(res_jac));
}

TEST(Chebyshev, SmoothIsLinearInRhs) {
  const Graph g = gen::grid2d(6, 6, gen::WeightSpec::uniform(1.0, 2.0), 11);
  const ChebyshevSmoother smoother(g, 3);
  Rng rng(5);
  std::vector<double> r1(36);
  std::vector<double> r2(36);
  for (auto& v : r1) v = rng.uniform(-1.0, 1.0);
  for (auto& v : r2) v = rng.uniform(-1.0, 1.0);
  std::vector<double> z1(36, 0.0);
  std::vector<double> z2(36, 0.0);
  std::vector<double> z12(36, 0.0);
  std::vector<double> r12(36);
  for (std::size_t i = 0; i < 36; ++i) r12[i] = r1[i] + r2[i];
  smooth(smoother, r1, z1);
  smooth(smoother, r2, z2);
  smooth(smoother, r12, z12);
  for (std::size_t i = 0; i < 36; ++i) {
    EXPECT_NEAR(z12[i], z1[i] + z2[i], 1e-10);
  }
}

TEST(Chebyshev, MultilevelWithChebyshevSmootherSolves) {
  const Graph g = gen::oct_volume(8, 8, 8, {.field_orders = 2.0}, 7);
  const vidx n = g.num_vertices();
  const MultilevelSteinerSolver s = MultilevelSteinerSolver::build(
      build_hierarchy(g, {.coarsest_size = 64}),
      {.smoother = SmootherKind::chebyshev, .chebyshev_degree = 3});
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  Rng rng(9);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const auto stats = flexible_pcg_solve(
      a, s.as_operator(), b, x,
      {.max_iterations = 300, .rel_tolerance = 1e-8, .project_constant = true});
  EXPECT_TRUE(stats.converged);
  std::vector<double> check(static_cast<std::size_t>(n));
  g.laplacian_apply(x, check);
  for (std::size_t i = 0; i < check.size(); ++i) {
    EXPECT_NEAR(check[i], b[i], 1e-5);
  }
}

TEST(Chebyshev, RejectsBadParameters) {
  const Graph g = gen::path(5);
  EXPECT_THROW(ChebyshevSmoother(g, 0), invalid_argument_error);
}

}  // namespace
}  // namespace hicond
