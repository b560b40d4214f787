#include "hicond/precond/multilevel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>

#include "hicond/graph/generators.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

std::vector<double> mean_free_rhs(vidx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  return b;
}

/// Bit-pattern equality (== would let -0.0 match +0.0).
bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Multilevel, BuildsOnHierarchy) {
  const Graph g = gen::grid2d(16, 16, gen::WeightSpec::uniform(1.0, 2.0), 3);
  const MultilevelSteinerSolver s =
      MultilevelSteinerSolver::build(build_hierarchy(g, {.coarsest_size = 32}));
  EXPECT_GE(s.num_levels(), 1);
  EXPECT_GT(s.operator_complexity(), 1.0);
  EXPECT_LT(s.operator_complexity(), 2.5);  // geometric level shrinkage
}

TEST(Multilevel, ApplyIsLinearSymmetric) {
  const Graph g = gen::grid2d(10, 10, gen::WeightSpec::uniform(1.0, 3.0), 5);
  const MultilevelSteinerSolver s =
      MultilevelSteinerSolver::build(build_hierarchy(g, {.coarsest_size = 16}));
  const auto r1 = mean_free_rhs(100, 1);
  const auto r2 = mean_free_rhs(100, 2);
  std::vector<double> z1(100);
  std::vector<double> z2(100);
  s.apply(r1, z1);
  s.apply(r2, z2);
  // Symmetry of the V-cycle operator.
  EXPECT_NEAR(la::dot(r2, z1), la::dot(r1, z2), 1e-8);
  // Linearity: apply(r1 + r2) = apply(r1) + apply(r2).
  std::vector<double> r12(100);
  for (std::size_t i = 0; i < 100; ++i) r12[i] = r1[i] + r2[i];
  std::vector<double> z12(100);
  s.apply(r12, z12);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(z12[i], z1[i] + z2[i], 1e-9);
  }
}

TEST(Multilevel, PreconditionsPcgOnGrid) {
  const Graph g = gen::grid2d(20, 20, gen::WeightSpec::uniform(1.0, 2.0), 7);
  const vidx n = 400;
  const MultilevelSteinerSolver s =
      MultilevelSteinerSolver::build(build_hierarchy(g, {.coarsest_size = 32}));
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  const auto b = mean_free_rhs(n, 3);
  std::vector<double> x_plain(static_cast<std::size_t>(n), 0.0);
  const auto plain =
      cg_solve(a, b, x_plain,
               {.max_iterations = 2000, .rel_tolerance = 1e-8,
                .project_constant = true});
  std::vector<double> x_ml(static_cast<std::size_t>(n), 0.0);
  const auto ml = flexible_pcg_solve(
      a, s.as_operator(), b, x_ml,
      {.max_iterations = 2000, .rel_tolerance = 1e-8, .project_constant = true});
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(ml.converged);
  EXPECT_LT(ml.iterations, plain.iterations);
}

TEST(Multilevel, SolvesOctVolumeSystem) {
  const Graph g = gen::oct_volume(8, 8, 8, {.field_orders = 2.0}, 9);
  const vidx n = g.num_vertices();
  const MultilevelSteinerSolver s =
      MultilevelSteinerSolver::build(build_hierarchy(g, {.coarsest_size = 64}));
  auto a = [&g](std::span<const double> x, std::span<double> y) {
    g.laplacian_apply(x, y);
  };
  const auto b = mean_free_rhs(n, 5);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const auto stats = flexible_pcg_solve(
      a, s.as_operator(), b, x,
      {.max_iterations = 400, .rel_tolerance = 1e-8, .project_constant = true});
  EXPECT_TRUE(stats.converged);
  std::vector<double> check(static_cast<std::size_t>(n));
  g.laplacian_apply(x, check);
  double err = 0.0;
  for (std::size_t i = 0; i < check.size(); ++i) {
    err = std::max(err, std::abs(check[i] - b[i]));
  }
  EXPECT_LT(err, 1e-5);
}

TEST(Multilevel, TrivialHierarchyFallsBackToDirect) {
  const Graph g = gen::path(6, gen::WeightSpec::uniform(1.0, 2.0), 2);
  const MultilevelSteinerSolver s =
      MultilevelSteinerSolver::build(build_hierarchy(g, {.coarsest_size = 10}));
  EXPECT_EQ(s.num_levels(), 0);
  const auto b = mean_free_rhs(6, 9);
  std::vector<double> x(6);
  s.apply(b, x);
  std::vector<double> check(6);
  g.laplacian_apply(x, check);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(check[i], b[i], 1e-9);
}

// The column-major block entry points are adapters onto the W-lane
// kernels. Every k below exercises a different chunking (8/4/2/1 widths,
// with split tails at 11 and 15); each column must equal the single-vector call
// bit for bit, for both smoothers and a flat hierarchy.
TEST(Multilevel, BlockAppliesMatchPerColumnBitwise) {
  // 50x50 = 2500 vertices: the per-lane reductions span two blocks.
  const Graph grid =
      gen::grid2d(50, 50, gen::WeightSpec::uniform(1.0, 2.0), 4);
  const Graph path = gen::path(6, gen::WeightSpec::uniform(1.0, 2.0), 2);
  const MultilevelOptions variants[] = {
      {},
      {.smoother = SmootherKind::chebyshev},
  };
  for (const Graph* g : {&grid, &path}) {
    const auto n = static_cast<std::size_t>(g->num_vertices());
    for (const MultilevelOptions& options : variants) {
      const MultilevelSteinerSolver s = MultilevelSteinerSolver::build(
          build_hierarchy(*g, {.coarsest_size = 32}), options);
      for (const int k : {1, 3, 5, 8, 11, 15}) {
        const auto uk = static_cast<std::size_t>(k);
        std::vector<double> r(n * uk);
        for (std::size_t j = 0; j < uk; ++j) {
          const auto col = mean_free_rhs(g->num_vertices(), 20 + j);
          std::copy(col.begin(), col.end(), r.begin() + j * n);
        }
        std::vector<double> z(n * uk);
        std::vector<double> y(n * uk);
        s.apply_block(r, z, k);
        g->laplacian_apply_block(r, y, k);
        for (std::size_t j = 0; j < uk; ++j) {
          const std::span<const double> rj(r.data() + j * n, n);
          std::vector<double> zj(n);
          std::vector<double> yj(n);
          s.apply(rj, zj);
          g->laplacian_apply(rj, yj);
          EXPECT_TRUE(bitwise_equal(zj, std::span(z).subspan(j * n, n)))
              << "apply_block n=" << n << " k=" << k << " column " << j;
          EXPECT_TRUE(bitwise_equal(yj, std::span(y).subspan(j * n, n)))
              << "laplacian_apply_block n=" << n << " k=" << k
              << " column " << j;
        }
      }
    }
  }
}

// Size errors must throw before anything is written, at every level count:
// the kernels index their inputs without further checks.
TEST(Multilevel, RejectsMissizedInputsAndForeignWorkspace) {
  const Graph grid = gen::grid2d(20, 20, gen::WeightSpec::uniform(1.0, 2.0), 4);
  const Graph path = gen::path(6, gen::WeightSpec::uniform(1.0, 2.0), 2);
  for (const Graph* g : {&grid, &path}) {
    const auto n = static_cast<std::size_t>(g->num_vertices());
    const MultilevelSteinerSolver s =
        MultilevelSteinerSolver::build(build_hierarchy(*g, {.coarsest_size = 10}));
    std::vector<double> short_r(n - 1, 1.0);
    std::vector<double> long_z(n + 1, 0.0);
    std::vector<double> r(n, 1.0);
    std::vector<double> z(n, 0.0);
    EXPECT_THROW(s.apply(short_r, long_z), invalid_argument_error);
    EXPECT_THROW(s.apply(r, long_z), invalid_argument_error);
    EXPECT_THROW(s.apply(short_r, short_r), invalid_argument_error);
    // k = 4 blocks of n + 1: a whole number of columns, each mis-sized.
    std::vector<double> rb(4 * (n + 1), 1.0);
    std::vector<double> zb(rb.size(), 0.0);
    EXPECT_THROW(s.apply_block(rb, zb, 4), invalid_argument_error);
    EXPECT_TRUE(std::all_of(zb.begin(), zb.end(),
                            [](double v) { return v == 0.0; }));

    const MultilevelSteinerSolver other =
        MultilevelSteinerSolver::build(build_hierarchy(*g, {.coarsest_size = 10}));
    MultilevelSteinerSolver::Workspace foreign(other, 1);
    EXPECT_THROW(s.apply<1>(r, z, foreign), invalid_argument_error);
    MultilevelSteinerSolver::Workspace narrow(s, 1);
    std::vector<double> r2(2 * n, 1.0);
    std::vector<double> z2(2 * n, 0.0);
    EXPECT_THROW(s.apply<2>(r2, z2, narrow), invalid_argument_error);
  }
}

}  // namespace
}  // namespace hicond
