#include "hicond/la/sparse_cholesky.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "hicond/graph/generators.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

CsrMatrix spd_from_graph(const Graph& g, double shift) {
  // Laplacian + shift * I is SPD.
  CsrMatrix m = csr_laplacian(g);
  for (vidx i = 0; i < m.rows; ++i) {
    for (eidx k = m.offsets[static_cast<std::size_t>(i)];
         k < m.offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      if (m.col_idx[static_cast<std::size_t>(k)] == i) {
        m.values[static_cast<std::size_t>(k)] += shift;
      }
    }
  }
  return m;
}

class SparseLdlOrderings : public testing::TestWithParam<Ordering> {};

TEST_P(SparseLdlOrderings, SolvesShiftedLaplacian) {
  const Graph g = gen::grid2d(8, 8, gen::WeightSpec::uniform(1.0, 3.0), 3);
  const CsrMatrix a = spd_from_graph(g, 0.5);
  const SparseLDL f = SparseLDL::factor(a, GetParam());
  Rng rng(7);
  std::vector<double> x_true(64);
  for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
  std::vector<double> b(64);
  a.multiply(x_true, b);
  const auto x = f.solve(b);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllOrderings, SparseLdlOrderings,
                         testing::Values(Ordering::natural, Ordering::rcm,
                                         Ordering::min_degree,
                                         Ordering::amd));

TEST(SparseLdl, RejectsIndefinite) {
  // Pure Laplacian is singular: last pivot hits zero (or negative).
  const Graph g = gen::path(5);
  const CsrMatrix a = csr_laplacian(g);
  EXPECT_THROW((void)SparseLDL::factor(a, Ordering::natural), numeric_error);
}

TEST(SparseLdl, FillReducingOrderingsReduceFill) {
  const Graph g = gen::grid2d(16, 16, gen::WeightSpec::unit(), 1);
  const CsrMatrix a = spd_from_graph(g, 1.0);
  const eidx natural =
      SparseLDL::factor(a, Ordering::natural).factor_nnz();
  const eidx rcm = SparseLDL::factor(a, Ordering::rcm).factor_nnz();
  const eidx md = SparseLDL::factor(a, Ordering::min_degree).factor_nnz();
  const eidx amd = SparseLDL::factor(a, Ordering::amd).factor_nnz();
  // RCM and min-degree should not be catastrophically worse than natural on
  // a grid, and min-degree should beat natural; AMD approximates min-degree
  // within a modest factor.
  EXPECT_LE(md, natural);
  EXPECT_LE(rcm, natural * 2);
  EXPECT_LE(amd, natural);
  EXPECT_LE(amd, md * 3);
}

TEST(ComputeOrdering, IsAPermutation) {
  const Graph g = gen::random_planar_triangulation(60, gen::WeightSpec::unit(), 2);
  const CsrMatrix a = spd_from_graph(g, 1.0);
  for (Ordering kind : {Ordering::natural, Ordering::rcm,
                        Ordering::min_degree, Ordering::amd}) {
    auto p = compute_ordering(a, kind);
    std::sort(p.begin(), p.end());
    for (vidx i = 0; i < 60; ++i) {
      EXPECT_EQ(p[static_cast<std::size_t>(i)], i);
    }
  }
}

TEST(LaplacianDirectSolver, SolvesPseudoSystem) {
  const Graph g = gen::grid3d(4, 4, 3, gen::WeightSpec::uniform(0.5, 5.0), 9);
  const vidx n = g.num_vertices();
  const LaplacianDirectSolver solver(g);
  Rng rng(5);
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(x_true);
  std::vector<double> b(static_cast<std::size_t>(n));
  g.laplacian_apply(x_true, b);
  const auto x = solver.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(LaplacianDirectSolver, OutputIsMeanFree) {
  const Graph g = gen::random_tree(40, gen::WeightSpec::uniform(1.0, 2.0), 3);
  const LaplacianDirectSolver solver(g);
  Rng rng(11);
  std::vector<double> b(40);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  const auto x = solver.solve(b);
  double sum = 0.0;
  for (double v : x) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(LaplacianDirectSolver, SingleVertexGraph) {
  const Graph g(1);
  const LaplacianDirectSolver solver(g);
  const std::vector<double> b{0.0};
  EXPECT_EQ(solver.solve(b), std::vector<double>{0.0});
}

TEST(LaplacianDirectSolver, LargeGridAccuracy) {
  const Graph g = gen::grid2d(30, 30, gen::WeightSpec::uniform(1.0, 10.0), 17);
  const LaplacianDirectSolver solver(g, Ordering::rcm);
  Rng rng(3);
  std::vector<double> x_true(900);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(x_true);
  std::vector<double> b(900);
  g.laplacian_apply(x_true, b);
  std::vector<double> x(900);
  solver.apply(b, x);
  EXPECT_LT(la::max_abs_diff(x, x_true), 1e-7);
}

TEST(LaplacianDirectSolver, ScratchFormIsBitwiseSolve) {
  // The multilevel coarsest solve reuses one scratch across lanes and
  // V-cycles, so what a previous call left there (poisoned with NaN here)
  // must not reach the result.
  const Graph g = gen::grid2d(12, 9, gen::WeightSpec::uniform(1.0, 10.0), 4);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const LaplacianDirectSolver solver(g);
  ASSERT_EQ(solver.scratch_size(), 3 * (n - 1));
  std::vector<double> scratch(solver.scratch_size(), std::nan(""));
  std::vector<double> x(n, std::nan(""));
  Rng rng(21);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> b(n);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    solver.apply(b, x, scratch);
    const std::vector<double> expected = solver.solve(b);
    ASSERT_EQ(std::memcmp(x.data(), expected.data(), n * sizeof(double)), 0);
  }
  const LaplacianDirectSolver single(Graph(1));
  EXPECT_EQ(single.scratch_size(), 0U);
  std::vector<double> x1{5.0};
  single.apply(std::vector<double>{1.0}, x1, {});
  EXPECT_EQ(x1[0], 0.0);
}

TEST(SparseLdl, SpanSolveIsBitwiseVectorSolve) {
  const Graph g = gen::grid3d(5, 4, 3, gen::WeightSpec::uniform(0.5, 2.0), 8);
  const CsrMatrix a = spd_from_graph(g, 0.25);
  const SparseLDL f = SparseLDL::factor(a, Ordering::amd);
  const auto n = static_cast<std::size_t>(f.dim());
  Rng rng(6);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  std::vector<double> x(n, std::nan(""));
  std::vector<double> work(n, std::nan(""));
  f.solve(b, x, work);
  const std::vector<double> expected = f.solve(b);
  EXPECT_EQ(std::memcmp(x.data(), expected.data(), n * sizeof(double)), 0);
}

}  // namespace
}  // namespace hicond
