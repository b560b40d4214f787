#include "gremban.hpp"

#include <gtest/gtest.h>

#include "hicond/graph/generators.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/precond/schur.hpp"
#include "hicond/precond/steiner.hpp"
#include "hicond/precond/support.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

TEST(Gremban, MatchesClosedFormSteinerApply) {
  // The explicit extended solve and the leaf-elimination closed form are
  // the same operator.
  const Graph a = gen::grid2d(6, 5, gen::WeightSpec::uniform(1.0, 3.0), 3);
  const auto fd = fixed_degree_decomposition(a, {.max_cluster_size = 4});
  const SteinerPreconditioner sp =
      SteinerPreconditioner::build(a, fd.decomposition);
  const GrembanSolver gremban(sp.steiner_graph(), a.num_vertices());
  EXPECT_EQ(gremban.num_steiner(), sp.num_steiner_vertices());
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> r(30);
    for (auto& v : r) v = rng.uniform(-1.0, 1.0);
    la::remove_mean(r);
    std::vector<double> z1(30);
    std::vector<double> z2(30);
    sp.apply(r, z1);
    gremban.apply(r, z2);
    la::remove_mean(z1);  // compare in the mean-free gauge
    la::remove_mean(z2);
    EXPECT_LT(la::max_abs_diff(z1, z2), 1e-8) << "trial " << trial;
  }
}

TEST(Gremban, WorksWithMatchedStar) {
  // Lemma 3.4's star is also a Steiner graph; the Gremban solve must invert
  // its Schur complement: B = star complement, check B * apply(r) == r.
  const Graph a = gen::grid2d(4, 4, gen::WeightSpec::uniform(1.0, 2.0), 7);
  const Graph star = matched_star(a);
  const GrembanSolver gremban(star, a.num_vertices());
  Rng rng(9);
  std::vector<double> r(16);
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(r);
  std::vector<double> z(16);
  gremban.apply(r, z);
  // Verify via the extended system: pad z with the root potential that
  // balances it, then S [z; y] should equal [r; 0] for the right y.
  // Equivalent check: the star Schur complement applied densely.
  const Graph schur_full = star_schur_complement(star, 16);
  std::vector<vidx> keep(16);
  for (vidx v = 0; v < 16; ++v) keep[static_cast<std::size_t>(v)] = v;
  const Graph b = induced_subgraph(schur_full, keep);
  std::vector<double> back(16);
  b.laplacian_apply(z, back);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_NEAR(back[i], r[i], 1e-8);
}

TEST(Gremban, OperatorIsSymmetric) {
  const Graph a = gen::random_planar_triangulation(
      20, gen::WeightSpec::uniform(1.0, 2.0), 11);
  const auto fd = fixed_degree_decomposition(a, {.max_cluster_size = 3});
  const SteinerPreconditioner sp =
      SteinerPreconditioner::build(a, fd.decomposition);
  const GrembanSolver gremban(sp.steiner_graph(), 20);
  Rng rng(13);
  std::vector<double> r1(20);
  std::vector<double> r2(20);
  for (auto& v : r1) v = rng.uniform(-1.0, 1.0);
  for (auto& v : r2) v = rng.uniform(-1.0, 1.0);
  std::vector<double> z1(20);
  std::vector<double> z2(20);
  gremban.apply(r1, z1);
  gremban.apply(r2, z2);
  EXPECT_NEAR(la::dot(r2, z1), la::dot(r1, z2), 1e-9);
}

TEST(Gremban, PreconditionsPcg) {
  const Graph a = gen::oct_volume(6, 6, 6, {.field_orders = 2.0}, 13);
  const auto fd = fixed_degree_decomposition(a, {.max_cluster_size = 4});
  const SteinerPreconditioner sp =
      SteinerPreconditioner::build(a, fd.decomposition);
  const GrembanSolver gremban(sp.steiner_graph(), a.num_vertices());
  auto op_a = [&a](std::span<const double> x, std::span<double> y) {
    a.laplacian_apply(x, y);
  };
  Rng rng(15);
  std::vector<double> b(216);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  std::vector<double> x(216, 0.0);
  const auto stats = pcg_solve(
      op_a, gremban.as_operator(), b, x,
      {.max_iterations = 500, .rel_tolerance = 1e-8, .project_constant = true});
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(stats.iterations, 60);
}

TEST(Gremban, RejectsBadInput) {
  const Graph disconnected(4);  // no edges
  EXPECT_THROW(GrembanSolver(disconnected, 2), invalid_argument_error);
  const Graph a = gen::path(4);
  EXPECT_THROW(GrembanSolver(a, 9), invalid_argument_error);
}

}  // namespace
}  // namespace hicond
