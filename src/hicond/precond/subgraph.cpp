#include "hicond/precond/subgraph.hpp"

#include <algorithm>
#include <unordered_map>

#include "hicond/graph/builder.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/tree/low_stretch.hpp"
#include "hicond/tree/mst.hpp"
#include "hicond/tree/tree_splitting.hpp"

namespace hicond {

Graph vaidya_augmented_subgraph(const Graph& a, const Graph& tree,
                                vidx target_subtrees) {
  HICOND_CHECK(a.num_vertices() == tree.num_vertices(),
               "tree vertex count mismatch");
  const vidx n = a.num_vertices();
  if (target_subtrees <= 1 || n <= 2) {
    return tree;
  }
  const vidx cap = std::max<vidx>(
      2, static_cast<vidx>((n + target_subtrees - 1) / target_subtrees));
  const Decomposition split = split_forest_bounded(tree, cap);
  // Heaviest non-tree edge of `a` per adjacent subtree pair.
  std::unordered_map<std::uint64_t, WeightedEdge> best;
  best.reserve(static_cast<std::size_t>(split.num_clusters) * 4);
  for (const auto& e : a.edge_list()) {
    const vidx cu = split.assignment[static_cast<std::size_t>(e.u)];
    const vidx cv = split.assignment[static_cast<std::size_t>(e.v)];
    if (cu == cv) continue;
    if (tree.has_edge(e.u, e.v)) continue;  // tree edges are already in B
    const std::uint64_t key =
        (static_cast<std::uint64_t>(std::min(cu, cv)) << 32) |
        static_cast<std::uint64_t>(std::max(cu, cv));
    auto [it, inserted] = best.try_emplace(key, e);
    if (!inserted && e.weight > it->second.weight) it->second = e;
  }
  GraphBuilder b(n);
  for (const auto& e : tree.edge_list()) b.add_edge(e.u, e.v, e.weight);
  // Deterministic iteration: collect and sort the selected extras. The
  // unordered_map visit order leaks nowhere past the sort below, which is a
  // strict total order (an edge joins exactly one subtree pair, so (u, v)
  // never repeats across values of `best`).
  std::vector<WeightedEdge> extras;
  extras.reserve(best.size());
  // hicond-tidy: allow(ordered-iteration)
  for (const auto& [key, e] : best) extras.push_back(e);
  std::sort(extras.begin(), extras.end(), [](const auto& x, const auto& y) {
    return x.u != y.u ? x.u < y.u : x.v < y.v;
  });
  for (const auto& e : extras) b.add_edge(e.u, e.v, e.weight);
  return b.build();
}

SubgraphPreconditioner SubgraphPreconditioner::build(
    const Graph& a, const SubgraphPrecondOptions& opt) {
  SubgraphPreconditioner p;
  Graph tree = opt.tree_kind == SpanningTreeKind::max_weight
                   ? max_spanning_forest_kruskal(a)
                   : low_stretch_tree_akpw(a, {.seed = opt.seed});
  p.b_ = opt.target_subtrees > 1
             ? vaidya_augmented_subgraph(a, tree, opt.target_subtrees)
             : std::move(tree);
  p.pc_ = std::make_shared<PartialCholesky>(
      PartialCholesky::eliminate_low_degree(p.b_));
  if (p.pc_->core().num_vertices() > 1) {
    HICOND_CHECK(is_connected(p.pc_->core()),
                 "subgraph core must be connected");
    p.core_solver_ = std::make_shared<LaplacianDirectSolver>(p.pc_->core());
  }
  return p;
}

void SubgraphPreconditioner::apply(std::span<const double> r,
                                   std::span<double> z) const {
  HICOND_CHECK(z.size() == r.size(), "size mismatch");
  auto core_solve = [this](std::span<const double> cb) -> std::vector<double> {
    if (core_solver_ == nullptr) {
      return std::vector<double>(cb.size(), 0.0);
    }
    return core_solver_->solve(cb);
  };
  const std::vector<double> x = pc_->solve(r, core_solve);
  std::copy(x.begin(), x.end(), z.begin());
}

LinearOperator SubgraphPreconditioner::as_operator() const {
  // A copy shares the cascade and core solver, so the operator outlives
  // this object safely.
  return [self = *this](std::span<const double> r, std::span<double> z) {
    self.apply(r, z);
  };
}

}  // namespace hicond
