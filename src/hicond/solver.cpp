#include "hicond/solver.hpp"

#include "hicond/graph/connectivity.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/trace.hpp"
#include "hicond/util/interleave.hpp"
#include "hicond/util/timer.hpp"

namespace hicond {

LaplacianSolver::LaplacianSolver(Graph g,
                                 const LaplacianSolverOptions& options)
    : options_(options), graph_(std::make_shared<Graph>(std::move(g))) {
  HICOND_SPAN("solver.setup");
  const Timer setup_timer;
  HICOND_CHECK(graph_->num_vertices() >= 1, "empty graph");
  HICOND_RUN_VALIDATION(expensive, graph_->validate());
  HICOND_CHECK(is_connected(*graph_),
               "LaplacianSolver requires a connected graph");
  solver_ = MultilevelSteinerSolver::build(
      build_hierarchy(*graph_, options.hierarchy), options.multilevel);
  setup_seconds_ = setup_timer.seconds();
}

LaplacianSolver::LaplacianSolver(Graph g, LaminarHierarchy hierarchy,
                                 const LaplacianSolverOptions& options,
                                 const MultilevelSteinerSolver* reuse)
    : options_(options), graph_(std::make_shared<Graph>(std::move(g))) {
  HICOND_SPAN("solver.setup");
  const Timer setup_timer;
  HICOND_CHECK(graph_->num_vertices() >= 1, "empty graph");
  const Graph& base = hierarchy.levels.empty() ? hierarchy.coarsest
                                               : hierarchy.levels.front().graph;
  HICOND_CHECK(base.identical_to(*graph_),
               "hierarchy base graph does not match the solver's graph");
  HICOND_CHECK(is_connected(*graph_),
               "LaplacianSolver requires a connected graph");
  solver_ = MultilevelSteinerSolver::build(std::move(hierarchy),
                                           options.multilevel, reuse);
  setup_seconds_ = setup_timer.seconds();
}

SolveStats LaplacianSolver::solve(std::span<const double> b,
                                  std::span<double> x) const {
  HICOND_SPAN("solver.solve");
  return std::move(solve_batch(b, x, 1).front());
}

std::vector<SolveStats> LaplacianSolver::solve_batch(std::span<const double> b,
                                                     std::span<double> x,
                                                     int k) const {
  HICOND_SPAN("solver.solve_batch");
  const Graph& g = *graph_;
  const MultilevelSteinerSolver& ml = solver_;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  HICOND_CHECK(k >= 1, "batched solve needs at least one right-hand side");
  HICOND_CHECK(b.size() == n * static_cast<std::size_t>(k),
               "rhs block size mismatch");
  HICOND_CHECK(x.size() == b.size(), "x block size mismatch");
  const CgOptions cg_options{.max_iterations = options_.max_iterations,
                             .rel_tolerance = options_.rel_tolerance,
                             .record_history = true,
                             .project_constant = true};
  std::vector<SolveStats> stats(static_cast<std::size_t>(k));
  const std::size_t widest = std::min(kMaxLanes, static_cast<std::size_t>(k));
  MultilevelSteinerSolver::Workspace ws(ml, widest);
  std::vector<double> b_lanes(n * widest);
  std::vector<double> x_lanes(n * widest);
  // Every chunk runs the one solve path -- flexible PCG with the V-cycle
  // preconditioner -- at its lane width; solve() is the k = 1 case.
  for_each_lane_chunk(k, [&](auto width, int j0) {
    constexpr std::size_t W = decltype(width)::value;
    const std::span<double> bl(b_lanes.data(), n * W);
    const std::span<double> xl(x_lanes.data(), n * W);
    interleave<W>(b, n, j0, bl);
    interleave<W>(x, n, j0, xl);
    const LinearOperator a = [&g](std::span<const double> in,
                                  std::span<double> out) {
      g.laplacian_apply<W>(in, out);
    };
    const LinearOperator m_inv = [&ml, &ws](std::span<const double> in,
                                            std::span<double> out) {
      ml.apply<W>(in, out, ws);
    };
    std::array<SolveStats, W> chunk =
        pcg_interleaved<W>(a, &m_inv, bl, xl, cg_options, /*flexible=*/true);
    deinterleave<W>(xl, n, j0, x);
    std::move(chunk.begin(), chunk.end(),
              stats.begin() + static_cast<std::ptrdiff_t>(j0));
  });
  return stats;
}

obs::SolverReport LaplacianSolver::report(
    const obs::SolverReportOptions& options) const {
  obs::SolverReport r = obs::make_solver_report(solver_, options);
  r.setup_seconds = setup_seconds_;
  return r;
}

double LaplacianSolver::effective_resistance(vidx u, vidx v) const {
  const vidx n = graph_->num_vertices();
  HICOND_CHECK(u >= 0 && u < n && v >= 0 && v < n, "vertex out of range");
  HICOND_CHECK(u != v, "effective resistance of a vertex with itself is 0");
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  b[static_cast<std::size_t>(u)] = 1.0;
  b[static_cast<std::size_t>(v)] = -1.0;
  const std::vector<double> x = solve(b);
  return x[static_cast<std::size_t>(u)] - x[static_cast<std::size_t>(v)];
}

std::vector<double> LaplacianSolver::solve(std::span<const double> b) const {
  std::vector<double> x(b.size(), 0.0);
  const SolveStats stats = solve(b, x);
  if (!stats.converged) {
    throw numeric_error("LaplacianSolver: PCG did not converge (residual " +
                        std::to_string(stats.final_relative_residual) + ")");
  }
  return x;
}

}  // namespace hicond
