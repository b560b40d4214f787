// Multilevel Steiner preconditioner over a laminar hierarchy.
//
// The two-level Steiner application M^{-1} r = D^{-1} r + R Q^+ R' r needs
// an exact quotient solve; recursing the same construction on Q and
// sandwiching each coarse correction between symmetric Jacobi smoothing
// steps yields a V-cycle that is a fixed symmetric positive operator --
// usable directly inside (flexible) PCG. This is the "hierarchy of Steiner
// preconditioners" of Section 1.1 in solver form.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "hicond/la/cg.hpp"
#include "hicond/la/chebyshev.hpp"
#include "hicond/la/sparse_cholesky.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/util/thread_annotations.hpp"

namespace hicond {

enum class SmootherKind {
  jacobi,     ///< damped Jacobi sweeps
  chebyshev,  ///< Chebyshev semi-iteration over the upper band of D^-1 A
};

/// Each application is one V-cycle with one pre- and one post-smoothing
/// sweep per level; a Jacobi sweep is damped with weight 0.7.
struct MultilevelOptions {
  SmootherKind smoother = SmootherKind::jacobi;
  int chebyshev_degree = 3;  ///< matrix applications per Chebyshev sweep
};

/// Per-level V-cycle time attribution (see cycle_stats()).
struct LevelCycleStats {
  std::int64_t calls = 0;
  double seconds = 0.0;  ///< inclusive of the recursion into coarser levels
};

/// Symmetric multilevel cycle built on a LaminarHierarchy; the coarsest
/// level is solved exactly with sparse LDL'.
class MultilevelSteinerSolver {
  struct State;

 public:
  /// Build the cycle over `hierarchy`. When `reuse` is given, its state is
  /// carried over where that is provably exact: when the coarsest graphs are
  /// bitwise identical the coarsest LDL' factorization -- the dominant setup
  /// cost on deep hierarchies -- is shared instead of refactored. This is the
  /// dynamic-repair fast path: a repaired hierarchy whose quotient chain was
  /// preserved (RepairResult::upper_rebuilt == false) keeps the old coarsest
  /// graph, so the factorization transfers. The result is bitwise identical
  /// to a from-scratch build (the factorization is a pure function of the
  /// coarsest graph). Per-level smoother state is rebuilt (smoothers hold
  /// pointers into their own hierarchy and must not alias another's).
  [[nodiscard]] static MultilevelSteinerSolver build(
      LaminarHierarchy hierarchy, const MultilevelOptions& options = {},
      const MultilevelSteinerSolver* reuse = nullptr);

  /// All per-solve state for apply<W> with W <= `width`: the V-cycle and
  /// Chebyshev vectors, the coarsest gather/scatter buffers and this solve's
  /// cycle timings, which the destructor adds once to cycle_stats(). A built
  /// solver is read-only, so threads may solve with it at once, each through
  /// its own Workspace. Serves only the solver it was built for (or a copy).
  class Workspace {
   public:
    Workspace(const MultilevelSteinerSolver& solver, std::size_t width);
    ~Workspace();
    Workspace(const Workspace&) = delete;
    Workspace& operator=(const Workspace&) = delete;

   private:
    friend class MultilevelSteinerSolver;
    std::shared_ptr<const State> state_;
    struct Level {
      std::vector<double> work;                ///< n*W: A z, and A d
      std::vector<double> coarse_r, coarse_z;  ///< m*W: coarse r and z
      std::vector<double> residual, d;  ///< n*W, Chebyshev levels only
    };
    std::size_t width_;
    std::vector<Level> levels_;
    std::vector<double> coarsest_in_, coarsest_out_;  ///< one coarsest lane
    std::vector<double> coarsest_scratch_;  ///< the LDL' solve's scratch
    std::vector<LevelCycleStats> stats_;  ///< levels + coarsest, this solve
  };

  /// z = M^{-1} r (one symmetric V-cycle starting from z = 0).
  /// Allocates its own workspace; repeated callers should hold a Workspace.
  void apply(std::span<const double> r, std::span<double> z) const;

  /// Z = M^{-1} R for W residuals stored vertex-interleaved (slot v*W + j
  /// is residual j at vertex v; util/interleave.hpp). One hierarchy
  /// traversal serves all W lanes, and lane j is bitwise identical to
  /// apply() of residual j: every smoother, restriction and prolongation
  /// step evaluates the W = 1 expression on the lane's own slots, and the
  /// coarsest LDL' runs per lane. `ws` must be at least W wide and built for
  /// this solver; r and z must hold n*W slots (n = finest vertex count).
  /// Instantiated for W in {1, 2, 4, 8}.
  template <std::size_t W = 1>
  void apply(std::span<const double> r, std::span<double> z,
             Workspace& ws) const;

  /// Z = M^{-1} R for k residuals stored column-major (column j occupies
  /// [j*n, (j+1)*n)): a thin adapter onto apply<W> over width 8/4/2/1
  /// chunks. Column j is bitwise identical to apply(r_j, z_j).
  void apply_block(std::span<const double> r, std::span<double> z,
                   int k) const;

  [[nodiscard]] LinearOperator as_operator() const;

  [[nodiscard]] int num_levels() const noexcept {
    return static_cast<int>(state_->hierarchy.num_levels());
  }

  /// The hierarchy this cycle runs over (for reports and inspection).
  [[nodiscard]] const LaminarHierarchy& hierarchy() const noexcept {
    return state_->hierarchy;
  }

  /// Wall time spent per level across every apply() so far: entries
  /// [0, num_levels()) are the V-cycle levels, the last entry is the
  /// coarsest direct solve. A snapshot of the totals, which each Workspace
  /// adds to when it is destroyed (so a solve counts once it returns); safe
  /// to call concurrently with solves.
  [[nodiscard]] std::vector<LevelCycleStats> cycle_stats() const;

  /// Total vertices across all levels divided by n (grid-complexity metric).
  [[nodiscard]] double operator_complexity() const;

 private:
  struct State {
    explicit State(LaminarHierarchy h)
        : hierarchy(std::move(h)),
          cycle_totals(static_cast<std::size_t>(hierarchy.num_levels()) + 1) {}

    LaminarHierarchy hierarchy;
    std::vector<std::vector<double>> inv_diag;  ///< per level
    /// Per-level cluster-major index driving the parallel restriction.
    std::vector<ClusterIndex> restriction;
    std::vector<std::unique_ptr<ChebyshevSmoother>> chebyshev;  ///< per level
    /// Shared so a rebuilt solver with an identical coarsest graph (the
    /// dynamic-repair path) can alias the factorization instead of
    /// refactoring; LaplacianDirectSolver is immutable after construction.
    std::shared_ptr<const LaplacianDirectSolver> coarsest_solver;
    /// Across-solve cycle totals (levels + coarsest), the only state a solve
    /// writes; Workspace destructors add to them under the lock.
    mutable Mutex stats_mu;
    mutable std::vector<LevelCycleStats> cycle_totals
        HICOND_GUARDED_BY(stats_mu);
  };

  template <std::size_t W>
  void cycle(int level, std::span<const double> r, std::span<double> z,
             Workspace& ws) const;
  template <std::size_t W>
  void coarsest_solve(std::span<const double> r, std::span<double> z,
                      Workspace& ws) const;

  std::shared_ptr<const State> state_;
};

}  // namespace hicond
