// Solver-service tests: the PR's three wire-level guarantees.
//
// 1. A cache-hit (warm) solve is bitwise identical to the cold-build solve
//    that populated the cache, and costs zero setup.
// 2. A k-RHS batched solve is bitwise identical, per column, to k
//    independent single-vector solves -- at every thread count in the
//    determinism matrix (the blocked kernels preserve each column's
//    arithmetic order exactly; docs/PARALLELISM.md).
// 3. Overload and deadline expiry produce well-formed JSON error
//    responses, never dropped requests or a dead server.
//
// <omp.h> is used only to force the ambient thread count, as in
// test_thread_determinism.cpp.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "hicond/dynamic/update.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/graph/io.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/serve/batch.hpp"
#include "hicond/serve/cache.hpp"
#include "hicond/serve/server.hpp"
#include "hicond/serve/snapshot.hpp"
#include "hicond/serve/wire.hpp"
#include "hicond/solver.hpp"
#include "hicond/util/rng.hpp"
#include "hicond/util/unique_fd.hpp"
#include "inprocess_client.hpp"

namespace hicond {
namespace {

using serve::HierarchyCache;
using serve::InProcessClient;
using serve::ServerOptions;

constexpr int kThreadMatrix[] = {1, 8};

template <typename Fn>
auto with_thread_count(int threads, Fn&& fn) {
  const int ambient = omp_get_max_threads();
  omp_set_num_threads(threads);
  struct Restore {
    int ambient;
    ~Restore() { omp_set_num_threads(ambient); }
  } restore{ambient};
  return fn();
}

std::vector<double> mean_free_rhs(vidx n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::remove_mean(b);
  return b;
}

Graph test_graph() {
  return gen::grid2d(12, 12, gen::WeightSpec::uniform(0.5, 2.0), 5);
}

// --- cache: cold vs warm bitwise identity ---------------------------------

TEST(ServeCache, WarmSolveBitwiseIdenticalToCold) {
  const Graph g = test_graph();
  const std::uint64_t fp = serve::graph_fingerprint(g);
  const LaplacianSolverOptions options;
  HierarchyCache cache(std::size_t{64} << 20);

  const auto cold = cache.get_or_build(fp, g, options);
  ASSERT_FALSE(cold.hit);
  EXPECT_GT(cold.build_seconds, 0.0);

  const auto warm = cache.get_or_build(fp, g, options);
  ASSERT_TRUE(warm.hit);
  EXPECT_EQ(warm.build_seconds, 0.0);
  // A hit returns the very same built hierarchy, so the "warm setup is at
  // most 5% of cold" serving criterion holds with margin (it is zero).
  EXPECT_EQ(warm.solver.get(), cold.solver.get());

  const std::vector<double> b = mean_free_rhs(g.num_vertices(), 42);
  std::vector<double> x_cold(b.size(), 0.0);
  std::vector<double> x_warm(b.size(), 0.0);
  const SolveStats s_cold = cold.solver->solve(b, x_cold);
  const SolveStats s_warm = warm.solver->solve(b, x_warm);
  EXPECT_TRUE(s_cold.converged);
  EXPECT_EQ(s_cold.iterations, s_warm.iterations);
  EXPECT_EQ(x_cold, x_warm);  // bitwise: vector<double> operator==
  EXPECT_EQ(serve::solution_fingerprint(x_cold),
            serve::solution_fingerprint(x_warm));

  const HierarchyCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ServeCache, DistinctOptionsAreDistinctEntries) {
  // Each variant changes one option away from the defaults, covering every
  // MultilevelOptions field; each must get a key and an entry of its own.
  const Graph g = test_graph();
  const std::uint64_t fp = serve::graph_fingerprint(g);
  HierarchyCache cache(std::size_t{64} << 20);
  LaplacianSolverOptions tighter;
  tighter.rel_tolerance = 1e-10;
  LaplacianSolverOptions chebyshev;
  chebyshev.multilevel.smoother = SmootherKind::chebyshev;
  LaplacianSolverOptions degree;
  degree.multilevel.chebyshev_degree = 2;
  const LaplacianSolverOptions variants[] = {{}, tighter, chebyshev, degree};
  for (std::size_t i = 0; i < std::size(variants); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      ASSERT_NE(serve::solver_options_key(variants[i]),
                serve::solver_options_key(variants[j]))
          << i << " vs " << j;
    }
    const auto built = cache.get_or_build(fp, g, variants[i]);
    EXPECT_FALSE(built.hit) << i;
  }
  EXPECT_EQ(cache.stats().entries, std::size(variants));
}

TEST(ServeCache, OptionsKeysArePinned) {
  // The keys' doubles print through obs::append_double; these strings are
  // the ones snprintf("%.17g") produced, so a formatter change that moved
  // a single byte would orphan every cached entry keyed the old way.
  EXPECT_EQ(serve::solver_options_key({}),
            "backend=fixed_degree;fd.max_cluster_size=4;fd.seed=1;"
            "fd.perturb=1;h.coarsest_size=256;h.max_levels=40;h.refine=0;"
            "r.gamma_floor=0.29999999999999999;r.max_rounds=10;"
            "ml.smoother=0;ml.chebyshev_degree=3;rel_tolerance=1e-08;"
            "max_iterations=10000;");
  LaplacianSolverOptions louvain;
  louvain.rel_tolerance = 1e-10;
  louvain.hierarchy.refinement.gamma_floor = 0.1;
  louvain.hierarchy.contraction.backend = "louvain";
  louvain.hierarchy.contraction.resolution = 1.0 / 3.0;
  EXPECT_EQ(serve::solver_options_key(louvain),
            "backend=louvain;lv.max_cluster_size=4;"
            "lv.resolution=0.33333333333333331;lv.rounds=8;"
            "h.coarsest_size=256;h.max_levels=40;h.refine=0;"
            "r.gamma_floor=0.10000000000000001;r.max_rounds=10;"
            "ml.smoother=0;ml.chebyshev_degree=3;rel_tolerance=1e-10;"
            "max_iterations=10000;");
  LaplacianSolverOptions lowdiam;
  lowdiam.hierarchy.contraction.backend = "lowdiam";
  lowdiam.hierarchy.contraction.beta = 0.35;
  lowdiam.rel_tolerance = 2.5e-7;
  lowdiam.max_iterations = 123;
  EXPECT_EQ(serve::solver_options_key(lowdiam),
            "backend=lowdiam;ld.seed=1;ld.beta=0.34999999999999998;"
            "h.coarsest_size=256;h.max_levels=40;h.refine=0;"
            "r.gamma_floor=0.29999999999999999;r.max_rounds=10;"
            "ml.smoother=0;ml.chebyshev_degree=3;"
            "rel_tolerance=2.4999999999999999e-07;max_iterations=123;");
}

TEST(ServeCache, SameFingerprintDifferentBackendsAreIsolatedEntries) {
  // Satellite regression for the backend registry: one graph, two
  // contraction backends. Their canonical options must differ, they must
  // occupy distinct cache entries, and a warm solve against each entry must
  // be bitwise identical to its own cold solve -- never the other's.
  const Graph g = test_graph();
  const std::uint64_t fp = serve::graph_fingerprint(g);
  HierarchyCache cache(std::size_t{64} << 20);
  LaplacianSolverOptions fixed;  // default backend: "fixed_degree"
  LaplacianSolverOptions lowdiam;
  lowdiam.hierarchy.contraction.backend = "lowdiam";
  ASSERT_NE(serve::solver_options_key(fixed),
            serve::solver_options_key(lowdiam));

  const std::vector<double> b = mean_free_rhs(g.num_vertices(), 21);
  const auto cold_fixed = cache.get_or_build(fp, g, fixed);
  const auto cold_low = cache.get_or_build(fp, g, lowdiam);
  ASSERT_FALSE(cold_fixed.hit);
  ASSERT_FALSE(cold_low.hit);  // same fingerprint, still a distinct entry
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_NE(cold_fixed.solver, cold_low.solver);

  std::vector<double> x_cold_fixed(b.size(), 0.0);
  std::vector<double> x_cold_low(b.size(), 0.0);
  (void)cold_fixed.solver->solve(b, x_cold_fixed);
  (void)cold_low.solver->solve(b, x_cold_low);

  const auto warm_fixed = cache.get_or_build(fp, g, fixed);
  const auto warm_low = cache.get_or_build(fp, g, lowdiam);
  ASSERT_TRUE(warm_fixed.hit);
  ASSERT_TRUE(warm_low.hit);
  EXPECT_EQ(warm_fixed.solver, cold_fixed.solver);
  EXPECT_EQ(warm_low.solver, cold_low.solver);
  std::vector<double> x_warm_fixed(b.size(), 0.0);
  std::vector<double> x_warm_low(b.size(), 0.0);
  (void)warm_fixed.solver->solve(b, x_warm_fixed);
  (void)warm_low.solver->solve(b, x_warm_low);
  EXPECT_EQ(x_warm_fixed, x_cold_fixed);
  EXPECT_EQ(x_warm_low, x_cold_low);
}

TEST(ServeCache, EvictsLeastRecentlyUsedUnderBudget) {
  const Graph g1 = gen::grid2d(10, 10, gen::WeightSpec::uniform(0.5, 2.0), 1);
  const Graph g2 = gen::grid2d(11, 11, gen::WeightSpec::uniform(0.5, 2.0), 2);
  const LaplacianSolverOptions options;
  // Budget below two hierarchies: the second build must evict the first.
  HierarchyCache cache(1);
  (void)cache.get_or_build(serve::graph_fingerprint(g1), g1, options);
  (void)cache.get_or_build(serve::graph_fingerprint(g2), g2, options);
  const HierarchyCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);  // most-recent entry always retained
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(cache.peek(serve::graph_fingerprint(g1), options), nullptr);
  EXPECT_NE(cache.peek(serve::graph_fingerprint(g2), options), nullptr);
}

TEST(ServeCache, PerEntryStatsTrackHitsAndRecency) {
  const Graph g1 = gen::grid2d(10, 10, gen::WeightSpec::uniform(0.5, 2.0), 1);
  const Graph g2 = gen::grid2d(11, 11, gen::WeightSpec::uniform(0.5, 2.0), 2);
  const std::uint64_t fp1 = serve::graph_fingerprint(g1);
  const std::uint64_t fp2 = serve::graph_fingerprint(g2);
  const LaplacianSolverOptions options;
  HierarchyCache cache(std::size_t{64} << 20);

  (void)cache.get_or_build(fp1, g1, options);  // tick 1: miss
  (void)cache.get_or_build(fp2, g2, options);  // tick 2: miss
  (void)cache.get_or_build(fp1, g1, options);  // tick 3: hit, fp1 -> MRU
  (void)cache.get_or_build(fp1, g1, options);  // tick 4: hit

  const HierarchyCache::Stats stats = cache.stats();
  ASSERT_EQ(stats.per_entry.size(), 2u);
  // per_entry is MRU-first, so the twice-hit fp1 leads.
  EXPECT_EQ(stats.per_entry[0].fingerprint, fp1);
  EXPECT_EQ(stats.per_entry[0].hits, 2);
  EXPECT_EQ(stats.per_entry[0].last_use, 4);
  EXPECT_GT(stats.per_entry[0].bytes, 0u);
  EXPECT_EQ(stats.per_entry[1].fingerprint, fp2);
  EXPECT_EQ(stats.per_entry[1].hits, 0);
  EXPECT_EQ(stats.per_entry[1].last_use, 2);
  // Ticks are deterministic logical time (one per lookup), never wall
  // clock, so two identical runs report identical stats documents.
  EXPECT_EQ(stats.ticks, 4);
  EXPECT_EQ(stats.per_entry[0].options_key, serve::solver_options_key(options));
}

// --- batched solves: bitwise equal to sequential, per thread count --------

// Batch sizes covering every lane width the dispatcher picks: 1 (W=1),
// 3 (2+1), 5 (4+1), 8 (W=8), 11 (8+2+1, a split tail) and 15 (8+4+2+1).
constexpr int kBatchSizes[] = {1, 3, 5, 8, 11, 15};

/// Solve `rhs` as one batch and column by column; every column must agree
/// bit for bit (solution, iterations, residual history). Returns the
/// batch's solution hashes for cross-thread comparison.
std::vector<std::uint64_t> expect_batch_matches_sequential(
    const LaplacianSolver& solver,
    const std::vector<std::vector<double>>& rhs) {
  const serve::BatchSolveResult batch = serve::batch_solve(solver, rhs);
  EXPECT_EQ(batch.x.size(), rhs.size());
  for (std::size_t j = 0; j < rhs.size() && j < batch.x.size(); ++j) {
    std::vector<double> x(rhs[j].size(), 0.0);
    const SolveStats seq = solver.solve(rhs[j], x);
    EXPECT_TRUE(batch.stats[j].converged) << "rhs " << j;
    EXPECT_EQ(batch.stats[j].iterations, seq.iterations) << "rhs " << j;
    EXPECT_EQ(batch.x[j], x) << "rhs " << j << " of " << rhs.size();
    EXPECT_EQ(batch.solution_hash[j], serve::solution_fingerprint(x))
        << "rhs " << j << " of " << rhs.size() << " not bitwise";
    EXPECT_EQ(batch.stats[j].residual_history, seq.residual_history)
        << "rhs " << j;
  }
  return batch.solution_hash;
}

std::vector<std::vector<double>> batch_rhs(vidx n, int k) {
  std::vector<std::vector<double>> rhs;
  rhs.reserve(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    rhs.push_back(mean_free_rhs(n, 100 + static_cast<std::uint64_t>(j)));
  }
  return rhs;
}

TEST(ServeBatch, BatchedMatchesSequentialBitwiseAcrossThreadCounts) {
  const Graph g = test_graph();
  std::vector<std::vector<std::uint64_t>> reference_hashes;
  for (const int threads : kThreadMatrix) {
    with_thread_count(threads, [&] {
      const LaplacianSolver solver(g);
      for (std::size_t s = 0; s < std::size(kBatchSizes); ++s) {
        const std::vector<std::uint64_t> hashes =
            expect_batch_matches_sequential(
                solver, batch_rhs(g.num_vertices(), kBatchSizes[s]));
        if (reference_hashes.size() <= s) {
          reference_hashes.push_back(hashes);
        } else {
          // Thread-count invariance on top of batch/sequential equality.
          EXPECT_EQ(hashes, reference_hashes[s])
              << "threads=" << threads << " k=" << kBatchSizes[s];
        }
      }
    });
  }
}

TEST(ServeBatch, ZeroColumnConvergesAtIterationZeroInsideBatch) {
  // The zero column stops before the first iteration while its lane keeps
  // riding through the block; its neighbours must not notice.
  const Graph g = test_graph();
  const LaplacianSolver solver(g);
  for (const int k : {2, 5, 8, 11}) {
    std::vector<std::vector<double>> rhs = batch_rhs(g.num_vertices(), k);
    rhs[1].assign(rhs[1].size(), 0.0);
    const serve::BatchSolveResult batch = serve::batch_solve(solver, rhs);
    EXPECT_TRUE(batch.stats[1].converged) << "k=" << k;
    EXPECT_EQ(batch.stats[1].iterations, 0) << "k=" << k;
    EXPECT_EQ(batch.x[1], rhs[1]) << "k=" << k;  // still the zero guess
    (void)expect_batch_matches_sequential(solver, rhs);
  }
}

TEST(ServeBatch, SmootherAndCycleVariantsMatchSequentialAcrossThreadCounts) {
  // 50x50 = 2500 vertices: the per-lane reductions span two blocks.
  const Graph g = gen::grid2d(50, 50, gen::WeightSpec::uniform(0.5, 2.0), 5);
  const LaplacianSolverOptions variants[] = {
      {.multilevel = {.smoother = SmootherKind::chebyshev}},
  };
  for (const LaplacianSolverOptions& options : variants) {
    std::vector<std::uint64_t> reference_hashes;
    for (const int threads : kThreadMatrix) {
      with_thread_count(threads, [&] {
        const LaplacianSolver solver(g, options);
        const std::vector<std::uint64_t> hashes =
            expect_batch_matches_sequential(solver,
                                            batch_rhs(g.num_vertices(), 15));
        if (reference_hashes.empty()) {
          reference_hashes = hashes;
        } else {
          EXPECT_EQ(hashes, reference_hashes) << "threads=" << threads;
        }
      });
    }
  }
}

TEST(ServeBatch, SingleColumnBatchMatchesPlainSolve) {
  const Graph g = test_graph();
  const LaplacianSolver solver(g);
  const std::vector<double> b = mean_free_rhs(g.num_vertices(), 9);
  std::vector<double> x(b.size(), 0.0);
  const SolveStats stats = solver.solve(b, x);
  const serve::BatchSolveResult batch = serve::batch_solve(solver, {b});
  EXPECT_EQ(batch.x[0], x);
  EXPECT_EQ(batch.stats[0].iterations, stats.iterations);
}

TEST(ServeBatch, RejectsMismatchedRhsLength) {
  const Graph g = test_graph();
  const LaplacianSolver solver(g);
  EXPECT_THROW((void)serve::batch_solve(solver, {{1.0, -1.0}}),
               invalid_argument_error);
}

// --- server protocol ------------------------------------------------------

std::string write_test_snapshot(const Graph& g, const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  serve::write_snapshot_file(path, g);
  return path;
}

TEST(ServeServer, ColdWarmSolveOverTheWire) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_wire.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));

  InProcessClient client;
  const auto loaded =
      client.call(R"({"id":1,"op":"load","path":")" + path + R"("})");
  ASSERT_TRUE(loaded.at("ok").boolean);
  EXPECT_EQ(loaded.at("graph").string, fp);

  const std::string solve_req =
      R"({"id":2,"op":"solve","graph":")" + fp + R"(","rhs_seed":42})";
  const auto cold = client.call(solve_req);
  ASSERT_TRUE(cold.at("ok").boolean);
  EXPECT_FALSE(cold.at("cache_hit").boolean);
  EXPECT_GT(cold.at("setup_seconds").number, 0.0);
  EXPECT_TRUE(cold.at("converged").boolean);

  const auto warm = client.call(solve_req);
  ASSERT_TRUE(warm.at("ok").boolean);
  EXPECT_TRUE(warm.at("cache_hit").boolean);
  EXPECT_EQ(warm.at("setup_seconds").number, 0.0);
  // The serving criterion (warm setup <= 5% of cold) and the bitwise
  // identity, both asserted on the actual wire responses.
  EXPECT_LE(warm.at("setup_seconds").number,
            0.05 * cold.at("setup_seconds").number);
  EXPECT_EQ(warm.at("solution_fnv").string, cold.at("solution_fnv").string);
  EXPECT_EQ(warm.at("iterations").number, cold.at("iterations").number);
}

TEST(ServeServer, BatchColumnsMatchSingleSolvesOverTheWire) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_batch.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));

  InProcessClient client;
  ASSERT_TRUE(client.call(R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);
  const auto batch = client.call(
      R"({"op":"batch_solve","graph":")" + fp +
      R"(","rhs_random":{"count":7,"seed":7}})");
  ASSERT_TRUE(batch.at("ok").boolean);
  const auto& hashes = batch.at("solution_fnv").array;
  ASSERT_EQ(hashes.size(), 7u);  // lane widths 4+2+1
  // rhs_random seeds are seed+j; each single solve must land on the same
  // bits as the corresponding batched column.
  for (std::size_t j = 0; j < hashes.size(); ++j) {
    const auto single = client.call(
        R"({"op":"solve","graph":")" + fp + R"(","rhs_seed":)" +
        std::to_string(7 + j) + "}");
    ASSERT_TRUE(single.at("ok").boolean);
    EXPECT_EQ(single.at("solution_fnv").string, hashes[j].string)
        << "column " << j;
  }
}

TEST(ServeServer, BackendSelectionOverTheWire) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_backend.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  InProcessClient client;
  ASSERT_TRUE(client.call(R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);

  const auto bad = client.call(R"({"id":9,"op":"solve","graph":")" + fp +
                               R"(","rhs_seed":1,"backend":"nope"})");
  EXPECT_FALSE(bad.at("ok").boolean);
  EXPECT_EQ(bad.at("error").string, "unknown_backend");

  for (const std::string backend : {"fixed_degree", "louvain", "lowdiam"}) {
    const std::string req = R"({"op":"solve","graph":")" + fp +
                            R"(","rhs_seed":5,"backend":")" + backend +
                            R"("})";
    const auto cold = client.call(req);
    ASSERT_TRUE(cold.at("ok").boolean) << backend;
    EXPECT_FALSE(cold.at("cache_hit").boolean) << backend;  // own entry
    EXPECT_EQ(cold.at("backend").string, backend);
    EXPECT_TRUE(cold.at("converged").boolean) << backend;
    const auto warm = client.call(req);
    ASSERT_TRUE(warm.at("ok").boolean) << backend;
    EXPECT_TRUE(warm.at("cache_hit").boolean) << backend;
    EXPECT_EQ(warm.at("solution_fnv").string, cold.at("solution_fnv").string)
        << backend;
  }

  // backend_options thread through to the canonical key: a reseeded
  // low-diameter request is its own cold entry.
  const auto reseeded = client.call(
      R"({"op":"solve","graph":")" + fp +
      R"(","rhs_seed":5,"backend":"lowdiam","backend_options":{"seed":9}})");
  ASSERT_TRUE(reseeded.at("ok").boolean);
  EXPECT_FALSE(reseeded.at("cache_hit").boolean);
}

TEST(ServeServer, HostileRandomRhsCountIsRejectedBeforeAllocating) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_count_cap.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  InProcessClient client;
  ASSERT_TRUE(client.call(R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);
  // A wire-supplied count is untrusted: 2e9 columns would reserve multi-GB
  // before any solve runs. The server must reject it as bad_request (the
  // untrusted-size cap), not attempt the allocation.
  const auto huge = client.call(
      R"({"id":9,"op":"batch_solve","graph":")" + fp +
      R"(","rhs_random":{"count":2000000000,"seed":1}})");
  EXPECT_FALSE(huge.at("ok").boolean);
  EXPECT_EQ(huge.at("error").string, "bad_request");
  EXPECT_NE(huge.at("message").string.find("rhs_random.count"),
            std::string::npos);

  // Just past the cap is rejected too -- the boundary is exact...
  const auto past_cap = client.call(
      R"({"id":10,"op":"batch_solve","graph":")" + fp +
      R"(","rhs_random":{"count":4097,"seed":1}})");
  EXPECT_FALSE(past_cap.at("ok").boolean);
  EXPECT_EQ(past_cap.at("error").string, "bad_request");

  // ...while ordinary small batches still work.
  const auto ok = client.call(
      R"({"id":11,"op":"batch_solve","graph":")" + fp +
      R"(","rhs_random":{"count":2,"seed":1}})");
  ASSERT_TRUE(ok.at("ok").boolean);
  EXPECT_EQ(ok.at("solution_fnv").array.size(), 2u);

  // Zero and negative counts keep their existing lower-bound rejection.
  const auto zero = client.call(
      R"({"id":12,"op":"batch_solve","graph":")" + fp +
      R"(","rhs_random":{"count":0,"seed":1}})");
  EXPECT_FALSE(zero.at("ok").boolean);
  EXPECT_EQ(zero.at("error").string, "bad_request");
}

TEST(ServeServer, DeadlineExceededIsWellFormedError) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_deadline.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  InProcessClient client;
  ASSERT_TRUE(client.call(R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);
  // deadline_ms 0 expires as soon as any time elapses after admission:
  // deterministic deadline_exceeded without sleeping in the test.
  const auto response = client.call(
      R"({"id":77,"op":"solve","graph":")" + fp +
      R"(","rhs_seed":1,"deadline_ms":0})");
  EXPECT_FALSE(response.at("ok").boolean);
  EXPECT_EQ(response.at("error").string, "deadline_exceeded");
  EXPECT_EQ(static_cast<int>(response.at("id").number), 77);
  EXPECT_FALSE(response.at("message").string.empty());
}

TEST(ServeServer, QueueFullShedsWithWellFormedError) {
  ServerOptions options;
  options.queue_capacity = 2;
  InProcessClient client(options);
  EXPECT_FALSE(client.submit_only(R"({"id":1,"op":"stats"})").has_value());
  EXPECT_FALSE(client.submit_only(R"({"id":2,"op":"stats"})").has_value());
  const auto shed = client.submit_only(R"({"id":3,"op":"stats"})");
  ASSERT_TRUE(shed.has_value());
  const auto parsed = obs::parse_json(*shed);
  EXPECT_FALSE(parsed.at("ok").boolean);
  EXPECT_EQ(parsed.at("error").string, "queue_full");
  EXPECT_EQ(static_cast<int>(parsed.at("id").number), 3);
  // The queued requests still complete in order after the shed.
  const auto responses = client.drain();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(obs::parse_json(responses[0]).at("ok").boolean);
  EXPECT_TRUE(obs::parse_json(responses[1]).at("ok").boolean);
}

TEST(ServeServer, MalformedAndUnknownRequestsAreErrors) {
  InProcessClient client;
  const auto bad = client.call("this is not json");
  EXPECT_FALSE(bad.at("ok").boolean);
  EXPECT_EQ(bad.at("error").string, "parse_error");

  const auto unknown = client.call(R"({"id":4,"op":"florble"})");
  EXPECT_FALSE(unknown.at("ok").boolean);
  EXPECT_EQ(unknown.at("error").string, "unknown_op");

  const auto missing = client.call(
      R"({"op":"solve","graph":"0000000000000000","rhs_seed":1})");
  EXPECT_FALSE(missing.at("ok").boolean);
  EXPECT_EQ(missing.at("error").string, "not_found");
}

TEST(ServeServer, ShutdownDrainsAndStops) {
  InProcessClient client;
  EXPECT_FALSE(client.core().shutting_down());
  const auto response = client.call(R"({"op":"shutdown"})");
  EXPECT_TRUE(response.at("ok").boolean);
  EXPECT_TRUE(client.core().shutting_down());
}

// --- the update op --------------------------------------------------------

TEST(ServeUpdate, UpdateOverTheWireServesBothFingerprints) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_update.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));

  InProcessClient client;
  ASSERT_TRUE(client.call(R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);
  // Warm the old fingerprint so the update can repair in place.
  ASSERT_TRUE(
      client.call(R"({"op":"solve","graph":")" + fp + R"(","rhs_seed":1})")
          .at("ok")
          .boolean);

  const std::string update_req =
      R"({"id":5,"op":"update","graph":")" + fp +
      R"(","updates":[{"kind":"reweight","u":0,"v":1,"weight":9.5}]})";
  const auto up = client.call(update_req);
  ASSERT_TRUE(up.at("ok").boolean) << up.at("message").string;
  EXPECT_FALSE(up.at("unchanged").boolean);
  const std::string new_fp = up.at("new_graph").string;
  EXPECT_NE(new_fp, fp);
  EXPECT_EQ(static_cast<vidx>(up.at("n").number), g.num_vertices());
  // The mutated hierarchy was installed under the new fingerprint with the
  // same solver options, so a follow-up solve is a cache hit...
  const auto solve_new = client.call(
      R"({"op":"solve","graph":")" + new_fp + R"(","rhs_seed":1})");
  ASSERT_TRUE(solve_new.at("ok").boolean);
  EXPECT_TRUE(solve_new.at("cache_hit").boolean);
  EXPECT_TRUE(solve_new.at("converged").boolean);
  // ...and the pre-update graph remains served.
  const auto solve_old = client.call(
      R"({"op":"solve","graph":")" + fp + R"(","rhs_seed":1})");
  ASSERT_TRUE(solve_old.at("ok").boolean);
  EXPECT_TRUE(solve_old.at("cache_hit").boolean);

  // A retried (duplicate) update lands exactly once: same new fingerprint,
  // no second build.
  const auto retry = client.call(update_req);
  ASSERT_TRUE(retry.at("ok").boolean);
  EXPECT_EQ(retry.at("new_graph").string, new_fp);
  EXPECT_TRUE(retry.at("already_cached").boolean);
}

TEST(ServeUpdate, EmptyAndNetNoOpBatchesAreUnchanged) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_update_noop.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  InProcessClient client;
  ASSERT_TRUE(client.call(R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);

  const auto empty = client.call(
      R"({"op":"update","graph":")" + fp + R"(","updates":[]})");
  ASSERT_TRUE(empty.at("ok").boolean);
  EXPECT_TRUE(empty.at("unchanged").boolean);
  EXPECT_EQ(empty.at("new_graph").string, fp);

  // Insert + delete of the same absent edge cancels in canonical form, so
  // the fingerprint round-trips and no new state is registered.
  const auto cancel = client.call(
      R"({"op":"update","graph":")" + fp +
      R"(","updates":[{"kind":"insert","u":0,"v":25,"weight":2.0},)"
      R"({"kind":"delete","u":0,"v":25}]})");
  ASSERT_TRUE(cancel.at("ok").boolean);
  EXPECT_TRUE(cancel.at("unchanged").boolean);
  EXPECT_EQ(cancel.at("new_graph").string, fp);
}

TEST(ServeUpdate, RebuildModeIsBitwiseIdenticalToColdLoadOfMutatedGraph) {
  const Graph g = test_graph();
  const std::string path = write_test_snapshot(g, "serve_update_base.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));

  // Ground truth: mutate the graph in-process and serve it cold.
  const std::vector<dynamic::EdgeUpdate> updates{
      {dynamic::UpdateKind::insert, 0, 25, 1.5},
      {dynamic::UpdateKind::reweight, 0, 1, 3.0},
  };
  const Graph mutated = dynamic::apply_updates(g, updates);
  const std::string mutated_path =
      write_test_snapshot(mutated, "serve_update_mutated.hsnap");
  const std::string mutated_fp =
      serve::fingerprint_hex(serve::graph_fingerprint(mutated));

  InProcessClient cold;
  ASSERT_TRUE(
      cold.call(R"({"op":"load","path":")" + mutated_path + R"("})")
          .at("ok")
          .boolean);
  const auto truth = cold.call(
      R"({"op":"solve","graph":")" + mutated_fp + R"(","rhs_seed":42})");
  ASSERT_TRUE(truth.at("ok").boolean);

  // Candidate: the same graph reached through the update op in rebuild
  // mode. A rebuild constructs the hierarchy from scratch exactly like a
  // cold load, so the solution bits must match the truth server's.
  InProcessClient via_update;
  ASSERT_TRUE(via_update.call(R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);
  const auto up = via_update.call(
      R"({"op":"update","graph":")" + fp + R"(","mode":"rebuild",)"
      R"("updates":[{"kind":"insert","u":0,"v":25,"weight":1.5},)"
      R"({"kind":"reweight","u":0,"v":1,"weight":3.0}]})");
  ASSERT_TRUE(up.at("ok").boolean) << up.at("message").string;
  EXPECT_FALSE(up.at("repaired").boolean);
  ASSERT_EQ(up.at("new_graph").string, mutated_fp);
  const auto candidate = via_update.call(
      R"({"op":"solve","graph":")" + mutated_fp + R"(","rhs_seed":42})");
  ASSERT_TRUE(candidate.at("ok").boolean);
  EXPECT_EQ(candidate.at("solution_fnv").string,
            truth.at("solution_fnv").string);
  EXPECT_EQ(candidate.at("iterations").number, truth.at("iterations").number);
}

TEST(ServeUpdate, ErrorPathsLeaveServerStateUntouched) {
  // A disconnecting update must be rejected atomically: use a path graph,
  // where every edge is a bridge.
  const Graph g = gen::path(6, gen::WeightSpec::uniform(1.0, 2.0), 3);
  const std::string path = write_test_snapshot(g, "serve_update_err.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  InProcessClient client;
  ASSERT_TRUE(client.call(R"({"op":"load","path":")" + path + R"("})")
                  .at("ok")
                  .boolean);

  const auto unloaded = client.call(
      R"({"op":"update","graph":"00000000deadbeef","updates":[]})");
  EXPECT_FALSE(unloaded.at("ok").boolean);
  EXPECT_EQ(unloaded.at("error").string, "not_found");

  const auto malformed = client.call(
      R"({"op":"update","graph":")" + fp +
      R"(","updates":[{"kind":"teleport","u":0,"v":1}]})");
  EXPECT_FALSE(malformed.at("ok").boolean);
  EXPECT_EQ(malformed.at("error").string, "bad_request");

  const auto disconnect = client.call(
      R"({"op":"update","graph":")" + fp +
      R"(","updates":[{"kind":"delete","u":2,"v":3}]})");
  EXPECT_FALSE(disconnect.at("ok").boolean);
  EXPECT_EQ(disconnect.at("error").string, "disconnected");

  // After all three rejections the original graph still solves.
  const auto solve = client.call(
      R"({"op":"solve","graph":")" + fp + R"(","rhs_seed":2})");
  ASSERT_TRUE(solve.at("ok").boolean);
  EXPECT_TRUE(solve.at("converged").boolean);
}

// --- the serve loop and its line framer -----------------------------------

TEST(ServeWire, LineBufferReturnsLongLinesFedInSmallChunks) {
  // A 1 MB line between short ones, fed 4 KB at a time: every line comes
  // back whole, and the unterminated tail is what take_rest() returns.
  const std::string big(std::size_t{1} << 20, 'x');
  const std::vector<std::string> lines = {"first", big, "", "short",
                                          big + "y", "last"};
  std::string stream;
  for (const std::string& line : lines) {
    stream += line;
    stream += '\n';
  }
  stream += "tail";
  serve::wire::LineBuffer buffer;
  std::vector<std::string> got;
  std::string line;
  constexpr std::size_t kChunk = 4096;
  for (std::size_t at = 0; at < stream.size(); at += kChunk) {
    buffer.append(stream.data() + at, std::min(kChunk, stream.size() - at));
    while (buffer.next_line(line)) {
      got.push_back(line);
    }
  }
  ASSERT_EQ(got.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(got[i], lines[i]) << i;
  }
  EXPECT_EQ(buffer.buffered(), 4u);
  ASSERT_TRUE(buffer.take_rest(line));
  EXPECT_EQ(line, "tail");
  EXPECT_EQ(buffer.buffered(), 0u);
  EXPECT_FALSE(buffer.take_rest(line));
}

/// `response` with the values of its timing fields (wall-clock, so never
/// reproducible) replaced by 0.
std::string without_timings(const std::string& response) {
  std::string out;
  std::size_t copied = 0;
  for (const std::string key : {"\"setup_seconds\":", "\"solve_seconds\":"}) {
    const std::size_t at = response.find(key, copied);
    if (at == std::string::npos) {
      continue;
    }
    const std::size_t begin = at + key.size();
    out.append(response, copied, begin - copied);
    out += '0';
    copied = response.find_first_of(",}", begin);
  }
  out.append(response, copied);
  return out;
}

TEST(ServeLoop, StdioLoopAnswersExactlyAsTheInProcessCore) {
  // A 40k-entry explicit b with return_x, through serve_connection on file
  // descriptors as hicond_serve runs it on stdio, against the same lines
  // through ServerCore::submit/step. The last line has no '\n' and must
  // still be answered at EOF; blank lines are skipped.
  const Graph g = gen::grid2d(200, 200, gen::WeightSpec::uniform(0.5, 2.0), 3);
  const std::string path = write_test_snapshot(g, "serve_loop.hsnap");
  const std::string fp = serve::fingerprint_hex(serve::graph_fingerprint(g));
  obs::JsonWriter solve;
  solve.begin_object();
  solve.kv("id", 2);
  solve.kv("op", "solve");
  solve.kv("graph", fp);
  solve.kv("return_x", true);
  solve.key("b");
  solve.begin_array();
  for (const double bi : mean_free_rhs(g.num_vertices(), 17)) {
    solve.value(bi);
  }
  solve.end_array();
  solve.end_object();
  const std::vector<std::string> requests = {
      R"({"id":1,"op":"load","path":")" + path + R"("})", solve.str(),
      R"({"id":3,"op":"nope"})", R"({"id":4,"op":"stats"})"};

  std::vector<std::string> expected;
  {
    serve::ServerCore core;
    for (const std::string& request : requests) {
      if (auto immediate = core.submit(request)) {
        expected.push_back(*immediate);
      }
      while (auto response = core.step()) {
        expected.push_back(*response);
      }
    }
  }

  const std::string in_path = testing::TempDir() + "/serve_loop.in";
  const std::string out_path = testing::TempDir() + "/serve_loop.out";
  {
    std::ofstream in(in_path, std::ios::binary);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      in << requests[i] << (i + 1 < requests.size() ? "\n\n" : "");
    }
  }
  {
    serve::ServerCore core;
    const unique_fd in_fd(::open(in_path.c_str(), O_RDONLY | O_CLOEXEC));
    const unique_fd out_fd(::open(out_path.c_str(),
                                  O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                                  0600));
    ASSERT_TRUE(in_fd && out_fd);
    serve::serve_connection(core, in_fd.get(), out_fd.get());
  }
  std::ifstream out(out_path, std::ios::binary);
  std::vector<std::string> got;
  for (std::string line; std::getline(out, line);) {
    got.push_back(line);
  }
  ASSERT_EQ(got.size(), expected.size());
  ASSERT_EQ(got.size(), requests.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(without_timings(got[i]), without_timings(expected[i])) << i;
  }
  const obs::JsonValue solved = obs::parse_json(got[1]);
  ASSERT_TRUE(solved.at("ok").boolean);
  EXPECT_EQ(solved.at("x").array.size(), 40000u);
}

// --- fingerprints ---------------------------------------------------------

TEST(ServeFingerprint, HexRoundTripAndSensitivity) {
  const Graph g = test_graph();
  const std::uint64_t fp = serve::graph_fingerprint(g);
  const std::string hex = serve::fingerprint_hex(fp);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(serve::parse_fingerprint(hex), fp);
  EXPECT_THROW((void)serve::parse_fingerprint("xyz"), invalid_argument_error);

  // Any change to the CSR content must move the fingerprint.
  const Graph other = gen::grid2d(12, 12, gen::WeightSpec::uniform(0.5, 2.0),
                                  6);  // different weight seed
  EXPECT_NE(serve::graph_fingerprint(other), fp);
}

}  // namespace
}  // namespace hicond
