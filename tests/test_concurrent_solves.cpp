// Concurrent solves against one shared LaplacianSolver. The serving cache
// hands a built solver to every request as a shared_ptr<const>, so a solve
// may write nothing but its own Workspace: each thread's answers must be
// bitwise equal to the sequential ones, and the cycle totals must count
// every solve exactly once. The tsan CI legs run this to prove the solve
// path race-free.
#include <gtest/gtest.h>
#include <omp.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "hicond/graph/generators.hpp"
#include "hicond/solver.hpp"
#include "hicond/util/rng.hpp"

namespace hicond {
namespace {

constexpr int kThreads = 4;
constexpr int kBatch = 5;

// What one thread's share of the work returns: a single solve and a
// k = kBatch batch, with their iteration counts.
struct Answers {
  std::vector<double> x;
  std::vector<double> x_batch;
  std::vector<int> iterations;

  bool operator==(const Answers&) const = default;
};

std::vector<double> random_rhs(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(size);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

Answers solve_share(const LaplacianSolver& solver, int share) {
  const auto n = static_cast<std::size_t>(solver.graph().num_vertices());
  const std::vector<double> b = random_rhs(n, 100 + share);
  const std::vector<double> b_batch =
      random_rhs(n * kBatch, 200 + share);
  Answers a;
  a.x.assign(n, 0.0);
  a.iterations.push_back(solver.solve(b, a.x).iterations);
  a.x_batch.assign(b_batch.size(), 0.0);
  for (const SolveStats& s : solver.solve_batch(b_batch, a.x_batch, kBatch)) {
    a.iterations.push_back(s.iterations);
  }
  return a;
}

std::vector<std::int64_t> cycle_calls(const LaplacianSolver& solver) {
  std::vector<std::int64_t> calls;
  for (const LevelCycleStats& s : solver.multilevel().cycle_stats()) {
    calls.push_back(s.calls);
  }
  return calls;
}

TEST(ConcurrentSolves, SharedSolverIsBitwiseStableAndRaceFree) {
  const Graph g = gen::grid2d(50, 50, gen::WeightSpec::uniform(1.0, 2.0), 21);
  for (const SmootherKind smoother :
       {SmootherKind::jacobi, SmootherKind::chebyshev}) {
    SCOPED_TRACE(smoother == SmootherKind::jacobi ? "jacobi" : "chebyshev");
    const auto solver = std::make_shared<const LaplacianSolver>(
        g, LaplacianSolverOptions{.hierarchy = {.coarsest_size = 64},
                                  .multilevel = {.smoother = smoother}});

    // Sequential reference answers, and the V-cycle calls each share adds.
    std::vector<Answers> expected;
    std::vector<std::int64_t> share_calls(cycle_calls(*solver).size(), 0);
    for (int t = 0; t < kThreads; ++t) {
      const std::vector<std::int64_t> before = cycle_calls(*solver);
      expected.push_back(solve_share(*solver, t));
      const std::vector<std::int64_t> after = cycle_calls(*solver);
      for (std::size_t l = 0; l < after.size(); ++l) {
        share_calls[l] += after[l] - before[l];
      }
    }
    ASSERT_GT(share_calls.front(), 0);

    // Every thread solves its own share twice, all against the one solver.
    const std::vector<std::int64_t> before = cycle_calls(*solver);
    std::vector<std::vector<Answers>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&solver, &got, t] {
        omp_set_num_threads(1);
        for (int round = 0; round < 2; ++round) {
          got[static_cast<std::size_t>(t)].push_back(solve_share(*solver, t));
        }
      });
    }
    for (std::thread& th : threads) th.join();

    for (int t = 0; t < kThreads; ++t) {
      for (const Answers& a : got[static_cast<std::size_t>(t)]) {
        EXPECT_TRUE(a == expected[static_cast<std::size_t>(t)])
            << "thread " << t << " answers differ from the sequential ones";
      }
    }
    const std::vector<std::int64_t> after = cycle_calls(*solver);
    for (std::size_t l = 0; l < after.size(); ++l) {
      EXPECT_EQ(after[l] - before[l], 2 * share_calls[l]) << "level " << l;
    }
  }
}

}  // namespace
}  // namespace hicond
