// hicond_bench -- unified benchmark runner with JSON regression baselines.
//
//   hicond_bench --suite smoke [--repeats N] [--out FILE]
//       run a named suite and write BENCH_<suite>.json (schema:
//       bench/baselines/schema.json, validated in CI by
//       tools/validate_bench_json.py)
//   hicond_bench --list
//       list suites and their cases
//   hicond_bench [--input FILE | --suite S] --compare BASELINE
//                [--threshold 1.10]
//       compare a result file (or a fresh run) against a baseline; exits
//       nonzero when any case got slower than threshold * baseline or a
//       baseline case is missing.
//
// Timings are best-of-k plus p50/p90 percentiles over the repeat samples;
// every case also records key quality metrics (cluster counts, iterations,
// operator complexity) so baselines catch algorithmic regressions, not just
// slow machines.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <omp.h>

#include "hicond/dynamic/update.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/json.hpp"
#include "hicond/obs/metrics.hpp"
#include "hicond/partition/backends/backend.hpp"
#include "hicond/partition/fixed_degree.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/precond/steiner.hpp"
#include "hicond/serve/batch.hpp"
#include "hicond/serve/cache.hpp"
#include "hicond/serve/server.hpp"
#include "hicond/serve/snapshot.hpp"
#include "hicond/solver.hpp"
#include "hicond/tree/tree_decomposition.hpp"
#include "hicond/util/float_eq.hpp"
#include "hicond/util/parallel.hpp"
#include "hicond/util/rng.hpp"
#include "hicond/util/stats.hpp"
#include "hicond/util/timer.hpp"
#include "hicond/util/unique_fd.hpp"

namespace {

using namespace hicond;

// Schema v2: every case records the OpenMP thread count it ran with, and
// suites carry explicit thread-scaling variants (name suffix "/tN").
constexpr int kSchemaVersion = 2;

struct CaseResult {
  std::string name;
  int repeats = 0;
  int threads = 1;  ///< OpenMP threads the case ran with
  double best_seconds = 0.0;
  double p50_seconds = 0.0;
  double p90_seconds = 0.0;
  std::vector<std::pair<std::string, double>> metrics;
};

struct BenchCase {
  std::string name;
  std::function<CaseResult(int repeats)> run;
  int threads = 0;  ///< force this OpenMP thread count; 0 = ambient
};

/// Thread-scaling variant of a case: runs with exactly `t` OpenMP threads
/// under the name "<base>/t<t>". The parallel paths are deterministic at any
/// fixed thread count, so the quality metrics must match across variants.
BenchCase with_threads(BenchCase c, int t) {
  c.name += "/t" + std::to_string(t);
  c.threads = t;
  auto base_run = std::move(c.run);
  const std::string name = c.name;
  c.run = [base_run = std::move(base_run), name](int repeats) {
    CaseResult r = base_run(repeats);
    r.name = name;
    return r;
  };
  return c;
}

/// Time `op` `repeats` times; `setup` runs once outside the timed region.
template <typename Op>
CaseResult timed_case(const std::string& name, int repeats, Op&& op) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  CaseResult result;
  result.name = name;
  result.repeats = repeats;
  for (int i = 0; i < repeats; ++i) {
    Timer t;
    op(result, i == 0);
    samples.push_back(t.seconds());
  }
  result.best_seconds = *std::min_element(samples.begin(), samples.end());
  result.p50_seconds = percentile(samples, 50.0);
  result.p90_seconds = percentile(samples, 90.0);
  return result;
}

// ---------------------------------------------------------------------------
// Cases. `scale` = 1 for smoke, larger for the full suite.
// ---------------------------------------------------------------------------

BenchCase case_laplacian_apply(vidx side) {
  const std::string name = "laplacian_apply/grid3d_" + std::to_string(side);
  return {name, [name, side](int repeats) {
    const Graph g =
        gen::grid3d(side, side, side, gen::WeightSpec::uniform(1.0, 2.0), 3);
    const auto n = static_cast<std::size_t>(g.num_vertices());
    std::vector<double> x(n);
    std::vector<double> y(n);
    Rng rng(1);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    // One SpMV is microseconds; time a fixed inner batch per sample.
    const int inner = 50;
    auto r = timed_case(name, repeats, [&](CaseResult&, bool) {
      for (int k = 0; k < inner; ++k) g.laplacian_apply(x, y);
    });
    r.best_seconds /= inner;
    r.p50_seconds /= inner;
    r.p90_seconds /= inner;
    r.metrics = {{"vertices", static_cast<double>(g.num_vertices())},
                 {"edges", static_cast<double>(g.num_edges())}};
    return r;
  }};
}

BenchCase case_fixed_degree(vidx side) {
  const std::string name = "fixed_degree/grid3d_" + std::to_string(side);
  return {name, [name, side](int repeats) {
    const Graph g =
        gen::grid3d(side, side, side, gen::WeightSpec::uniform(1.0, 2.0), 3);
    return timed_case(name, repeats, [&](CaseResult& out, bool first) {
      const auto fd = fixed_degree_decomposition(g, {.max_cluster_size = 4});
      if (first) {
        out.metrics = {
            {"vertices", static_cast<double>(g.num_vertices())},
            {"clusters", static_cast<double>(fd.decomposition.num_clusters)},
            {"reduction", fd.decomposition.reduction_factor()},
            {"cut_fraction", cut_weight_fraction(g, fd.decomposition)}};
      }
    });
  }};
}

/// One registered partitioner backend through the production entry point
/// (checked_decompose = decompose + validation boundary) on a 2D grid of
/// `side`^2 vertices. The three backends share one case shape so the score
/// table is directly comparable: same graph, same timer, same metrics.
BenchCase case_decompose_backend(const std::string& backend, vidx side) {
  const std::string name =
      "decompose_" + backend + "/grid2d_" + std::to_string(side);
  return {name, [name, backend, side](int repeats) {
    const Graph g =
        gen::grid2d(side, side, gen::WeightSpec::uniform(1.0, 2.0), 7);
    partition::BackendOptions bo;
    bo.backend = backend;
    return timed_case(name, repeats, [&](CaseResult& out, bool first) {
      const Decomposition d = partition::checked_decompose(g, bo);
      if (first) {
        out.metrics = {
            {"vertices", static_cast<double>(g.num_vertices())},
            {"clusters", static_cast<double>(d.num_clusters)},
            {"reduction", d.reduction_factor()},
            {"cut_fraction", cut_weight_fraction(g, d)}};
      }
    });
  }};
}

BenchCase case_tree_decomposition(vidx n) {
  const std::string name = "tree_decomposition/tree_" + std::to_string(n);
  return {name, [name, n](int repeats) {
    const Graph t =
        gen::random_tree(n, gen::WeightSpec::uniform(1.0, 4.0), 5);
    return timed_case(name, repeats, [&](CaseResult& out, bool first) {
      const Decomposition d = tree_decomposition(t);
      if (first) {
        out.metrics = {{"vertices", static_cast<double>(n)},
                       {"clusters", static_cast<double>(d.num_clusters)},
                       {"reduction", d.reduction_factor()}};
      }
    });
  }};
}

BenchCase case_hierarchy(vidx side) {
  const std::string name = "hierarchy/grid2d_" + std::to_string(side);
  return {name, [name, side](int repeats) {
    const Graph g =
        gen::grid2d(side, side, gen::WeightSpec::uniform(1.0, 2.0), 7);
    return timed_case(name, repeats, [&](CaseResult& out, bool first) {
      const LaminarHierarchy h = build_hierarchy(g, {.coarsest_size = 64});
      if (first) {
        double total = static_cast<double>(h.coarsest.num_vertices());
        for (const auto& lv : h.levels) {
          total += static_cast<double>(lv.graph.num_vertices());
        }
        out.metrics = {
            {"vertices", static_cast<double>(g.num_vertices())},
            {"levels", static_cast<double>(h.num_levels())},
            {"coarsest_vertices",
             static_cast<double>(h.coarsest.num_vertices())},
            {"operator_complexity",
             total / static_cast<double>(g.num_vertices())}};
      }
    });
  }};
}

BenchCase case_steiner_apply(vidx side) {
  const std::string name = "steiner_apply/grid3d_" + std::to_string(side);
  return {name, [name, side](int repeats) {
    const Graph g =
        gen::grid3d(side, side, side, gen::WeightSpec::uniform(1.0, 2.0), 3);
    const auto fd = fixed_degree_decomposition(g, {.max_cluster_size = 4});
    const SteinerPreconditioner sp =
        SteinerPreconditioner::build(g, fd.decomposition);
    const auto n = static_cast<std::size_t>(g.num_vertices());
    std::vector<double> r(n);
    Rng rng(5);
    for (auto& v : r) v = rng.uniform(-1.0, 1.0);
    la::remove_mean(r);
    std::vector<double> z(n);
    const int inner = 10;
    auto result = timed_case(name, repeats, [&](CaseResult&, bool) {
      for (int k = 0; k < inner; ++k) sp.apply(r, z);
    });
    result.best_seconds /= inner;
    result.p50_seconds /= inner;
    result.p90_seconds /= inner;
    result.metrics = {
        {"vertices", static_cast<double>(g.num_vertices())},
        {"quotient_vertices", static_cast<double>(sp.num_steiner_vertices())}};
    return result;
  }};
}

BenchCase case_solve_multilevel(vidx side) {
  const std::string name = "solve_multilevel/grid2d_" + std::to_string(side);
  return {name, [name, side](int repeats) {
    const Graph g =
        gen::grid2d(side, side, gen::WeightSpec::uniform(1.0, 2.0), 7);
    const auto n = static_cast<std::size_t>(g.num_vertices());
    std::vector<double> b(n);
    Rng rng(11);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    la::remove_mean(b);
    return timed_case(name, repeats, [&](CaseResult& out, bool first) {
      const LaplacianSolver solver(g, {.hierarchy = {.coarsest_size = 64}});
      std::vector<double> x(n, 0.0);
      const SolveStats stats = solver.solve(b, x);
      if (first) {
        out.metrics = {
            {"vertices", static_cast<double>(g.num_vertices())},
            {"iterations", static_cast<double>(stats.iterations)},
            {"converged", stats.converged ? 1.0 : 0.0},
            {"final_relative_residual", stats.final_relative_residual},
            {"operator_complexity", solver.operator_complexity()},
            {"setup_seconds", solver.setup_seconds()}};
      }
    });
  }};
}

std::vector<std::vector<double>> serve_bench_rhs(vidx n, int k) {
  std::vector<std::vector<double>> rhs;
  rhs.reserve(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    Rng rng(1000 + static_cast<std::uint64_t>(j));
    std::vector<double> b(static_cast<std::size_t>(n));
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    la::remove_mean(b);
    rhs.push_back(std::move(b));
  }
  return rhs;
}

/// The serve cases' grid written as a snapshot into a private temp
/// directory, so a server (in-process ServerCore or a router deployment)
/// can `load` it as a client would.
class ServeSnapshot {
 public:
  explicit ServeSnapshot(const Graph& g)
      : fingerprint_(serve::fingerprint_hex(serve::graph_fingerprint(g))) {
    char tmpl[] = "/tmp/hicond-bench-serve-XXXXXX";
    HICOND_CHECK(::mkdtemp(tmpl) != nullptr,
                 "mkdtemp failed for the serve snapshot directory");
    dir_ = tmpl;
    path_ = dir_ + "/bench.hsnap";
    serve::write_snapshot_file(path_, g);
  }

  ~ServeSnapshot() {
    ::unlink(path_.c_str());
    ::rmdir(dir_.c_str());
  }

  ServeSnapshot(const ServeSnapshot&) = delete;
  ServeSnapshot& operator=(const ServeSnapshot&) = delete;

  [[nodiscard]] std::string load_request() const {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("op", "load");
    w.kv("path", path_);
    w.end_object();
    return w.str();
  }

  [[nodiscard]] const std::string& fingerprint() const {
    return fingerprint_;
  }

  /// The private temp directory holding the snapshot (removed with it).
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string fingerprint_;
  std::string dir_;
  std::string path_;
};

/// One NDJSON line through ServerCore, answered the way the stdio loop
/// answers it: an immediate (rejection) response, else the step() result.
std::string serve_call(serve::ServerCore& core, const std::string& line) {
  std::optional<std::string> response = core.submit(line);
  if (!response) response = core.step();
  HICOND_CHECK(response.has_value(), "server produced no response");
  return *response;
}

std::string serve_solve_request(const std::string& fingerprint) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("op", "solve");
  w.kv("graph", fingerprint);
  w.kv("rhs_seed", 1000);
  w.end_object();
  return w.str();
}

serve::ServerOptions serve_bench_options() {
  return {.cache_bytes = std::size_t{64} << 20,
          .solver = {.hierarchy = {.coarsest_size = 64}}};
}

/// serve_solve_cold/warm time one `solve` request line through ServerCore:
/// parse, cache lookup (or build), the single-RHS PCG solve, and encode.
BenchCase case_serve_solve_cold(vidx side) {
  const std::string name = "serve_solve_cold/grid2d_" + std::to_string(side);
  return {name, [name, side](int repeats) {
    const Graph g =
        gen::grid2d(side, side, gen::WeightSpec::uniform(1.0, 2.0), 7);
    const ServeSnapshot snapshot(g);
    const std::string request = serve_solve_request(snapshot.fingerprint());
    // One loaded server per sample, prepared untimed: every timed solve
    // meets an empty cache and pays the hierarchy build.
    std::vector<std::unique_ptr<serve::ServerCore>> servers;
    for (int i = 0; i < repeats; ++i) {
      servers.push_back(
          std::make_unique<serve::ServerCore>(serve_bench_options()));
      (void)serve_call(*servers.back(), snapshot.load_request());
    }
    std::size_t sample = 0;
    return timed_case(name, repeats, [&](CaseResult& out, bool first) {
      const std::string response = serve_call(*servers[sample++], request);
      if (first) {
        const obs::JsonValue r = obs::parse_json(response);
        out.metrics = {
            {"vertices", static_cast<double>(g.num_vertices())},
            {"cache_hit", r.at("cache_hit").boolean ? 1.0 : 0.0},
            {"setup_seconds", r.at("setup_seconds").number},
            {"iterations", r.at("iterations").number},
            {"converged", r.at("converged").boolean ? 1.0 : 0.0}};
      }
    });
  }};
}

BenchCase case_serve_solve_warm(vidx side) {
  const std::string name = "serve_solve_warm/grid2d_" + std::to_string(side);
  return {name, [name, side](int repeats) {
    const Graph g =
        gen::grid2d(side, side, gen::WeightSpec::uniform(1.0, 2.0), 7);
    const ServeSnapshot snapshot(g);
    const std::string request = serve_solve_request(snapshot.fingerprint());
    serve::ServerCore core(serve_bench_options());
    (void)serve_call(core, snapshot.load_request());
    const obs::JsonValue cold =
        obs::parse_json(serve_call(core, request));  // populate the cache
    return timed_case(name, repeats, [&](CaseResult& out, bool first) {
      const std::string response = serve_call(core, request);
      if (first) {
        const obs::JsonValue r = obs::parse_json(response);
        out.metrics = {
            {"vertices", static_cast<double>(g.num_vertices())},
            {"cache_hit", r.at("cache_hit").boolean ? 1.0 : 0.0},
            {"cold_setup_seconds", cold.at("setup_seconds").number},
            {"warm_setup_seconds", r.at("setup_seconds").number},
            {"iterations", r.at("iterations").number},
            {"converged", r.at("converged").boolean ? 1.0 : 0.0}};
      }
    });
  }};
}

BenchCase case_serve_batch(vidx side, int k) {
  const std::string name = "serve_batch_rhs" + std::to_string(k) +
                           "/grid2d_" + std::to_string(side);
  return {name, [name, side, k](int repeats) {
    const Graph g =
        gen::grid2d(side, side, gen::WeightSpec::uniform(1.0, 2.0), 7);
    const LaplacianSolver solver(g, {.hierarchy = {.coarsest_size = 64}});
    const auto rhs = serve_bench_rhs(g.num_vertices(), k);
    return timed_case(name, repeats, [&](CaseResult& out, bool first) {
      const auto batch = serve::batch_solve(solver, rhs);
      if (first) {
        double total_iterations = 0.0;
        for (const SolveStats& s : batch.stats) {
          total_iterations += static_cast<double>(s.iterations);
        }
        out.metrics = {
            {"vertices", static_cast<double>(g.num_vertices())},
            {"rhs", static_cast<double>(k)},
            {"iterations_total", total_iterations},
            {"converged_all",
             std::all_of(batch.stats.begin(), batch.stats.end(),
                         [](const SolveStats& s) { return s.converged; })
                 ? 1.0
                 : 0.0}};
      }
    });
  }};
}

/// The serve-side update path: one resident base hierarchy, and every
/// sample lands one reweight batch under a fresh derived fingerprint via
/// HierarchyCache::update_entry. `repair` selects the local-repair path;
/// with it off the same updates pay a full cold rebuild -- the pair is the
/// wall-clock evidence that repair beats rebuild (asserted in CI on the
/// smoke suite's 20k tree case).
BenchCase case_serve_update(vidx n, bool repair) {
  const std::string name = std::string("serve_update_") +
                           (repair ? "repair" : "rebuild") + "/tree_" +
                           std::to_string(n);
  return {name, [name, n, repair](int repeats) {
    const Graph g =
        gen::random_tree(n, gen::WeightSpec::uniform(1.0, 2.0), 11);
    const std::uint64_t fp = serve::graph_fingerprint(g);
    const LaplacianSolverOptions opt{.hierarchy = {.coarsest_size = 64}};
    serve::HierarchyCache cache(std::size_t{2} << 30);
    (void)cache.get_or_build(fp, g, opt);  // resident base entry, untimed
    // Reweight an intra-cluster edge: the quotient stays intact, so the
    // repair path is pure incremental work while the rebuild path still
    // pays the full hierarchy.
    const LaminarHierarchy h = build_hierarchy(g, opt.hierarchy);
    vidx eu = 0;
    vidx ev = g.neighbors(0)[0];
    if (!h.levels.empty()) {
      const auto& assign = h.levels.front().decomposition.assignment;
      for (vidx u = 0; u < g.num_vertices(); ++u) {
        const auto nbrs = g.neighbors(u);
        const auto it = std::find_if(
            nbrs.begin(), nbrs.end(), [&](vidx x) {
              return u < x && assign[static_cast<std::size_t>(u)] ==
                                  assign[static_cast<std::size_t>(x)];
            });
        if (it != nbrs.end()) {
          eu = u;
          ev = *it;
          break;
        }
      }
    }
    const double base_w = g.edge_weight(eu, ev);
    int sample = 0;
    return timed_case(name, repeats, [&](CaseResult& out, bool first) {
      // A fresh weight per sample keeps every derived fingerprint distinct,
      // so no sample short-circuits on the idempotent-retry path.
      const std::vector<dynamic::EdgeUpdate> updates{
          {dynamic::UpdateKind::reweight, eu, ev,
           base_w * (2.0 + 0.001 * static_cast<double>(++sample))}};
      const Graph mutated = dynamic::apply_updates(g, updates);
      const auto outcome = cache.update_entry(
          fp, serve::graph_fingerprint(mutated), mutated, updates, opt, {},
          /*allow_repair=*/repair);
      if (first) {
        out.metrics = {
            {"vertices", static_cast<double>(g.num_vertices())},
            {"repaired", outcome.repaired ? 1.0 : 0.0},
            {"upper_rebuilt", outcome.upper_rebuilt ? 1.0 : 0.0},
            {"clusters_touched",
             static_cast<double>(outcome.clusters_touched)},
            {"build_seconds", outcome.build_seconds}};
      }
    });
  }};
}

// --- sharded serving: round trips through the real router deployment ------

/// Set from argv[0] in main(); the router cases locate the sibling
/// hicond_router/hicond_serve binaries relative to this (bench/ and
/// examples/ live side by side in the build tree).
std::string g_self_path;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

std::string sibling_binary(const char* env_override, const char* name) {
  if (const char* env = std::getenv(env_override)) {
    return env;
  }
  const std::size_t slash = g_self_path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : g_self_path.substr(0, slash);
  return dir + "/../examples/" + name;
}

/// One hicond_router process (3 workers) spoken to over stdio pipes --
/// the routed cases measure true end-to-end request latency: framing,
/// routing, worker IPC and the solve itself, exactly what a deployment
/// pays per request on top of the in-process serve_* cases above.
class RouterDeployment {
 public:
  explicit RouterDeployment(vidx side)
      : snapshot_(gen::grid2d(side, side, gen::WeightSpec::uniform(1.0, 2.0),
                              7)) {
    const std::string router_bin =
        sibling_binary("HICOND_ROUTER_BIN", "hicond_router");
    const std::string serve_bin =
        sibling_binary("HICOND_SERVE_BIN", "hicond_serve");
    HICOND_CHECK(::access(router_bin.c_str(), X_OK) == 0,
                 "hicond_router binary not found next to hicond_bench "
                 "(build it, or set HICOND_ROUTER_BIN)");
    HICOND_CHECK(::access(serve_bin.c_str(), X_OK) == 0,
                 "hicond_serve binary not found next to hicond_bench "
                 "(build it, or set HICOND_SERVE_BIN)");
    // Each pipe end lands in a unique_fd as soon as it exists, so a failure
    // anywhere below (second pipe(), fork, fdopen) closes the rest instead
    // of leaking them.
    unique_fd request_rd, request_wr, response_rd, response_wr;
    {
      int ends[2];
      HICOND_CHECK(::pipe(ends) == 0,
                   "pipe() failed for the router deployment");
      request_rd.reset(ends[0]);
      request_wr.reset(ends[1]);
      HICOND_CHECK(::pipe(ends) == 0,
                   "pipe() failed for the router deployment");
      response_rd.reset(ends[0]);
      response_wr.reset(ends[1]);
    }
    pid_ = ::fork();
    HICOND_CHECK(pid_ >= 0, "fork() failed for the router deployment");
    if (pid_ == 0) {
      ::dup2(request_rd.get(), 0);
      ::dup2(response_wr.get(), 1);
      request_rd.reset();
      request_wr.reset();
      response_rd.reset();
      response_wr.reset();
      ::execl(router_bin.c_str(), "hicond_router", "--workers", "3",
              "--worker-bin", serve_bin.c_str(), "--socket-dir",
              snapshot_.dir().c_str(), static_cast<char*>(nullptr));
      std::fprintf(stderr, "exec hicond_router failed\n");
      ::_exit(127);
    }
    request_rd.reset();
    response_wr.reset();
    out_ = ::fdopen(request_wr.get(), "w");
    HICOND_CHECK(out_ != nullptr, "fdopen failed for the router pipes");
    (void)request_wr.release();  // fclose(out_) owns the descriptor now
    in_ = ::fdopen(response_rd.get(), "r");
    HICOND_CHECK(in_ != nullptr, "fdopen failed for the router pipes");
    (void)response_rd.release();

    const obs::JsonValue loaded = call(snapshot_.load_request());
    HICOND_CHECK(loaded.at("ok").boolean, "router load failed");
  }

  ~RouterDeployment() {
    if (out_ != nullptr) {
      std::fputs("{\"op\":\"shutdown\"}\n", out_);
      std::fflush(out_);
      std::fclose(out_);
    }
    if (in_ != nullptr) {
      std::fclose(in_);
    }
    if (pid_ > 0) {
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  RouterDeployment(const RouterDeployment&) = delete;
  RouterDeployment& operator=(const RouterDeployment&) = delete;

  /// One request/response round trip (the benchmarked unit).
  obs::JsonValue call(const std::string& request) {
    std::fputs(request.c_str(), out_);
    std::fputc('\n', out_);
    std::fflush(out_);
    char* line = nullptr;
    std::size_t cap = 0;
    const ssize_t got = ::getline(&line, &cap, in_);
    HICOND_CHECK(got > 0, "router closed the stream mid-benchmark");
    obs::JsonValue response;
    try {
      response = obs::parse_json(std::string_view(
          line, static_cast<std::size_t>(got)));
    } catch (...) {
      std::free(line);
      throw;
    }
    std::free(line);
    return response;
  }

  [[nodiscard]] const std::string& fingerprint() const {
    return snapshot_.fingerprint();
  }

 private:
  // Destroyed last: the router must have shut down (destructor body)
  // before its socket directory and snapshot are removed.
  const ServeSnapshot snapshot_;
  pid_t pid_ = -1;
  std::FILE* out_ = nullptr;
  std::FILE* in_ = nullptr;
};

BenchCase case_serve_router_solve_warm(vidx side) {
  const std::string name =
      "serve_router_solve_warm/grid2d_" + std::to_string(side);
  return {name, [name, side](int repeats) {
    RouterDeployment deployment(side);
    const std::string request = serve_solve_request(
        deployment.fingerprint());
    const obs::JsonValue cold = deployment.call(request);  // build once
    return timed_case(name, repeats, [&](CaseResult& out, bool first) {
      const obs::JsonValue warm = deployment.call(request);
      if (first) {
        out.metrics = {
            {"vertices", static_cast<double>(side) * side},
            {"cache_hit", warm.at("cache_hit").boolean ? 1.0 : 0.0},
            {"cold_setup_seconds", cold.at("setup_seconds").number},
            {"iterations", warm.at("iterations").number},
            {"converged", warm.at("converged").boolean ? 1.0 : 0.0}};
      }
    });
  }};
}

BenchCase case_serve_router_batch(vidx side, int k) {
  const std::string name = "serve_router_batch_rhs" + std::to_string(k) +
                           "/grid2d_" + std::to_string(side);
  return {name, [name, side, k](int repeats) {
    RouterDeployment deployment(side);
    obs::JsonWriter w;
    w.begin_object();
    w.kv("op", "batch_solve");
    w.kv("graph", deployment.fingerprint());
    w.key("rhs_random").begin_object();
    w.kv("count", k);
    w.kv("seed", 1000);
    w.end_object();
    w.end_object();
    const std::string request = w.str();
    (void)deployment.call(serve_solve_request(
        deployment.fingerprint()));  // warm the hierarchy
    return timed_case(name, repeats, [&](CaseResult& out, bool first) {
      const obs::JsonValue batch = deployment.call(request);
      if (first) {
        double iterations_total = 0.0;
        bool converged_all = true;
        for (const obs::JsonValue& it : batch.at("iterations").array) {
          iterations_total += it.number;
        }
        for (const obs::JsonValue& c : batch.at("converged").array) {
          converged_all = converged_all && c.boolean;
        }
        out.metrics = {{"vertices", static_cast<double>(side) * side},
                       {"rhs", static_cast<double>(k)},
                       {"iterations_total", iterations_total},
                       {"converged_all", converged_all ? 1.0 : 0.0}};
      }
    });
  }};
}

struct Suite {
  std::string name;
  int default_repeats;
  std::vector<BenchCase> cases;
};

Suite make_suite(const std::string& name) {
  // Thread-scaling variants pin the two hottest kernels (SpMV and the tree
  // decomposition) at 1/4/8 threads so baselines track parallel speedup.
  // The smoke suite also pins the k=1/k=8 batches at 4 threads, so CI's
  // batching ratio gate measures the same thing on any runner.
  if (name == "smoke") {
    return {name,
            5,
            {case_laplacian_apply(12), case_fixed_degree(12),
             case_decompose_backend("fixed_degree", 141),
             case_decompose_backend("louvain", 141),
             case_decompose_backend("lowdiam", 141),
             case_tree_decomposition(20000), case_hierarchy(48),
             case_steiner_apply(10), case_solve_multilevel(48),
             case_serve_solve_cold(48), case_serve_solve_warm(48),
             case_serve_batch(48, 1), case_serve_batch(48, 8),
             case_serve_update(20000, true), case_serve_update(20000, false),
             case_serve_router_solve_warm(48),
             case_serve_router_batch(48, 8),
             with_threads(case_laplacian_apply(12), 1),
             with_threads(case_laplacian_apply(12), 4),
             with_threads(case_laplacian_apply(12), 8),
             with_threads(case_tree_decomposition(20000), 1),
             with_threads(case_tree_decomposition(20000), 4),
             with_threads(case_tree_decomposition(20000), 8),
             with_threads(case_serve_batch(48, 1), 4),
             with_threads(case_serve_batch(48, 8), 4)}};
  }
  if (name == "full") {
    return {name,
            7,
            {case_laplacian_apply(32), case_fixed_degree(32),
             case_decompose_backend("fixed_degree", 447),
             case_decompose_backend("louvain", 447),
             case_decompose_backend("lowdiam", 447),
             case_tree_decomposition(200000), case_hierarchy(128),
             case_steiner_apply(20), case_solve_multilevel(128),
             case_serve_solve_cold(128), case_serve_solve_warm(128),
             case_serve_batch(128, 1), case_serve_batch(128, 8),
             case_serve_update(200000, true),
             case_serve_update(200000, false),
             case_serve_router_solve_warm(128),
             case_serve_router_batch(128, 8),
             with_threads(case_laplacian_apply(32), 1),
             with_threads(case_laplacian_apply(32), 4),
             with_threads(case_laplacian_apply(32), 8),
             with_threads(case_tree_decomposition(200000), 1),
             with_threads(case_tree_decomposition(200000), 4),
             with_threads(case_tree_decomposition(200000), 8)}};
  }
  std::fprintf(stderr, "unknown suite '%s' (available: smoke, full)\n",
               name.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// JSON emit / load / compare
// ---------------------------------------------------------------------------

std::string results_to_json(const std::string& suite,
                            const std::vector<CaseResult>& results) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema_version", kSchemaVersion);
  w.kv("suite", suite);
  w.key("machine").begin_object();
  w.kv("omp_threads", num_threads());
  w.kv("omp_procs", omp_get_num_procs());
  w.kv("pointer_bits", static_cast<std::int64_t>(sizeof(void*) * 8));
#ifdef NDEBUG
  w.kv("build", "release");
#else
  w.kv("build", "debug");
#endif
  w.kv("validate_level", validate_level());
  w.kv("trace_compiled", HICOND_TRACE_ENABLED != 0);
  w.end_object();
  w.key("cases").begin_array();
  for (const CaseResult& r : results) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("repeats", r.repeats);
    w.kv("threads", r.threads);
    w.kv("best_seconds", r.best_seconds);
    w.kv("p50_seconds", r.p50_seconds);
    w.kv("p90_seconds", r.p90_seconds);
    w.key("metrics").begin_object();
    for (const auto& [k, v] : r.metrics) w.kv(k, v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::vector<CaseResult> results_from_json(const obs::JsonValue& doc) {
  HICOND_CHECK(doc.is_object(), "result document must be an object");
  HICOND_CHECK(exactly_equal(doc.at("schema_version").number, kSchemaVersion),
               "unsupported schema_version");
  std::vector<CaseResult> out;
  for (const obs::JsonValue& c : doc.at("cases").array) {
    CaseResult r;
    r.name = c.at("name").string;
    r.repeats = static_cast<int>(c.at("repeats").number);
    r.threads = static_cast<int>(c.at("threads").number);
    r.best_seconds = c.at("best_seconds").number;
    r.p50_seconds = c.at("p50_seconds").number;
    r.p90_seconds = c.at("p90_seconds").number;
    if (const obs::JsonValue* m = c.find("metrics"); m != nullptr) {
      for (const auto& [k, v] : m->object) r.metrics.emplace_back(k, v.number);
    }
    out.push_back(std::move(r));
  }
  return out;
}

obs::JsonValue load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return obs::parse_json(ss.str());
}

/// Returns the number of regressions (0 = pass).
int compare_results(const std::vector<CaseResult>& current,
                    const std::vector<CaseResult>& baseline,
                    double threshold) {
  int regressions = 0;
  auto find = [&](const std::string& name) -> const CaseResult* {
    for (const CaseResult& r : current) {
      if (r.name == name) return &r;
    }
    return nullptr;
  };
  std::printf("%-36s %12s %12s %8s\n", "case", "baseline", "current",
              "ratio");
  for (const CaseResult& base : baseline) {
    const CaseResult* cur = find(base.name);
    if (cur == nullptr) {
      std::printf("%-36s %12s %12s %8s  MISSING\n", base.name.c_str(),
                  format_duration(base.best_seconds).c_str(), "-", "-");
      ++regressions;
      continue;
    }
    const double ratio = base.best_seconds > 0.0
                             ? cur->best_seconds / base.best_seconds
                             : 1.0;
    const bool regressed = ratio > threshold;
    std::printf("%-36s %12s %12s %7.2fx%s\n", base.name.c_str(),
                format_duration(base.best_seconds).c_str(),
                format_duration(cur->best_seconds).c_str(), ratio,
                regressed ? "  REGRESSION" : "");
    if (regressed) ++regressions;
  }
  return regressions;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  hicond_bench --suite <smoke|full> [--repeats N] [--out FILE]\n"
      "               [--compare BASELINE.json] [--threshold R]\n"
      "  hicond_bench --input RESULTS.json --compare BASELINE.json\n"
      "               [--threshold R]\n"
      "  hicond_bench --list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  g_self_path = argv[0];
  std::string suite_name;
  std::string out_path;
  std::string input_path;
  std::string compare_path;
  double threshold = 1.10;
  int repeats = 0;
  bool list = false;
  bool dump_metrics = false;

  for (int i = 1; i < argc; ++i) {
    auto arg_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--suite") == 0) {
      suite_name = arg_value("--suite");
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = arg_value("--out");
    } else if (std::strcmp(argv[i], "--input") == 0) {
      input_path = arg_value("--input");
    } else if (std::strcmp(argv[i], "--compare") == 0) {
      compare_path = arg_value("--compare");
    } else if (std::strcmp(argv[i], "--threshold") == 0) {
      threshold = std::atof(arg_value("--threshold"));
    } else if (std::strcmp(argv[i], "--repeats") == 0) {
      repeats = std::atoi(arg_value("--repeats"));
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return usage();
    }
  }

  if (list) {
    for (const char* s : {"smoke", "full"}) {
      const Suite suite = make_suite(s);
      std::printf("%s (default repeats %d):\n", suite.name.c_str(),
                  suite.default_repeats);
      for (const BenchCase& c : suite.cases) {
        std::printf("  %s\n", c.name.c_str());
      }
    }
    return 0;
  }

  std::vector<CaseResult> current;
  if (!input_path.empty()) {
    current = results_from_json(load_json_file(input_path));
  } else if (!suite_name.empty()) {
    const Suite suite = make_suite(suite_name);
    const int k = repeats > 0 ? repeats : suite.default_repeats;
    const int ambient_threads = num_threads();
    for (const BenchCase& c : suite.cases) {
      const int case_threads = c.threads > 0 ? c.threads : ambient_threads;
      std::printf("running %s (best of %d, %d thread%s)...\n", c.name.c_str(),
                  k, case_threads, case_threads == 1 ? "" : "s");
      std::fflush(stdout);
      if (c.threads > 0) omp_set_num_threads(c.threads);
      CaseResult r = c.run(k);
      if (c.threads > 0) omp_set_num_threads(ambient_threads);
      r.threads = case_threads;
      std::printf("  best %s  p50 %s  p90 %s\n",
                  format_duration(r.best_seconds).c_str(),
                  format_duration(r.p50_seconds).c_str(),
                  format_duration(r.p90_seconds).c_str());
      current.push_back(std::move(r));
    }
    const std::string json = results_to_json(suite_name, current);
    const std::string path =
        out_path.empty() ? "BENCH_" + suite_name + ".json" : out_path;
    std::ofstream out(path);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    out << json << '\n';
    std::printf("wrote %s (%zu cases)\n", path.c_str(), current.size());
  } else {
    return usage();
  }

  if (dump_metrics) {
    std::printf("%s\n", hicond::obs::MetricsRegistry::global().to_json().c_str());
  }

  if (!compare_path.empty()) {
    const std::vector<CaseResult> baseline =
        results_from_json(load_json_file(compare_path));
    const int regressions = compare_results(current, baseline, threshold);
    if (regressions > 0) {
      std::printf("%d regression(s) above %.2fx\n", regressions, threshold);
      return 1;
    }
    std::printf("no regressions above %.2fx\n", threshold);
  }
  return 0;
}
