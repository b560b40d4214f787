#include "replay.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "hicond/dynamic/update.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/json.hpp"
#include "hicond/partition/hierarchy.hpp"
#include "hicond/precond/multilevel.hpp"
#include "hicond/serve/batch.hpp"
#include "hicond/serve/cache.hpp"
#include "hicond/serve/server.hpp"
#include "hicond/serve/shard/ring.hpp"
#include "hicond/serve/snapshot.hpp"
#include "hicond/solver.hpp"
#include "hicond/util/rng.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using hicond::Graph;
using hicond::LaplacianSolver;
using hicond::obs::JsonValue;
namespace serve = hicond::serve;

/// The server's seeded right-hand side (docs/SERVING.md): uniform noise on
/// [-1, 1) from Rng(seed), mean removed. The replay's answers are compared
/// bit for bit with ServerCore's, which catches any drift here.
std::vector<double> seeded_rhs(std::uint64_t seed, std::size_t n) {
  hicond::Rng rng(seed);
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  hicond::la::remove_mean(b);
  return b;
}

/// Nonzeros of the Laplacian over every level, relative to the finest.
double nnz_complexity(const LaplacianSolver& s) {
  const auto nnz = [](const Graph& g) {
    return static_cast<double>(g.num_arcs() + g.num_vertices());
  };
  const hicond::LaminarHierarchy& h = s.multilevel().hierarchy();
  double total = nnz(h.coarsest);
  for (const hicond::HierarchyLevel& lv : h.levels) total += nnz(lv.graph);
  return total / nnz(s.graph());
}

/// Bytes one SpMV streams, computed from the CSR sizes: offsets, targets,
/// weights, the input vector once and the output vector once.
double spmv_bytes(const Graph& g) {
  const auto n = static_cast<double>(g.num_vertices());
  const auto arcs = static_cast<double>(g.num_arcs());
  return 8.0 * (n + 1) + 12.0 * arcs + 16.0 * n;
}

/// One service of the deployment: a lone server, or one router worker.
struct Shard {
  explicit Shard(std::size_t cache_bytes)
      : cache(cache_bytes), core(serve::ServerOptions{.cache_bytes = cache_bytes}) {}
  serve::HierarchyCache cache;
  serve::ServerCore core;
  std::map<std::uint64_t, std::shared_ptr<const Graph>> graphs;
};

/// What the replay observed about one request.
struct Rec {
  std::string op;
  bool traced = false;
  int shard = 0;
  double total_ms = 0.0;
  double parse_ms = 0.0, encode_ms = 0.0, cache_ms = 0.0;
  bool hit = false;
  double pcg_ms = 0.0, block_pcg_ms = 0.0;
  int iterations = 0;
  double vcycle_ms = 0.0, spmv_ms = 0.0, block_col_ms = 0.0, spmv_block_col_ms = 0.0;
  double submit_ms = 0.0, step_ms = 0.0;
  double request_bytes = 0.0, response_bytes = 0.0;
  double coarsest_share = std::nan(""), nnz = std::nan(""), bytes = std::nan("");
  double apply_ms = 0.0, update_entry_ms = 0.0;
  bool repaired = false;
  double clusters_touched = 0.0;
  std::string key;  ///< solution_fnv(s) or new_graph, compared with ServerCore
  std::string build_key;  ///< graph and backend of a solve's cache entry
};

class Replay {
 public:
  Replay(Workload w, std::uint64_t seed, double seconds, const Inputs& in,
         const RunPaths& paths)
      : w_(w), seed_(seed), seconds_(seconds), in_(in), paths_(paths),
        d_(deployment(w)), ring_(std::max(1, d_.workers), 64) {}

  ReplayOutcome go(const ClientOutcome& untraced);

 private:
  void fail(const std::string& what) {
    ++out_.failed;
    if (out_.failures.size() < 8) out_.failures.push_back(what);
  }
  void setup();
  void build_probe(const Graph& g, const hicond::LaplacianSolverOptions& opts,
                   std::int64_t id);
  /// Execute one request line through the layer calls; the response text.
  std::string layer_path(const std::string& line, std::int64_t id, Rec& rec);
  void kernel_probe(const LaplacianSolver& solver, const std::vector<double>& b,
                    int k, std::int64_t id, Rec& rec);
  /// The same line through ServerCore::submit/step, checked against the
  /// layer path's answer.
  void serve_path(const std::string& line, std::int64_t id, Rec& rec);
  void run_request(const std::string& line, std::int64_t id, bool traced,
                   bool through_server);
  std::string small_update_line(std::int64_t id);

  Workload w_;
  std::uint64_t seed_;
  double seconds_;
  const Inputs& in_;
  const RunPaths& paths_;
  Deployment d_;
  serve::shard::HashRing ring_;
  Tracer tr_;
  ReplayOutcome out_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::string> hex_;
  std::vector<Rec> recs_;
  std::vector<double> read_ms_, fingerprint_ms_;
  std::vector<double> build_ms_, precond_build_ms_, levels_, reduction_;
  std::set<std::string> probed_builds_;
  // Inputs of the most recent solve, for its kernel and build probes.
  std::shared_ptr<const LaplacianSolver> last_solver_;
  hicond::LaplacianSolverOptions last_options_;
  std::vector<double> last_b_;
  int last_k_ = 0;
};

void Replay::build_probe(const Graph& g, const hicond::LaplacianSolverOptions& opts,
                         std::int64_t id) {
  // get_or_build runs build_hierarchy and MultilevelSteinerSolver::build
  // inside LaplacianSolver's constructor; the probe repeats the two calls on
  // the same graph and options so each gets its own span.
  tr_.recording = true;
  Scope root(tr_, "probe", -1, id);
  hicond::LaminarHierarchy h;
  {
    Scope s(tr_, "partition.build_hierarchy", root.index(), id);
    h = hicond::build_hierarchy(g, opts.hierarchy);
    build_ms_.push_back(s.close());
  }
  const int levels = h.num_levels();
  levels_.push_back(levels);
  reduction_.push_back(levels == 0 ? 1.0
                                   : std::pow(static_cast<double>(g.num_vertices()) /
                                                  static_cast<double>(h.coarsest.num_vertices()),
                                              1.0 / levels));
  {
    Scope s(tr_, "precond.build", root.index(), id);
    const hicond::MultilevelSteinerSolver m =
        hicond::MultilevelSteinerSolver::build(std::move(h), opts.multilevel);
    precond_build_ms_.push_back(s.close());
  }
}

void Replay::setup() {
  const std::size_t budget =
      in_.cache_bytes > 0 ? in_.cache_bytes : serve::ServerOptions{}.cache_bytes;
  for (int i = 0; i < std::max(1, d_.workers); ++i) {
    shards_.push_back(std::make_unique<Shard>(budget));
  }
  tr_.recording = true;
  for (const GraphInput& gi : in_.graphs) {
    Scope root(tr_, "setup", -1, -1);
    Graph g;
    {
      Scope s(tr_, "snapshot.read_snapshot_file", root.index(), -1);
      g = serve::read_snapshot_file(paths_.work_dir + "/" + gi.file);
      read_ms_.push_back(s.close());
    }
    std::uint64_t fp = 0;
    {
      Scope s(tr_, "snapshot.graph_fingerprint", root.index(), -1);
      fp = serve::graph_fingerprint(g);
      fingerprint_ms_.push_back(s.close());
    }
    if (fp != gi.fingerprint) fail("replay: snapshot fingerprint mismatch");
    if (d_.workers > 0 && ring_.primary(fp) != gi.worker) {
      fail("replay: the ring places " + gi.label + " away from its designated worker");
    }
    hex_.push_back(hex16(fp));
    Shard& sh = *shards_[static_cast<std::size_t>(gi.worker)];
    sh.graphs[fp] = std::make_shared<const Graph>(std::move(g));
    // The in-process server loads the same file.
    const std::string load = "{\"op\":\"load\",\"path\":\"" + paths_.work_dir + "/" + gi.file + "\"}";
    if (sh.core.submit(load) || !sh.core.step()) fail("replay: ServerCore load failed");
  }
  if (d_.workers == 0) {
    // The cold first solve of the deployment, and one build probe.
    Request cold;
    cold.rhs_seed = mix_seed(seed_, 30) >> 12;
    run_request(request_line(cold, hex_[0], 0, false), 0, true, true);
    build_probe(*shards_[0]->graphs.begin()->second, {}, 0);
  }
}

std::string Replay::layer_path(const std::string& line, std::int64_t id, Rec& rec) {
  const double t0 = now_s();
  Scope root(tr_, "request", -1, id);
  const int r = root.index();
  rec.request_bytes = static_cast<double>(line.size());
  JsonValue req;
  {
    Scope s(tr_, "obs.parse_json", r, id);
    req = hicond::obs::parse_json(line);
    rec.parse_ms = s.close();
  }
  rec.op = req.at("op").string;
  const std::uint64_t fp = serve::parse_fingerprint(req.at("graph").string);
  if (d_.workers > 0) {
    Scope s(tr_, "shard.primary", r, id);
    rec.shard = ring_.primary(fp);
  }
  Shard& sh = *shards_[static_cast<std::size_t>(rec.shard)];
  const std::shared_ptr<const Graph> graph = sh.graphs.at(fp);
  const auto n = static_cast<std::size_t>(graph->num_vertices());
  hicond::LaplacianSolverOptions opts;
  if (const JsonValue* t = req.find("rel_tolerance")) opts.rel_tolerance = t->number;
  if (const JsonValue* b = req.find("backend")) opts.hierarchy.contraction.backend = b->string;
  const JsonValue* rx = req.find("return_x");
  const bool return_x = rx != nullptr && rx->boolean;
  hicond::obs::JsonWriter w;

  if (rec.op == "update") {
    std::vector<hicond::dynamic::EdgeUpdate> updates;
    {
      Scope s(tr_, "dynamic.parse_updates", r, id);
      updates = hicond::dynamic::parse_updates(req.at("updates"), std::size_t{1} << 20);
    }
    Graph next;
    {
      Scope s(tr_, "dynamic.apply_updates", r, id);
      next = hicond::dynamic::apply_updates(*graph, updates);
      rec.apply_ms = s.close();
    }
    std::uint64_t nfp = 0;
    {
      Scope s(tr_, "snapshot.graph_fingerprint", r, id);
      nfp = serve::graph_fingerprint(next);
      const double ms = s.close();
      if (rec.traced) fingerprint_ms_.push_back(ms);
    }
    {
      Scope s(tr_, "graph.is_connected", r, id);
      if (!hicond::is_connected(next)) fail("replay: update disconnects the graph");
    }
    const auto [it, inserted] =
        sh.graphs.emplace(nfp, std::make_shared<const Graph>(std::move(next)));
    serve::HierarchyCache::UpdateOutcome outcome;
    {
      Scope s(tr_, "dynamic.update_entry", r, id);
      outcome = sh.cache.update_entry(fp, nfp, *it->second, updates, opts);
      rec.update_entry_ms = s.close();
    }
    // The stream never names a superseded graph again; the inputs stay for
    // the probes.
    const bool input = std::any_of(in_.graphs.begin(), in_.graphs.end(),
                                   [fp](const GraphInput& gi) { return gi.fingerprint == fp; });
    if (nfp != fp && !input) sh.graphs.erase(fp);
    rec.repaired = outcome.repaired;
    rec.clusters_touched = static_cast<double>(outcome.clusters_touched);
    rec.key = hex16(nfp);
    {
      Scope s(tr_, "obs.encode", r, id);
      w.begin_object();
      w.kv("id", id);
      w.kv("ok", true);
      w.kv("op", "update");
      w.kv("new_graph", serve::fingerprint_hex(nfp));
      w.kv("repaired", outcome.repaired);
      w.kv("clusters_touched", static_cast<std::int64_t>(outcome.clusters_touched));
      w.kv("decline_reason", outcome.decline_reason);
      w.kv("setup_seconds", outcome.build_seconds);
      w.end_object();
      rec.encode_ms = s.close();
    }
  } else {
    serve::HierarchyCache::Lookup lookup;
    {
      Scope s(tr_, "cache.get_or_build", r, id);
      lookup = sh.cache.get_or_build(fp, *graph, opts);
      rec.cache_ms = s.close();
    }
    rec.hit = lookup.hit;
    rec.build_key = req.at("graph").string + "|" + opts.hierarchy.contraction.backend;
    last_options_ = opts;
    const LaplacianSolver& solver = *lookup.solver;
    rec.nnz = nnz_complexity(solver);
    rec.bytes = spmv_bytes(*graph);
    last_solver_ = lookup.solver;
    if (rec.op == "solve") {
      std::vector<double> b;
      if (const JsonValue* bv = req.find("b")) {
        b.reserve(n);
        for (const JsonValue& e : bv->array) b.push_back(e.number);
      } else {
        b = seeded_rhs(static_cast<std::uint64_t>(req.at("rhs_seed").number), n);
      }
      std::vector<double> x(n, 0.0);
      const auto before = solver.multilevel().cycle_stats();
      hicond::SolveStats stats;
      {
        Scope s(tr_, "la.solve", r, id);
        stats = solver.solve(b, x);
        rec.pcg_ms = s.close();
      }
      const auto after = solver.multilevel().cycle_stats();
      const double top = after.front().seconds - before.front().seconds;
      rec.coarsest_share =
          top > 0 ? (after.back().seconds - before.back().seconds) / top : std::nan("");
      rec.iterations = stats.iterations;
      if (!stats.converged || !(stats.final_relative_residual <= opts.rel_tolerance)) {
        fail("replay: solve did not converge");
      }
      const std::uint64_t h = serve::solution_fingerprint(x);
      rec.key = hex16(h);
      {
        Scope s(tr_, "obs.encode", r, id);
        w.begin_object();
        w.kv("id", id);
        w.kv("ok", true);
        w.kv("op", "solve");
        w.kv("cache_hit", lookup.hit);
        w.kv("setup_seconds", lookup.build_seconds);
        w.kv("iterations", stats.iterations);
        w.kv("converged", stats.converged);
        w.kv("final_relative_residual", stats.final_relative_residual);
        w.kv("solution_fnv", serve::fingerprint_hex(h));
        if (return_x) {
          w.key("x");
          w.begin_array();
          for (const double v : x) w.value(v);
          w.end_array();
        }
        w.end_object();
        rec.encode_ms = s.close();
      }
      last_b_ = std::move(b);
      last_k_ = 1;
    } else {
      const JsonValue& spec = req.at("rhs_random");
      const int k = static_cast<int>(spec.at("count").number);
      const auto seed = static_cast<std::uint64_t>(spec.at("seed").number);
      std::vector<double> b(n * static_cast<std::size_t>(k));
      for (int j = 0; j < k; ++j) {
        const std::vector<double> col = seeded_rhs(seed + static_cast<std::uint64_t>(j), n);
        std::copy(col.begin(), col.end(), b.begin() + static_cast<std::ptrdiff_t>(n) * j);
      }
      std::vector<double> x(b.size(), 0.0);
      std::vector<hicond::SolveStats> stats;
      {
        Scope s(tr_, "la.solve_batch", r, id);
        stats = solver.solve_batch(b, x, k);
        rec.block_pcg_ms = s.close();
      }
      std::vector<std::string> hashes;
      for (int j = 0; j < k; ++j) {
        if (!stats[static_cast<std::size_t>(j)].converged) fail("replay: batch column did not converge");
        hashes.push_back(serve::fingerprint_hex(serve::solution_fingerprint(
            std::span<const double>(x).subspan(n * static_cast<std::size_t>(j), n))));
        rec.key += hashes.back();
      }
      {
        Scope s(tr_, "obs.encode", r, id);
        w.begin_object();
        w.kv("id", id);
        w.kv("ok", true);
        w.kv("op", "batch_solve");
        w.kv("cache_hit", lookup.hit);
        w.kv("k", static_cast<std::int64_t>(k));
        w.key("iterations");
        w.begin_array();
        for (const auto& st : stats) w.value(st.iterations);
        w.end_array();
        w.key("solution_fnv");
        w.begin_array();
        for (const std::string& hsh : hashes) w.value(hsh);
        w.end_array();
        w.end_object();
        rec.encode_ms = s.close();
      }
      last_b_ = std::move(b);
      last_k_ = k;
    }
  }
  root.close();
  rec.total_ms = 1000.0 * (now_s() - t0);
  rec.response_bytes = static_cast<double>(w.str().size());
  return w.str();
}

void Replay::kernel_probe(const LaplacianSolver& solver, const std::vector<double>& b,
                          int k, std::int64_t id, Rec& rec) {
  // Each kernel runs three times back to back and reports the median call:
  // inside PCG it runs hot, so a lone call right after the response was
  // rendered would overstate it.
  constexpr int kCalls = 3;
  tr_.recording = true;
  Scope root(tr_, "probe", -1, id);
  std::vector<double> z(b.size()), y(b.size());
  const auto& ml = solver.multilevel();
  const Graph& g = solver.graph();
  const auto timed = [&](const char* name, auto&& call) {
    std::vector<double> ms;
    for (int i = 0; i < kCalls; ++i) {
      Scope s(tr_, name, root.index(), id);
      call();
      ms.push_back(s.close());
    }
    return median(ms);
  };
  if (k == 1) {
    rec.vcycle_ms = timed("precond.apply", [&] { ml.apply(b, z); });
    rec.spmv_ms = timed("graph.laplacian_apply", [&] { g.laplacian_apply(b, y); });
  } else {
    rec.block_col_ms = timed("precond.apply_block", [&] { ml.apply_block(b, z, k); }) / k;
    rec.spmv_block_col_ms =
        timed("graph.laplacian_apply_block", [&] { g.laplacian_apply_block(b, y, k); }) / k;
  }
}

void Replay::serve_path(const std::string& line, std::int64_t id, Rec& rec) {
  tr_.recording = true;
  Shard& sh = *shards_[static_cast<std::size_t>(rec.shard)];
  Scope root(tr_, "served", -1, id);
  std::optional<std::string> response;
  {
    Scope s(tr_, "serve.submit", root.index(), id);
    response = sh.core.submit(line);
    rec.submit_ms = s.close();
  }
  if (!response) {
    Scope s(tr_, "serve.step", root.index(), id);
    response = sh.core.step();
    rec.step_ms = s.close();
  }
  root.close();
  JsonValue doc;
  try {
    doc = hicond::obs::parse_json(response.value_or(""));
  } catch (const std::exception&) {
    fail("replay: ServerCore answered with invalid JSON");
    return;
  }
  std::string key;
  if (const JsonValue* f = doc.find("solution_fnv")) {
    if (f->is_string()) {
      key = f->string;
    } else {
      for (const JsonValue& e : f->array) key += e.string;
    }
  } else if (const JsonValue* g = doc.find("new_graph")) {
    key = g->string;
  }
  if (key != rec.key) {
    fail("replay: request " + std::to_string(id) + " answered differently by ServerCore");
  }
}

void Replay::run_request(const std::string& line, std::int64_t id, bool traced,
                         bool through_server) {
  Rec rec;
  rec.traced = traced;
  tr_.recording = traced;
  ++out_.attempted;
  std::string response;
  try {
    response = layer_path(line, id, rec);
  } catch (const std::exception& e) {
    tr_.recording = true;
    fail(std::string("replay: ") + e.what());
    return;
  }
  // A miss the probe has not seen: time its two build calls separately.
  if (rec.op != "update" && !rec.hit && d_.workers > 0 &&
      probed_builds_.insert(rec.build_key).second) {
    build_probe(last_solver_->graph(), last_options_, id);
  }
  if (rec.op != "update") kernel_probe(*last_solver_, last_b_, last_k_, id, rec);
  if (through_server) serve_path(line, id, rec);
  recs_.push_back(std::move(rec));
}

std::string Replay::small_update_line(std::int64_t id) {
  // Eight reweights of distinct edges of graph 0, for the dynamic layer on
  // workloads whose streams carry no update.
  const Graph& g = *shards_[static_cast<std::size_t>(in_.graphs[0].worker)]->graphs.at(
      in_.graphs[0].fingerprint);
  SplitMix rng(mix_seed(seed_, 40));
  EditModel::Step step;
  std::set<std::pair<int, int>> seen;
  while (step.updates.size() < 8) {
    const auto u = static_cast<hicond::vidx>(rng.below(static_cast<std::uint64_t>(g.num_vertices())));
    const auto nb = g.neighbors(u);
    if (nb.empty()) continue;
    const std::size_t j = rng.below(nb.size());
    const auto e = std::minmax(u, nb[j]);
    if (!seen.insert({e.first, e.second}).second) continue;
    step.updates.push_back({EditModel::Update::Kind::reweight, e.first, e.second,
                            g.weights(u)[j] * rng.uniform(0.5, 2.0)});
  }
  return EditModel::update_line(step, hex_[0], id);
}

ReplayOutcome Replay::go(const ClientOutcome& untraced) {
  omp_set_num_threads(d_.solver_threads);
  setup();
  std::vector<serve::HierarchyCache::Stats> before;
  for (const auto& sh : shards_) before.push_back(sh->cache.stats());

  const double start = now_s();
  std::int64_t id = 1;
  if (w_ == Workload::edit_solve) {
    const Graph& base = *shards_[0]->graphs.at(in_.graphs[0].fingerprint);
    EditModel model(base, static_cast<int>(std::lround(std::sqrt(base.num_vertices()))), seed_);
    std::string current = hex_[0];
    for (int step = 0; now_s() - start < seconds_; ++step) {
      const EditModel::Step s = model.next();
      // Pairs of steps alternate; the shift by one per large batch makes the
      // large batches alternate too.
      const bool traced =
          (step + step / static_cast<int>(EditModel::kLargeEvery)) % 4 < 2;
      run_request(EditModel::update_line(s, current, id), id, traced, true);
      ++id;
      if (recs_.empty() || recs_.back().op != "update") break;
      current = recs_.back().key;
      run_request(EditModel::solve_line(EditModel::solve_tail(s.b), current, id), id,
                  traced, true);
      ++id;
    }
  } else {
    const std::vector<Request> stream = seeded_stream(w_, seed_, kStreamLength);
    for (std::size_t i = 0; i < stream.size() && now_s() - start < seconds_; ++i) {
      const Request& q = stream[i];
      const auto rid = static_cast<std::int64_t>(i) + 1;
      run_request(request_line(q, hex_[static_cast<std::size_t>(q.graph)], rid, false),
                  rid, i % 2 == 0, true);
      id = rid + 1;
    }
  }
  serve::HierarchyCache::Stats delta;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto now = shards_[i]->cache.stats();
    delta.hits += now.hits - before[i].hits;
    delta.misses += now.misses - before[i].misses;
    delta.evictions += now.evictions - before[i].evictions;
  }
  const std::size_t stream_recs = recs_.size();
  const std::int64_t stream_end_id = id - 1;

  // Layers the stream does not reach get one probe request each, on the
  // workload's first graph.
  if (w_ != Workload::warm_seeded) {
    Request batch;
    batch.op = Request::Op::batch_solve;
    batch.rhs_seed = mix_seed(seed_, 41) >> 12;
    run_request(request_line(batch, hex_[0], id, false), id, true, false);
    ++id;
  }
  if (w_ != Workload::edit_solve) {
    run_request(small_update_line(id), id, true, false);
    ++id;
  }
  if (d_.workers > 0 && build_ms_.empty()) {
    build_probe(*shards_[static_cast<std::size_t>(in_.graphs[0].worker)]->graphs.at(
                    in_.graphs[0].fingerprint),
                {}, id);
  }

  // ----- per-layer metrics -----
  const auto pick = [&](auto&& select, auto&& value, bool stream_only = false) {
    std::vector<double> v;
    const std::size_t end = stream_only ? stream_recs : recs_.size();
    for (std::size_t i = 0; i < end; ++i) {
      const Rec& r = recs_[i];
      if (select(r)) {
        const double x = value(r);
        if (std::isfinite(x)) v.push_back(x);
      }
    }
    return v;
  };
  const auto traced_solve = [](const Rec& r) { return r.traced && r.op == "solve"; };
  const auto any_solve = [](const Rec& r) { return r.op == "solve"; };
  const auto batch = [](const Rec& r) { return r.op == "batch_solve" && r.traced; };
  const auto update = [](const Rec& r) { return r.op == "update" && r.traced; };
  const auto untraced_solve = [](const Rec& r) { return !r.traced && r.op == "solve"; };

  Sheet& s = out_.sheet;
  s.add("obs.parse_ms", median(pick(traced_solve, [](const Rec& r) { return r.parse_ms; })), "ms", "parse_json of solve lines");
  s.add("obs.encode_ms", median(pick(traced_solve, [](const Rec& r) { return r.encode_ms; })), "ms", "JsonWriter of solve responses");
  s.add("obs.request_bytes", median(pick(any_solve, [](const Rec& r) { return r.request_bytes; })), "bytes", "solve request line");
  s.add("obs.response_bytes", median(pick(any_solve, [](const Rec& r) { return r.response_bytes; })), "bytes", "solve response line");
  s.add("serve.submit_ms", median(pick(any_solve, [](const Rec& r) { return r.submit_ms; }, true)), "ms", "ServerCore::submit, solve");
  s.add("serve.step_ms", median(pick(any_solve, [](const Rec& r) { return r.step_ms; }, true)), "ms", "ServerCore::step, solve");
  s.add("snapshot.read_ms", median(read_ms_), "ms", "read_snapshot_file, n=" + std::to_string(read_ms_.size()));
  s.add("snapshot.fingerprint_ms", median(fingerprint_ms_), "ms", "graph_fingerprint, n=" + std::to_string(fingerprint_ms_.size()));
  const double lookups = static_cast<double>(delta.hits + delta.misses);
  s.add("cache.hit_ratio", lookups > 0 ? static_cast<double>(delta.hits) / lookups : 0.0, "ratio",
        std::to_string(delta.hits) + " hits / " + num(lookups) + " lookups in the stream");
  s.add("cache.evictions", static_cast<double>(delta.evictions), "count", "in the stream");
  const auto lookup = [](bool hit) {
    return [hit](const Rec& r) { return r.traced && r.op != "update" && r.hit == hit; };
  };
  const auto cache_ms = [](const Rec& r) { return r.cache_ms; };
  const std::vector<double> hits = pick(lookup(true), cache_ms);
  const std::vector<double> misses = pick(lookup(false), cache_ms);
  s.add("cache.hit_ms", median(hits), "ms", "get_or_build hits, n=" + std::to_string(hits.size()));
  s.add("cache.miss_ms", median(misses), "ms", "get_or_build misses, n=" + std::to_string(misses.size()));
  s.add("shard.overhead_ms", untraced.shard_overhead_ms, "ms", "untraced client phase: latency - setup - solve");
  s.add("shard.imbalance", untraced.shard_imbalance, "ratio", "max/mean requests per worker (stats)");
  s.add("shard.replications", untraced.shard_replications, "count", "router stats");
  s.add("partition.build_ms", median(build_ms_), "ms", "build_hierarchy probes, n=" + std::to_string(build_ms_.size()));
  s.add("partition.levels", median(levels_), "count", "contraction levels");
  s.add("partition.reduction", median(reduction_), "ratio", "per-level vertex shrink (n0/n_coarsest)^(1/levels)");
  s.add("precond.build_ms", median(precond_build_ms_), "ms", "MultilevelSteinerSolver::build probes");
  const std::vector<double> vc = pick(any_solve, [](const Rec& r) { return r.vcycle_ms; });
  s.add("precond.vcycle_ms", median(vc), "ms", "apply, n=" + std::to_string(vc.size()));
  s.add("precond.block_col_ms", median(pick(batch, [](const Rec& r) { return r.block_col_ms; })), "ms", "apply_block k=8, per column");
  s.add("precond.vcycle_spmv_equiv", median(pick(any_solve, [](const Rec& r) { return r.vcycle_ms / r.spmv_ms; })), "ratio", "apply / laplacian_apply");
  s.add("precond.nnz_complexity", median(pick(any_solve, [](const Rec& r) { return r.nnz; })), "ratio", "Laplacian nnz over all levels / finest");
  s.add("precond.coarsest_share", median(pick(traced_solve, [](const Rec& r) { return r.coarsest_share; })), "ratio", "coarsest solve / whole V-cycle (cycle_stats)");
  s.add("la.pcg_iterations", median(pick(any_solve, [](const Rec& r) { return static_cast<double>(r.iterations); })), "count", "per solve");
  s.add("la.pcg_ms", median(pick(traced_solve, [](const Rec& r) { return r.pcg_ms; })), "ms", "LaplacianSolver::solve");
  s.add("la.vector_ms", median(pick(traced_solve, [](const Rec& r) { return r.pcg_ms - r.iterations * (r.vcycle_ms + r.spmv_ms); })), "ms", "pcg - iterations*(vcycle+spmv)");
  s.add("la.block_pcg_ms", median(pick(batch, [](const Rec& r) { return r.block_pcg_ms; })), "ms", "solve_batch k=8");
  s.add("graph.spmv_ms", median(pick(any_solve, [](const Rec& r) { return r.spmv_ms; })), "ms", "laplacian_apply");
  s.add("graph.spmv_block_col_ms", median(pick(batch, [](const Rec& r) { return r.spmv_block_col_ms; })), "ms", "laplacian_apply_block k=8, per column");
  s.add("graph.spmv_bytes", median(pick(any_solve, [](const Rec& r) { return r.bytes; })), "bytes", "computed from CSR sizes");
  const auto any_update = [](const Rec& r) { return r.op == "update"; };
  const std::vector<double> ups = pick(any_update, [](const Rec& r) { return r.repaired ? 1.0 : 0.0; });
  const std::vector<double> apply = pick(update, [](const Rec& r) { return r.apply_ms; });
  s.add("dynamic.apply_ms", median(apply), "ms", "apply_updates, n=" + std::to_string(apply.size()));
  s.add("dynamic.update_entry_ms", median(pick(update, [](const Rec& r) { return r.update_entry_ms; })), "ms", "HierarchyCache::update_entry");
  double repaired = 0.0;
  for (const double v : ups) repaired += v;
  s.add("dynamic.repaired_ratio", ups.empty() ? 0.0 : repaired / static_cast<double>(ups.size()), "ratio", "repaired / updates");
  s.add("dynamic.clusters_touched", median(pick(any_update, [](const Rec& r) { return r.clusters_touched; })), "count", "per update");
  // Each request's layer-path time is paired with its own ServerCore time,
  // which never carries spans, so the traced and untraced halves of the
  // stream compare like with like even when their request mixes differ.
  const auto excess = [](const Rec& r) { return r.total_ms - (r.submit_ms + r.step_ms); };
  const std::vector<double> on = pick(traced_solve, excess, true);
  const std::vector<double> off = pick(untraced_solve, excess, true);
  s.add("trace.overhead_ms", median(on) - median(off), "ms",
        "traced - untraced median solve (each less its ServerCore time), " +
            std::to_string(on.size()) + " vs " + std::to_string(off.size()));

  // Self time per layer over the traced request trees of the stream.
  int trees = 0;
  const auto self = tr_.self_ms_by_layer("request", 1, stream_end_id, &trees);
  double total = 0.0;
  for (const auto& [layer, ms] : self) total += ms;
  for (const auto& [layer, ms] : self) {
    s.add("self." + layer + "_ms", trees > 0 ? ms / trees : 0.0, "ms",
          "per traced request, " + num(100.0 * ms / total).substr(0, 5) + "% of request time");
  }
  write_file(paths_.work_dir + "/spans.jsonl", tr_.to_jsonl());
  return std::move(out_);
}

}  // namespace

ReplayOutcome run_replay(Workload w, std::uint64_t seed, double seconds,
                         const Inputs& inputs, const RunPaths& paths,
                         const ClientOutcome& untraced) {
  Replay r(w, seed, seconds, inputs, paths);
  return r.go(untraced);
}

}  // namespace perfbench
