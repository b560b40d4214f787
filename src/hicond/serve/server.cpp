#include "hicond/serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hicond/dynamic/update.hpp"
#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/io.hpp"
#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/json.hpp"
#include "hicond/obs/metrics.hpp"
#include "hicond/partition/backends/backend.hpp"
#include "hicond/serve/batch.hpp"
#include "hicond/serve/snapshot.hpp"
#include "hicond/serve/wire.hpp"
#include "hicond/util/rng.hpp"
#include "hicond/util/unique_fd.hpp"

namespace hicond::serve {

namespace {

std::string error_response(std::int64_t id, std::string_view code,
                           std::string_view message) {
  obs::JsonWriter w;
  w.begin_object();
  if (id >= 0) {
    w.kv("id", id);
  }
  w.kv("ok", false);
  w.kv("error", code);
  w.kv("message", message);
  w.end_object();
  return w.str();
}

double number_or(const obs::JsonValue& object, std::string_view name,
                 double fallback) {
  const obs::JsonValue* v = object.find(name);
  if (v == nullptr) {
    return fallback;
  }
  HICOND_CHECK(v->is_number(), "request field must be a number");
  return v->number;
}

bool bool_or(const obs::JsonValue& object, std::string_view name,
             bool fallback) {
  const obs::JsonValue* v = object.find(name);
  if (v == nullptr) {
    return fallback;
  }
  HICOND_CHECK(v->kind == obs::JsonValue::Kind::boolean,
               "request field must be a boolean");
  return v->boolean;
}

std::vector<double> parse_vector(const obs::JsonValue& v, std::size_t n) {
  HICOND_CHECK(v.is_array(), "right-hand side must be a JSON array");
  HICOND_CHECK(v.array.size() == n,
               "right-hand side length does not match the graph");
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    HICOND_CHECK(v.array[i].is_number(), "right-hand side entries "
                                         "must be numbers");
    out[i] = v.array[i].number;
  }
  return out;
}

/// Server-side RHS generation: mean-free uniform noise from a caller seed.
/// The same (seed, n) always yields the same bit-exact vector, so scripted
/// sessions can compare solution fingerprints without shipping vectors.
std::vector<double> random_rhs(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.uniform(-1.0, 1.0);
  }
  la::remove_mean(b);
  return b;
}

void write_solve_summary(obs::JsonWriter& w, const SolveStats& stats) {
  w.kv("iterations", stats.iterations);
  w.kv("converged", stats.converged);
  w.kv("final_relative_residual", stats.final_relative_residual);
}

}  // namespace

ServerCore::ServerCore(const ServerOptions& options)
    : options_(options), cache_(options.cache_bytes) {
  HICOND_CHECK(options.queue_capacity >= 1,
               "server queue capacity must be at least 1");
}

std::optional<std::string> ServerCore::submit(const std::string& line) {
  ++requests_;
  obs::MetricsRegistry::global().counter_add("serve.server.requests");
  std::int64_t id = -1;
  double deadline_ms =
      options_.default_deadline_ms > 0.0 ? options_.default_deadline_ms : -1.0;
  obs::JsonValue request;
  try {
    request = obs::parse_json(line);
    HICOND_CHECK(request.is_object(), "request must be a JSON object");
    if (const obs::JsonValue* idv = request.find("id");
        idv != nullptr && idv->is_number()) {
      id = static_cast<std::int64_t>(idv->number);
    }
    const obs::JsonValue* op = request.find("op");
    HICOND_CHECK(op != nullptr && op->is_string(),
                 "request needs a string \"op\" field");
    if (op->string != "load" && op->string != "solve" &&
        op->string != "batch_solve" && op->string != "update" &&
        op->string != "stats" && op->string != "shutdown") {
      return error_response(id, "unknown_op",
                            "unsupported op: " + op->string);
    }
    if (const obs::JsonValue* dl = request.find("deadline_ms");
        dl != nullptr) {
      HICOND_CHECK(dl->is_number(), "deadline_ms must be a number");
      deadline_ms = dl->number;
    }
  } catch (const std::exception& e) {
    return error_response(id, "parse_error", e.what());
  }
  if (queue_.size() >= options_.queue_capacity) {
    ++shed_;
    obs::MetricsRegistry::global().counter_add("serve.server.shed");
    return error_response(id, "queue_full",
                          "request queue is at capacity; retry later");
  }
  queue_.push_back(Pending{std::move(request), Timer{}, deadline_ms, id});
  return std::nullopt;
}

std::optional<std::string> ServerCore::step() {
  if (queue_.empty()) {
    return std::nullopt;
  }
  Pending pending = std::move(queue_.front());
  queue_.pop_front();
  const Timer request_timer;
  std::string response;
  try {
    response = process(pending);
  } catch (const std::exception& e) {
    response = error_response(pending.id, "bad_request", e.what());
  }
  obs::MetricsRegistry::global().histogram_record(
      "serve.server.request_seconds", request_timer.seconds());
  return response;
}

std::string ServerCore::process(const Pending& pending) {
  const auto expired = [&pending]() {
    return pending.deadline_ms >= 0.0 &&
           pending.since_submit.seconds() * 1000.0 > pending.deadline_ms;
  };
  if (expired()) {
    return error_response(pending.id, "deadline_exceeded",
                          "deadline expired before processing began");
  }
  const obs::JsonValue& request = pending.request;
  const std::string& op = request.at("op").string;

  obs::JsonWriter w;
  w.begin_object();
  if (pending.id >= 0) {
    w.kv("id", pending.id);
  }

  if (op == "load") {
    const obs::JsonValue& path = request.at("path");
    HICOND_CHECK(path.is_string(), "load needs a string \"path\"");
    Graph g = read_graph_auto(path.string);
    const std::uint64_t fp = graph_fingerprint(g);
    const auto n = g.num_vertices();
    const auto arcs = g.num_arcs();
    graphs_[fp] = std::make_shared<const Graph>(std::move(g));
    w.kv("ok", true);
    w.kv("op", op);
    w.kv("graph", fingerprint_hex(fp));
    w.kv("n", static_cast<std::int64_t>(n));
    w.kv("arcs", static_cast<std::int64_t>(arcs));
    w.end_object();
    return w.str();
  }

  if (op == "stats") {
    const HierarchyCache::Stats cs = cache_.stats();
    w.kv("ok", true);
    w.kv("op", op);
    w.key("cache");
    w.begin_object();
    w.kv("hits", cs.hits);
    w.kv("misses", cs.misses);
    w.kv("evictions", cs.evictions);
    w.kv("entries", cs.entries);
    w.kv("bytes", cs.bytes);
    w.kv("budget_bytes", cs.budget_bytes);
    w.kv("ticks", cs.ticks);
    // Per-entry usage, most recently used first: the hot-set signal a
    // router consumes to decide which fingerprints to replicate.
    w.key("per_entry");
    w.begin_array();
    for (const HierarchyCache::EntryStats& e : cs.per_entry) {
      w.begin_object();
      w.kv("fingerprint", fingerprint_hex(e.fingerprint));
      w.kv("hits", e.hits);
      w.kv("last_use", e.last_use);
      w.kv("bytes", e.bytes);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    w.kv("graphs_loaded", graphs_.size());
    w.kv("queue_depth", queue_.size());
    w.kv("requests", requests_);
    w.kv("shed", shed_);
    w.end_object();
    return w.str();
  }

  if (op == "shutdown") {
    shutdown_ = true;
    w.kv("ok", true);
    w.kv("op", op);
    w.kv("drained", true);
    w.end_object();
    return w.str();
  }

  // solve / batch_solve / update share graph resolution and option
  // overrides.
  const obs::JsonValue& graph_field = request.at("graph");
  HICOND_CHECK(graph_field.is_string(),
               "request needs a string \"graph\" fingerprint");
  const std::uint64_t fp = parse_fingerprint(graph_field.string);
  const auto git = graphs_.find(fp);
  if (git == graphs_.end()) {
    return error_response(pending.id, "not_found",
                          "graph " + graph_field.string +
                              " has not been loaded");
  }
  const Graph& graph = *git->second;
  const auto n = static_cast<std::size_t>(graph.num_vertices());

  LaplacianSolverOptions solver_options = options_.solver;
  solver_options.rel_tolerance =
      number_or(request, "rel_tolerance", solver_options.rel_tolerance);
  solver_options.max_iterations = static_cast<int>(number_or(
      request, "max_iterations",
      static_cast<double>(solver_options.max_iterations)));
  // Per-request contraction backend: the name becomes part of the canonical
  // options, so solves against different backends get distinct cache
  // entries. An unregistered name is rejected before any build starts.
  if (const obs::JsonValue* bk = request.find("backend"); bk != nullptr) {
    HICOND_CHECK(bk->is_string(), "backend must be a string");
    if (partition::find_backend(bk->string) == nullptr) {
      return error_response(pending.id, "unknown_backend",
                            "no registered partitioner backend named \"" +
                                bk->string + "\"");
    }
    solver_options.hierarchy.contraction.backend = bk->string;
  }
  if (const obs::JsonValue* bo = request.find("backend_options");
      bo != nullptr) {
    HICOND_CHECK(bo->is_object(), "backend_options must be an object");
    partition::BackendOptions& c = solver_options.hierarchy.contraction;
    c.max_cluster_size = static_cast<vidx>(
        number_or(*bo, "max_cluster_size",
                  static_cast<double>(c.max_cluster_size)));
    c.seed = static_cast<std::uint64_t>(
        number_or(*bo, "seed", static_cast<double>(c.seed)));
    c.perturb = bool_or(*bo, "perturb", c.perturb);
    c.resolution = number_or(*bo, "resolution", c.resolution);
    c.rounds =
        static_cast<int>(number_or(*bo, "rounds",
                                   static_cast<double>(c.rounds)));
    c.beta = number_or(*bo, "beta", c.beta);
  }

  if (op == "update") {
    // A wire-supplied batch length is untrusted; cap it before parsing
    // allocates (same discipline as rhs_random.count below).
    constexpr std::uint64_t kMaxUpdates = std::uint64_t{1} << 20;
    const std::vector<dynamic::EdgeUpdate> updates =
        dynamic::parse_updates(request.at("updates"), kMaxUpdates);
    std::string mode = "auto";
    if (const obs::JsonValue* mv = request.find("mode"); mv != nullptr) {
      HICOND_CHECK(mv->is_string(), "update mode must be a string");
      mode = mv->string;
      HICOND_CHECK(mode == "auto" || mode == "rebuild",
                   "update mode must be \"auto\" or \"rebuild\"");
    }
    Graph new_graph = dynamic::apply_updates(graph, updates);
    const std::uint64_t new_fp = graph_fingerprint(new_graph);
    const auto new_n = static_cast<std::int64_t>(new_graph.num_vertices());
    const auto new_arcs = static_cast<std::int64_t>(new_graph.num_arcs());
    if (new_fp == fp) {
      // Net no-op batch: canonical form is unchanged, so the fingerprint is
      // too; nothing is registered or built.
      w.kv("ok", true);
      w.kv("op", op);
      w.kv("graph", graph_field.string);
      w.kv("new_graph", graph_field.string);
      w.kv("unchanged", true);
      w.kv("n", new_n);
      w.kv("arcs", new_arcs);
      w.end_object();
      return w.str();
    }
    if (!is_connected(new_graph)) {
      // Reject before registering anything: a disconnected graph cannot be
      // served (LaplacianSolver requires connectivity), so the update must
      // not land partially.
      return error_response(pending.id, "disconnected",
                            "update would disconnect the graph; no state "
                            "was changed");
    }
    // emplace keeps an existing registration (a retried update), so the
    // shared_ptr handed to earlier solves stays valid.
    const auto [new_git, inserted] = graphs_.emplace(
        new_fp, std::make_shared<const Graph>(std::move(new_graph)));
    static_cast<void>(inserted);
    const HierarchyCache::UpdateOutcome outcome = cache_.update_entry(
        fp, new_fp, *new_git->second, updates, solver_options, {},
        /*allow_repair=*/mode != "rebuild");
    if (expired()) {
      // The repaired/rebuilt entry stays cached for later requests, but
      // this response is shed.
      return error_response(pending.id, "deadline_exceeded",
                            "deadline expired during update build");
    }
    w.kv("ok", true);
    w.kv("op", op);
    w.kv("graph", graph_field.string);
    w.kv("new_graph", fingerprint_hex(new_fp));
    w.kv("unchanged", false);
    w.kv("n", new_n);
    w.kv("arcs", new_arcs);
    w.kv("repaired", outcome.repaired);
    w.kv("already_cached", outcome.already_cached);
    w.kv("upper_rebuilt", outcome.upper_rebuilt);
    w.kv("clusters_touched",
         static_cast<std::int64_t>(outcome.clusters_touched));
    w.kv("clusters_dirty", static_cast<std::int64_t>(outcome.clusters_dirty));
    w.kv("decline_reason", outcome.decline_reason);
    w.kv("setup_seconds", outcome.build_seconds);
    w.end_object();
    return w.str();
  }

  const HierarchyCache::Lookup lookup =
      cache_.get_or_build(fp, graph, solver_options);
  if (expired()) {
    // The hierarchy stays cached for later requests, but this one is shed
    // before any solve work happens.
    return error_response(pending.id, "deadline_exceeded",
                          "deadline expired during solver setup");
  }
  const bool return_x = bool_or(request, "return_x", false);

  if (op == "solve") {
    std::vector<double> b;
    if (const obs::JsonValue* bv = request.find("b"); bv != nullptr) {
      b = parse_vector(*bv, n);
    } else {
      const obs::JsonValue& seed = request.at("rhs_seed");
      HICOND_CHECK(seed.is_number(), "rhs_seed must be a number");
      b = random_rhs(static_cast<std::uint64_t>(seed.number), n);
    }
    std::vector<double> x(n, 0.0);
    const Timer solve_timer;
    const SolveStats stats = lookup.solver->solve(b, x);
    const double solve_seconds = solve_timer.seconds();
    w.kv("ok", true);
    w.kv("op", op);
    w.kv("graph", graph_field.string);
    w.kv("cache_hit", lookup.hit);
    w.kv("backend", solver_options.hierarchy.contraction.backend);
    w.kv("setup_seconds", lookup.build_seconds);
    w.kv("solve_seconds", solve_seconds);
    write_solve_summary(w, stats);
    w.kv("solution_fnv", fingerprint_hex(solution_fingerprint(x)));
    if (return_x) {
      w.key("x");
      w.begin_array();
      for (const double xi : x) {
        w.value(xi);
      }
      w.end_array();
    }
    w.end_object();
    return w.str();
  }

  // op == "batch_solve"
  std::vector<std::vector<double>> rhs;
  if (const obs::JsonValue* rv = request.find("rhs"); rv != nullptr) {
    HICOND_CHECK(rv->is_array(), "rhs must be an array of arrays");
    rhs.reserve(rv->array.size());
    for (const obs::JsonValue& column : rv->array) {
      rhs.push_back(parse_vector(column, n));
    }
  } else {
    const obs::JsonValue& spec = request.at("rhs_random");
    HICOND_CHECK(spec.is_object(),
                 "rhs_random must be an object {count, seed}");
    const auto count = static_cast<std::int64_t>(number_or(spec, "count", 1.0));
    const auto seed =
        static_cast<std::uint64_t>(number_or(spec, "seed", 0.0));
    HICOND_CHECK(count >= 1, "rhs_random.count must be at least 1");
    // A wire-supplied count is untrusted: without the upper cap a hostile
    // {"count": 2e9} forces a multi-GB allocation before any solve runs.
    constexpr std::uint64_t kMaxRandomRhs = 4096;
    const std::size_t columns = checked_size(
        static_cast<std::uint64_t>(count), kMaxRandomRhs, "rhs_random.count");
    rhs.reserve(columns);
    for (std::size_t j = 0; j < columns; ++j) {
      rhs.push_back(random_rhs(seed + static_cast<std::uint64_t>(j), n));
    }
  }
  HICOND_CHECK(!rhs.empty(), "batch_solve needs at least one rhs");

  const BatchSolveResult batch = serve::batch_solve(*lookup.solver, rhs);
  w.kv("ok", true);
  w.kv("op", op);
  w.kv("graph", graph_field.string);
  w.kv("cache_hit", lookup.hit);
  w.kv("backend", solver_options.hierarchy.contraction.backend);
  w.kv("setup_seconds", lookup.build_seconds);
  w.kv("solve_seconds", batch.solve_seconds);
  w.kv("k", static_cast<std::int64_t>(rhs.size()));
  w.key("iterations");
  w.begin_array();
  for (const SolveStats& s : batch.stats) {
    w.value(s.iterations);
  }
  w.end_array();
  w.key("converged");
  w.begin_array();
  for (const SolveStats& s : batch.stats) {
    w.value(s.converged);
  }
  w.end_array();
  w.key("solution_fnv");
  w.begin_array();
  for (const std::uint64_t h : batch.solution_hash) {
    w.value(fingerprint_hex(h));
  }
  w.end_array();
  if (return_x) {
    w.key("x");
    w.begin_array();
    for (const std::vector<double>& column : batch.x) {
      w.begin_array();
      for (const double xi : column) {
        w.value(xi);
      }
      w.end_array();
    }
    w.end_array();
  }
  w.end_object();
  return w.str();
}

void serve_connection(ServerCore& core, int in_fd, int out_fd) {
  // Both directions go through the shared wire helpers, which absorb EINTR
  // and short reads/writes in one audited place (serve/wire.hpp).
  wire::LineBuffer buffer;
  std::string line;
  // Answers one request line; false once the loop must stop (a write
  // failed, or a shutdown request has been executed).
  const auto answer = [&core, out_fd](const std::string& request) {
    if (request.empty()) {
      return true;
    }
    if (auto immediate = core.submit(request)) {
      return wire::write_line(out_fd, *immediate);
    }
    while (auto response = core.step()) {
      if (!wire::write_line(out_fd, *response)) {
        return false;
      }
    }
    return !core.shutting_down();
  };
  for (;;) {
    const wire::ReadStatus status = wire::read_into(in_fd, buffer);
    if (status != wire::ReadStatus::data) {
      if (status == wire::ReadStatus::eof && buffer.take_rest(line)) {
        static_cast<void>(answer(line));
      }
      return;
    }
    while (buffer.next_line(line)) {
      if (!answer(line)) {
        return;
      }
    }
  }
}

int serve_unix_socket(ServerCore& core, const std::string& path) {
  sockaddr_un addr{};
  HICOND_CHECK(path.size() < sizeof addr.sun_path,
               "unix socket path is too long");
  const unique_fd listener(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  HICOND_CHECK(static_cast<bool>(listener), "failed to create unix socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  HICOND_CHECK(::bind(listener.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0 &&
                   ::listen(listener.get(), 8) == 0,
               "failed to bind/listen on unix socket path");
  while (!core.shutting_down()) {
    const unique_fd fd(::accept(listener.get(), nullptr, nullptr));
    if (!fd) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    // unique_fd closes the connection even when serve_connection throws
    // (a malformed request reaching a HICOND_CHECK used to leak it here).
    serve_connection(core, fd.get(), fd.get());
  }
  ::unlink(path.c_str());
  return 0;
}

}  // namespace hicond::serve
