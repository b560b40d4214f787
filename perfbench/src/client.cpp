#include "client.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "hicond/obs/json.hpp"
#include "hicond/serve/snapshot.hpp"
#include "service.hpp"

namespace perfbench {

namespace {

using hicond::obs::JsonValue;

constexpr int kSetups = 5;
/// Slack on the independent residual check: PCG's reported residual is the
/// recursively updated one, which may drift slightly from ||L x - b||.
constexpr double kResidualSlack = 10.0;
constexpr int kVerifySolves = 6;
constexpr int kVerifyBatches = 2;
/// edit_solve reads the services' VmHWM after this many steps. hicond_serve
/// keeps every graph an update produced, so memory grows with the step count;
/// a fixed count makes the reading independent of throughput. Every run
/// reaches it: steps after the timed window are not timed.
constexpr std::size_t kEditRssSteps = 40;

const JsonValue* at_path(const JsonValue& v,
                         std::initializer_list<const char*> keys) {
  const JsonValue* cur = &v;
  for (const char* k : keys) {
    cur = cur->find(k);
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

double number_at(const JsonValue& v, std::initializer_list<const char*> keys) {
  const JsonValue* x = at_path(v, keys);
  return x != nullptr && x->is_number() ? x->number : std::nan("");
}

bool true_at(const JsonValue& v, const char* key) {
  const JsonValue* x = v.find(key);
  return x != nullptr && x->kind == JsonValue::Kind::boolean && x->boolean;
}

std::string string_at(const JsonValue& v, const char* key) {
  const JsonValue* x = v.find(key);
  return x != nullptr && x->is_string() ? x->string : std::string();
}

std::int64_t id_of(const std::string& line) {
  const std::size_t p = line.find("\"id\":");
  return p == std::string::npos ? -1 : std::strtoll(line.c_str() + p + 5, nullptr, 10);
}

/// Decoded numeric array (returns false when not an array of numbers).
bool numbers_of(const JsonValue* v, std::vector<double>& out) {
  if (v == nullptr || !v->is_array()) return false;
  out.clear();
  out.reserve(v->array.size());
  for (const JsonValue& e : v->array) {
    if (!e.is_number()) return false;
    out.push_back(e.number);
  }
  return true;
}

class Run {
 public:
  Run(Workload w, std::uint64_t seed, double seconds, const Inputs& inputs,
      const RunPaths& paths)
      : w_(w), seed_(seed), seconds_(seconds), in_(inputs), paths_(paths),
        d_(deployment(w)) {}

  ClientOutcome go();

 private:
  void fail(const std::string& what) {
    ++out_.failed;
    if (out_.failures.size() < 8) out_.failures.push_back(what);
  }
  /// Parse a response and require ok:true; nullopt-like false on failure.
  bool parse_ok(const std::string& line, JsonValue& doc, const char* what);
  double deploy();
  void timed_seeded();
  void timed_edit();
  void verify_seeded();
  void read_counters();
  /// Summed VmHWM of the service processes in MiB (the router's workers are
  /// its extra_pids).
  double service_rss() const;

  Workload w_;
  std::uint64_t seed_;
  double seconds_;
  const Inputs& in_;
  const RunPaths& paths_;
  Deployment d_;
  ClientOutcome out_;
  std::unique_ptr<Service> svc_;
  std::vector<std::string> hex_;
  std::int64_t next_id_ = 1;

  // Timed-phase observations.
  std::vector<double> solve_ms_, batch_ms_, update_ms_;
  std::vector<double> overhead_ms_;
  double window_s_ = 0.0;
  std::int64_t rhs_done_ = 0;
  double peak_rss_ = 0.0;
  std::vector<double> iterations_;
  std::int64_t cache_hits_ = 0, solves_seen_ = 0;
  std::int64_t repaired_ = 0, updates_ = 0, large_ = 0;
  std::vector<double> clusters_touched_;
  std::map<std::string, int> decline_reasons_;
  std::map<std::string, int> backend_requests_;
  // Seeded streams: what was sent and what came back, for verification.
  std::vector<Request> stream_;
  std::vector<std::string> responses_;
  std::vector<double> sent_at_, received_at_;
  std::size_t sent_count_ = 0;
};

bool Run::parse_ok(const std::string& line, JsonValue& doc, const char* what) {
  try {
    doc = hicond::obs::parse_json(line);
  } catch (const std::exception& e) {
    fail(std::string(what) + ": unparsable response: " + e.what());
    return false;
  }
  if (!true_at(doc, "ok")) {
    fail(std::string(what) + ": " + line.substr(0, 300));
    return false;
  }
  return true;
}

double Run::deploy() {
  const double t0 = now_s();
  const std::string log = paths_.work_dir + "/service.log";
  hex_.clear();
  if (d_.workers == 0) {
    std::vector<std::string> argv = {paths_.bin_dir + "/hicond_serve"};
    svc_ = std::make_unique<Service>(argv, d_.solver_threads, paths_.work_dir, log);
    for (const GraphInput& g : in_.graphs) {
      JsonValue doc;
      const std::string r = svc_->call("{\"op\":\"load\",\"path\":\"" + g.file + "\"}");
      if (!parse_ok(r, doc, "load")) throw std::runtime_error("load failed: " + r);
      hex_.push_back(string_at(doc, "graph"));
      if (hex_.back() != hex16(g.fingerprint)) fail("load: fingerprint mismatch");
    }
    // The first cold solve builds the hierarchy the timed phase reuses.
    Request cold;
    cold.rhs_seed = mix_seed(seed_, 30) >> 12;
    JsonValue doc;
    const std::string r = svc_->call(request_line(cold, hex_[0], 0, false));
    ++out_.attempted;
    if (parse_ok(r, doc, "cold solve") &&
        (!true_at(doc, "converged") ||
         !(number_at(doc, {"final_relative_residual"}) <= kTolerance))) {
      fail("cold solve did not converge to tolerance");
    }
    return now_s() - t0;
  }
  std::vector<std::string> argv = {
      paths_.bin_dir + "/hicond_router", "--workers", std::to_string(d_.workers),
      "--socket-dir", ".", "--cache-bytes", std::to_string(in_.cache_bytes)};
  for (const GraphInput& g : in_.graphs) {
    argv.push_back("--preload");
    argv.push_back(g.file);
  }
  svc_ = std::make_unique<Service>(argv, d_.solver_threads, paths_.work_dir, log);
  JsonValue topo;
  const std::string t = svc_->call("{\"op\":\"topology\"}");
  if (!parse_ok(t, topo, "topology")) throw std::runtime_error("topology failed");
  if (const JsonValue* ws = topo.find("workers"); ws != nullptr && ws->is_array()) {
    for (const JsonValue& wk : ws->array) {
      svc_->extra_pids.push_back(static_cast<pid_t>(number_at(wk, {"pid"})));
    }
  }
  // Stats fan out behind the preloads on each worker's FIFO lane, so the
  // answer means every graph is loaded.
  JsonValue stats;
  const std::string s = svc_->call("{\"op\":\"stats\"}");
  if (!parse_ok(s, stats, "stats") ||
      number_at(stats, {"aggregate", "graphs_loaded"}) !=
          static_cast<double>(in_.graphs.size())) {
    throw std::runtime_error("router did not load every graph: " + s.substr(0, 300));
  }
  const double setup = now_s() - t0;
  std::map<std::string, int> primary;
  if (const JsonValue* gs = topo.find("graphs"); gs != nullptr && gs->is_array()) {
    for (const JsonValue& g : gs->array) {
      primary[string_at(g, "fingerprint")] = static_cast<int>(number_at(g, {"primary"}));
    }
  }
  for (const GraphInput& g : in_.graphs) {
    hex_.push_back(hex16(g.fingerprint));
    const auto it = primary.find(hex_.back());
    if (it == primary.end() || it->second != g.worker) {
      fail("router placed " + g.label + " away from its designated worker");
    }
  }
  return setup;
}

void Run::timed_seeded() {
  stream_ = seeded_stream(w_, seed_, kStreamLength);
  std::vector<std::string> lines;
  lines.reserve(stream_.size());
  for (std::size_t i = 0; i < stream_.size(); ++i) {
    lines.push_back(request_line(stream_[i], hex_[static_cast<std::size_t>(stream_[i].graph)],
                                 static_cast<std::int64_t>(i) + 1, false));
  }
  responses_.assign(stream_.size(), std::string());
  sent_at_.assign(stream_.size(), 0.0);
  received_at_.assign(stream_.size(), 0.0);
  std::size_t inflight = 0;
  const double start = now_s();
  double last = start;
  for (;;) {
    while (inflight < static_cast<std::size_t>(d_.in_flight) &&
           sent_count_ < stream_.size() && now_s() - start < seconds_) {
      sent_at_[sent_count_] = now_s();
      svc_->send(lines[sent_count_]);
      ++sent_count_;
      ++inflight;
    }
    if (inflight == 0) break;
    std::string line = svc_->receive();
    last = now_s();
    --inflight;
    // Stream request i carries id i + 1; the router may answer out of order.
    const std::int64_t id = id_of(line) - 1;
    if (id < 0 || static_cast<std::size_t>(id) >= sent_count_ ||
        !responses_[static_cast<std::size_t>(id)].empty()) {
      fail("response with an unknown id: " + line.substr(0, 200));
      continue;
    }
    received_at_[static_cast<std::size_t>(id)] = last;
    responses_[static_cast<std::size_t>(id)] = std::move(line);
  }
  window_s_ = last - start;

  // Checks and counters, outside the timed phase.
  for (std::size_t i = 0; i < sent_count_; ++i) {
    const Request& q = stream_[i];
    const bool batch = q.op == Request::Op::batch_solve;
    ++out_.attempted;
    ++backend_requests_[q.backend.empty() ? "fixed_degree" : q.backend];
    const double ms = 1000.0 * (received_at_[i] - sent_at_[i]);
    (batch ? batch_ms_ : solve_ms_).push_back(ms);
    JsonValue doc;
    if (responses_[i].empty()) {
      fail("no response to request " + std::to_string(i));
      continue;
    }
    if (!parse_ok(responses_[i], doc, batch ? "batch_solve" : "solve")) continue;
    const bool hit = true_at(doc, "cache_hit");
    if (!batch) {
      ++solves_seen_;
      cache_hits_ += hit ? 1 : 0;
      const double it = number_at(doc, {"iterations"});
      iterations_.push_back(it);
      overhead_ms_.push_back(ms - 1000.0 * (number_at(doc, {"setup_seconds"}) +
                                            number_at(doc, {"solve_seconds"})));
      if (!true_at(doc, "converged") ||
          !(number_at(doc, {"final_relative_residual"}) <= kTolerance) ||
          string_at(doc, "solution_fnv").size() != 16) {
        fail("solve " + std::to_string(i) + " did not converge to tolerance");
        continue;
      }
      ++rhs_done_;
      continue;
    }
    const JsonValue* conv = doc.find("converged");
    const JsonValue* fnv = doc.find("solution_fnv");
    std::vector<double> its;
    bool good = conv != nullptr && conv->is_array() &&
                conv->array.size() == kBatchColumns && fnv != nullptr &&
                fnv->is_array() && fnv->array.size() == kBatchColumns &&
                numbers_of(doc.find("iterations"), its) && its.size() == kBatchColumns;
    if (good) {
      for (const JsonValue& c : conv->array) {
        good = good && c.kind == JsonValue::Kind::boolean && c.boolean;
      }
    }
    if (!good) {
      fail("batch_solve " + std::to_string(i) + " has an unconverged column");
      continue;
    }
    iterations_.insert(iterations_.end(), its.begin(), its.end());
    rhs_done_ += kBatchColumns;
  }
}

void Run::timed_edit() {
  const hicond::Graph base = hicond::serve::read_snapshot_file(
      paths_.work_dir + "/" + in_.graphs[0].file);
  EditModel model(base, static_cast<int>(std::lround(std::sqrt(base.num_vertices()))),
                  seed_);
  std::string current = hex_[0];
  double busy = 0.0;
  std::vector<double> x;
  std::size_t steps = 0;
  while (busy < seconds_ || steps < kEditRssSteps) {
    if (steps == kEditRssSteps) peak_rss_ = service_rss();
    const bool timed = busy < seconds_;
    ++steps;
    const EditModel::Step step = model.next();
    const std::string up = EditModel::update_line(step, current, next_id_++);
    const std::string tail = EditModel::solve_tail(step.b);
    double t0 = now_s();
    const std::string ur = svc_->call(up);
    double t1 = now_s();
    if (timed) {
      busy += t1 - t0;
      update_ms_.push_back(1000.0 * (t1 - t0));
    }
    ++out_.attempted;
    ++updates_;
    large_ += step.large ? 1 : 0;
    JsonValue udoc;
    if (!parse_ok(ur, udoc, "update")) break;  // the edit chain is broken
    repaired_ += true_at(udoc, "repaired") ? 1 : 0;
    clusters_touched_.push_back(number_at(udoc, {"clusters_touched"}));
    const std::string reason = string_at(udoc, "decline_reason");
    ++decline_reasons_[std::string(step.large ? "large_" : "small_") +
                       (reason.empty() ? "repaired_or_cached" : reason)];
    current = string_at(udoc, "new_graph");
    if (current != hex16(model.fingerprint())) {
      fail("update: new_graph " + current + " differs from the benchmark's copy " +
           hex16(model.fingerprint()));
    }
    const std::string line = EditModel::solve_line(tail, current, next_id_++);
    t0 = now_s();
    const std::string sr = svc_->call(line);
    t1 = now_s();
    const double ms = 1000.0 * (t1 - t0);
    if (timed) {
      busy += t1 - t0;
      solve_ms_.push_back(ms);
    }
    ++out_.attempted;
    JsonValue doc;
    if (!parse_ok(sr, doc, "solve")) continue;
    ++solves_seen_;
    cache_hits_ += true_at(doc, "cache_hit") ? 1 : 0;
    iterations_.push_back(number_at(doc, {"iterations"}));
    overhead_ms_.push_back(ms - 1000.0 * (number_at(doc, {"setup_seconds"}) +
                                          number_at(doc, {"solve_seconds"})));
    if (!true_at(doc, "converged") ||
        !(number_at(doc, {"final_relative_residual"}) <= kTolerance) ||
        !numbers_of(doc.find("x"), x) || x.size() != step.b.size()) {
      fail("edit solve did not converge or returned no x");
      continue;
    }
    // x is finite: a non-finite entry arrives as null and numbers_of fails.
    double sum = 0.0, amax = 0.0;
    for (const double v : x) {
      sum += v;
      amax = std::max(amax, std::fabs(v));
    }
    const double rel = model.relative_residual(x, step.b);
    if (std::fabs(sum) / static_cast<double>(x.size()) > 1e-9 * amax ||
        !(rel <= kResidualSlack * kTolerance) ||
        hex16(vector_fnv(x)) != string_at(doc, "solution_fnv")) {
      fail("edit solve x fails the independent check (||Lx-b||/||b|| = " + num(rel) + ")");
      continue;
    }
    if (timed) ++rhs_done_;
  }
  if (steps == kEditRssSteps) peak_rss_ = service_rss();
  window_s_ = busy;
}

void Run::verify_seeded() {
  // Re-issue an evenly spaced sample of the timed requests with return_x and
  // compare the returned x with the timed answer's solution_fnv.
  std::vector<std::size_t> solves, batches;
  for (std::size_t i = 0; i < sent_count_; ++i) {
    (stream_[i].op == Request::Op::solve ? solves : batches).push_back(i);
  }
  std::vector<std::size_t> sample;
  const auto take = [&sample](const std::vector<std::size_t>& from, int k) {
    for (int j = 0; j < k && !from.empty(); ++j) {
      const std::size_t pick = from[from.size() * static_cast<std::size_t>(j) /
                                    static_cast<std::size_t>(k)];
      if (std::find(sample.begin(), sample.end(), pick) == sample.end()) {
        sample.push_back(pick);
      }
    }
  };
  take(solves, kVerifySolves);
  take(batches, kVerifyBatches);
  std::vector<double> x;
  for (const std::size_t i : sample) {
    JsonValue timed;
    try {
      timed = hicond::obs::parse_json(responses_[i]);
    } catch (const std::exception&) {
      continue;  // already counted as failed
    }
    const Request& q = stream_[i];
    const std::size_t n = static_cast<std::size_t>(in_.graphs[static_cast<std::size_t>(q.graph)].n);
    ++out_.attempted;
    JsonValue doc;
    const std::string r = svc_->call(
        request_line(q, hex_[static_cast<std::size_t>(q.graph)], next_id_++ + 1000000, true));
    if (!parse_ok(r, doc, "verification")) continue;
    std::vector<std::string> want, got;
    if (q.op == Request::Op::solve) {
      want.push_back(string_at(timed, "solution_fnv"));
      if (numbers_of(doc.find("x"), x) && x.size() == n) got.push_back(hex16(vector_fnv(x)));
    } else {
      const JsonValue* f = timed.find("solution_fnv");
      const JsonValue* xs = doc.find("x");
      for (std::size_t j = 0; f != nullptr && f->is_array() && j < f->array.size(); ++j) {
        want.push_back(f->array[j].string);
        if (xs != nullptr && xs->is_array() && j < xs->array.size() &&
            numbers_of(&xs->array[j], x) && x.size() == n) {
          got.push_back(hex16(vector_fnv(x)));
        }
      }
    }
    // A non-finite entry is rendered as null, which numbers_of rejects, so a
    // column with one never hashes and fails here.
    if (want.empty() || want != got) {
      fail("verification of request " + std::to_string(i) +
           ": x does not hash to the timed solution_fnv");
    }
  }
}

double Run::service_rss() const {
  double rss = peak_rss_mib(svc_->pid());
  for (const pid_t p : svc_->extra_pids) rss += peak_rss_mib(p);
  return rss;
}

void Run::read_counters() {
  JsonValue stats;
  if (!parse_ok(svc_->call("{\"op\":\"stats\"}"), stats, "stats")) return;
  const bool routed = d_.workers > 0;
  const JsonValue* aggregate = routed ? stats.find("aggregate") : &stats;
  if (aggregate == nullptr) {
    fail("stats: no aggregate document");
    return;
  }
  const JsonValue& cache_root = *aggregate;
  Sheet& s = out_.sheet;
  s.add("counter.cache_hits", number_at(cache_root, {"cache", "hits"}), "count", "service stats, whole run");
  s.add("counter.cache_misses", number_at(cache_root, {"cache", "misses"}), "count", "service stats, whole run");
  s.add("counter.cache_evictions", number_at(cache_root, {"cache", "evictions"}), "count", "service stats, whole run");
  std::vector<double> per_worker;
  std::vector<double> entry_bytes;
  const auto collect_entries = [&entry_bytes](const JsonValue& doc) {
    if (const JsonValue* pe = at_path(doc, {"cache", "per_entry"}); pe != nullptr && pe->is_array()) {
      for (const JsonValue& e : pe->array) entry_bytes.push_back(number_at(e, {"bytes"}));
    }
  };
  if (routed) {
    out_.shard_replications = number_at(stats, {"router", "replications"});
    if (const JsonValue* pw = stats.find("per_worker"); pw != nullptr && pw->is_array()) {
      for (const JsonValue& wk : pw->array) {
        per_worker.push_back(number_at(wk, {"stats", "requests"}));
        if (const JsonValue* ws = wk.find("stats")) collect_entries(*ws);
      }
    }
    double sum = 0.0;
    for (const double v : per_worker) sum += v;
    out_.shard_imbalance = per_worker.empty() || sum <= 0.0
        ? 1.0
        : *std::max_element(per_worker.begin(), per_worker.end()) /
              (sum / static_cast<double>(per_worker.size()));
    for (std::size_t i = 0; i < per_worker.size(); ++i) {
      s.add("counter.worker" + std::to_string(i) + "_requests", per_worker[i], "count", "service stats");
    }
    s.add("counter.router_replications", out_.shard_replications, "count", "router stats");
  } else {
    collect_entries(stats);
  }
  double resident = 0.0;
  for (const double b : entry_bytes) resident += b;
  s.add("context.hierarchy_mib", entry_bytes.empty() ? 0.0 : median(entry_bytes) / 1048576.0,
        "MiB", "median per_entry bytes of " + std::to_string(entry_bytes.size()) + " resident hierarchies");
  s.add("context.resident_cache_mib", resident / 1048576.0, "MiB", "sum of per_entry bytes");
}

ClientOutcome Run::go() {
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    if (svc_) {
      if (!svc_->shutdown()) fail("service did not shut down cleanly");
      svc_.reset();
    }
    setups.push_back(deploy());
  }
  if (w_ == Workload::edit_solve) {
    timed_edit();
  } else {
    timed_seeded();
  }
  // Read before verification, whose return_x answers are not part of the
  // timed workload; edit_solve has read it at a fixed step.
  if (w_ != Workload::edit_solve) peak_rss_ = service_rss();
  read_counters();
  if (w_ != Workload::edit_solve) verify_seeded();
  if (!svc_->shutdown()) fail("service did not shut down cleanly");
  svc_.reset();

  ClientOutcome result = std::move(out_);
  Sheet e2e;
  e2e.add("setup_s", median(setups), "s",
          "median of " + std::to_string(kSetups) + " deployments");
  e2e.add_latency("solve", solve_ms_);
  if (w_ == Workload::warm_seeded) e2e.add_latency("batch", batch_ms_);
  if (w_ == Workload::edit_solve) e2e.add_latency("update", update_ms_);
  e2e.add("rhs_per_s", window_s_ > 0 ? static_cast<double>(rhs_done_) / window_s_ : 0.0,
          "1/s",
          std::to_string(rhs_done_) + " columns in " + num(window_s_).substr(0, 6) + " s");
  e2e.add("failed_ratio",
          result.attempted > 0 ? static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted)
                               : 1.0,
          "ratio", std::to_string(result.failed) + "/" + std::to_string(result.attempted));
  e2e.add("peak_rss_mb", peak_rss_, "MiB",
          w_ == Workload::edit_solve
              ? "summed VmHWM of the service processes after " + std::to_string(kEditRssSteps) + " steps"
              : "summed VmHWM of the service processes");
  e2e.add("counter.iterations_p50", median(iterations_), "count",
          "PCG iterations per column, n=" + std::to_string(iterations_.size()));
  e2e.add("counter.solve_cache_hits", static_cast<double>(cache_hits_), "count",
          "of " + std::to_string(solves_seen_) + " timed solves");
  for (const auto& [backend, count] : backend_requests_) {
    e2e.add("counter.requests_" + backend, count, "count", "timed requests naming it");
  }
  if (w_ == Workload::edit_solve) {
    e2e.add("counter.updates_repaired", static_cast<double>(repaired_), "count",
            "of " + std::to_string(updates_) + " updates (" + std::to_string(large_) + " large)");
    e2e.add("counter.clusters_touched_p50", median(clusters_touched_), "count", "per update");
    for (const auto& [reason, count] : decline_reasons_) {
      e2e.add("counter.updates_" + reason, count, "count", "batch size and decline_reason");
    }
  }
  e2e.add("counter.shard_overhead_ms", median(overhead_ms_), "ms",
          "median client latency minus reported setup+solve seconds");
  result.shard_overhead_ms = median(overhead_ms_);
  // End-to-end metrics first, then the services' counters.
  Sheet merged = e2e;
  merged.append(result.sheet);
  result.sheet = std::move(merged);
  return result;
}

}  // namespace

ClientOutcome run_client(Workload w, std::uint64_t seed, double seconds,
                         const Inputs& inputs, const RunPaths& paths) {
  Run run(w, seed, seconds, inputs, paths);
  return run.go();
}

}  // namespace perfbench
