#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>

#include "hicond/graph/connectivity.hpp"
#include "hicond/graph/generators.hpp"
#include "hicond/serve/snapshot.hpp"

namespace perfbench {

namespace gen = hicond::gen;

Workload parse_workload(const std::string& name) {
  for (Workload w : {Workload::warm_seeded, Workload::edit_solve,
                     Workload::churn_routed}) {
    if (name == workload_name(w)) {
      return w;
    }
  }
  throw std::runtime_error("unknown workload: " + name);
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::warm_seeded: return "warm_seeded";
    case Workload::edit_solve: return "edit_solve";
    case Workload::churn_routed: return "churn_routed";
  }
  return "?";
}

Deployment deployment(Workload w) {
  switch (w) {
    case Workload::warm_seeded: return {4, 0, 1};
    case Workload::edit_solve: return {1, 0, 1};
    case Workload::churn_routed: return {2, 2, 2};
  }
  return {1, 0, 1};
}

namespace {

constexpr int kWarmSide = 40;   // grid3d 40^3: 64k vertices
constexpr int kEditSide = 200;  // grid2d 200^2: 40k vertices
constexpr int kWarmSolvesPerBatch = 6;

// churn_routed: graph index == Zipf popularity rank - 1. Families and sizes
// are interleaved over the ranks so hot and cold graphs mix small and large;
// `worker` snakes 0,1,1,0,... so each worker holds six graphs. The content
// seeds are fixed: they are the first seeds of
// mix_seed(20261017, 1000 + 100 * index + attempt) >> 12 whose graph is
// connected and placed on `worker` by the router's hash ring, as picked once
// when the table was written. The graphs therefore do not depend on --seed or
// on the code under test; deploy() checks that the router still places each
// graph on its worker.
struct ChurnSlot {
  const char* family;
  int size;
  int worker;
  std::uint64_t content_seed;
};
constexpr ChurnSlot kChurnSlots[] = {
    {"grid3d", 38, 0, 0x7c397c1267d93},     {"planar", 25000, 1, 0xd3323493d592b},
    {"oct", 38, 1, 0xe18f69c7e1ee3},        {"grid2d", 150, 0, 0x8663ee06b4d4},
    {"regular", 55000, 0, 0xcc7452eb66f84}, {"tree", 25000, 1, 0xc4ee0c9ef1037},
    {"grid2d", 240, 1, 0x9d80432f84ba5},    {"oct", 28, 0, 0x56e0d12013034},
    {"planar", 55000, 0, 0x19caf164e6fc7},  {"grid3d", 28, 1, 0x85fcf0aa273ac},
    {"tree", 55000, 1, 0xfc8a5d2f972bd},    {"regular", 25000, 0, 0x8e8d9f90c34b8}};
// Per-worker --cache-bytes: a third of the smaller worker's total of default
// hierarchies (approx_solver_bytes: 58.2 MB on worker 0, 47.8 MB on worker 1
// when the table was written). A constant, so a change to the hierarchies
// moves the hit ratio instead of the budget.
constexpr std::size_t kChurnCacheBytes = 16'000'000;

// One Zipf(1) block of 26 requests: rank r gets about 8/r of them. The block
// is shuffled per seed, so every block sends the same mix in its own order.
constexpr int kChurnBlock[] = {8, 4, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1};
// The first request of ranks 1, 2, 3 and 6 in each block names an
// alternative backend (4 of 26, about one in six); nullptr for the default.
// lowdiam on a tree takes 700-900 PCG iterations (0.6 s and more per solve):
// once per block it would set the tail on its own, so tree-25000 runs on it
// in every fourth block and shows about twice per run: too rare for the tail,
// its time counts in rhs_per_s (columns over the whole window).
const char* alternative_backend(int rank, std::size_t block) {
  switch (rank) {
    case 1: return "louvain";  // grid3d-38^3
    case 2: return "lowdiam";  // planar-25000
    case 3: return "louvain";  // oct-38^3
    case 6: return block % 4 == 0 ? "lowdiam" : "louvain";  // tree-25000
    default: return nullptr;
  }
}

hicond::Graph make_graph(const std::string& family, int size,
                         std::uint64_t seed) {
  const auto u12 = gen::WeightSpec::uniform(1.0, 2.0);
  const auto u14 = gen::WeightSpec::uniform(1.0, 4.0);
  if (family == "grid2d") return gen::grid2d(size, size, u12, seed);
  if (family == "grid3d") return gen::grid3d(size, size, size, u12, seed);
  if (family == "oct") return gen::oct_volume(size, size, size, {}, seed);
  if (family == "planar") return gen::random_planar_triangulation(size, u14, seed);
  if (family == "tree") return gen::random_tree(size, u14, seed);
  if (family == "regular") return gen::random_regular(size, 4, u12, seed);
  throw std::runtime_error("unknown family " + family);
}

std::string label_of(const std::string& family, int size) {
  if (family == "grid2d") return family + "-" + std::to_string(size) + "^2";
  if (family == "grid3d" || family == "oct") {
    return family + "-" + std::to_string(size) + "^3";
  }
  return family + "-" + std::to_string(size);
}

GraphInput write_input(const hicond::Graph& g, const std::string& dir,
                       const std::string& file, const std::string& label) {
  hicond::serve::write_snapshot_file(dir + "/" + file, g);
  GraphInput in;
  in.file = file;
  in.label = label;
  in.n = g.num_vertices();
  in.arcs = g.num_arcs();
  in.fingerprint = hicond::serve::graph_fingerprint(g);
  return in;
}

}  // namespace

Inputs generate_inputs(Workload w, std::uint64_t seed, const std::string& dir) {
  Inputs out;
  if (w == Workload::warm_seeded) {
    const hicond::Graph g = make_graph("grid3d", kWarmSide, mix_seed(seed, 1));
    out.graphs.push_back(write_input(g, dir, "g0.hsnap", label_of("grid3d", kWarmSide)));
    return out;
  }
  if (w == Workload::edit_solve) {
    const hicond::Graph g = make_graph("grid2d", kEditSide, mix_seed(seed, 2));
    out.graphs.push_back(write_input(g, dir, "g0.hsnap", label_of("grid2d", kEditSide)));
    return out;
  }
  int index = 0;
  for (const ChurnSlot& slot : kChurnSlots) {
    const hicond::Graph g = make_graph(slot.family, slot.size, slot.content_seed);
    if (!hicond::is_connected(g)) {
      throw std::runtime_error("churn graph " + std::to_string(index) + " is disconnected");
    }
    GraphInput in = write_input(g, dir, "g" + std::to_string(index) + ".hsnap",
                                label_of(slot.family, slot.size));
    in.worker = slot.worker;
    out.graphs.push_back(std::move(in));
    ++index;
  }
  out.cache_bytes = kChurnCacheBytes;
  return out;
}

std::vector<Request> seeded_stream(Workload w, std::uint64_t seed,
                                   std::size_t count) {
  std::vector<Request> out;
  out.reserve(count);
  SplitMix rng(mix_seed(seed, 10));
  // Seeds stay below 2^53 so the wire's JSON numbers carry them exactly.
  const auto rhs_seed = [&rng] { return rng.next() >> 12; };
  if (w == Workload::warm_seeded) {
    for (std::size_t i = 0; i < count; ++i) {
      Request r;
      r.op = (i % (kWarmSolvesPerBatch + 1) == kWarmSolvesPerBatch)
                 ? Request::Op::batch_solve
                 : Request::Op::solve;
      r.rhs_seed = rhs_seed();
      out.push_back(r);
    }
    return out;
  }
  if (w != Workload::churn_routed) {
    throw std::runtime_error("edit_solve has no seeded stream");
  }
  for (std::size_t index = 0; out.size() < count; ++index) {
    std::vector<Request> b;
    for (int r = 0; r < static_cast<int>(std::size(kChurnBlock)); ++r) {
      for (int j = 0; j < kChurnBlock[r]; ++j) {
        Request q;
        q.graph = r;
        const char* alt = alternative_backend(r + 1, index);
        if (j == 0 && alt != nullptr) q.backend = alt;
        b.push_back(q);
      }
    }
    for (std::size_t i = b.size(); i > 1; --i) {
      std::swap(b[i - 1], b[rng.below(i)]);
    }
    for (Request& q : b) {
      if (out.size() == count) {
        break;
      }
      q.rhs_seed = rhs_seed();
      out.push_back(q);
    }
  }
  return out;
}

std::string request_line(const Request& r, const std::string& graph_hex,
                         std::int64_t id, bool return_x) {
  std::string s = "{\"op\":\"";
  s += r.op == Request::Op::solve ? "solve" : "batch_solve";
  s += "\",\"id\":" + std::to_string(id) + ",\"graph\":\"" + graph_hex +
       "\",\"rel_tolerance\":" + num(kTolerance);
  if (r.op == Request::Op::solve) {
    s += ",\"rhs_seed\":" + std::to_string(r.rhs_seed);
  } else {
    s += ",\"rhs_random\":{\"count\":" + std::to_string(kBatchColumns) +
         ",\"seed\":" + std::to_string(r.rhs_seed) + "}";
  }
  if (!r.backend.empty()) {
    s += ",\"backend\":\"" + r.backend + "\"";
  }
  if (return_x) {
    s += ",\"return_x\":true";
  }
  return s + "}";
}

// ---------------------------------------------------------------------------
// EditModel

EditModel::EditModel(const hicond::Graph& base, int side, std::uint64_t seed)
    : side_(side),
      adj_(static_cast<std::size_t>(base.num_vertices())),
      rng_(mix_seed(seed, 20)) {
  for (hicond::vidx u = 0; u < base.num_vertices(); ++u) {
    const auto nbrs = base.neighbors(u);
    const auto ws = base.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      adj_[static_cast<std::size_t>(u)].emplace_back(nbrs[i], ws[i]);
      if (u < nbrs[i]) {
        grid_edges_.emplace_back(u, nbrs[i]);
      }
    }
    std::sort(adj_[static_cast<std::size_t>(u)].begin(),
              adj_[static_cast<std::size_t>(u)].end());
  }
}

const double* EditModel::find(int u, int v) const {
  const auto& row = adj_[static_cast<std::size_t>(u)];
  const auto it = std::lower_bound(row.begin(), row.end(),
                                   std::pair<int, double>(v, -HUGE_VAL));
  return it != row.end() && it->first == v ? &it->second : nullptr;
}

void EditModel::set_edge(int u, int v, double w) {
  for (const auto& [a, b] : {std::pair(u, v), std::pair(v, u)}) {
    auto& row = adj_[static_cast<std::size_t>(a)];
    const auto it = std::lower_bound(row.begin(), row.end(),
                                     std::pair<int, double>(b, -HUGE_VAL));
    if (it != row.end() && it->first == b) {
      it->second = w;
    } else {
      row.insert(it, {b, w});
    }
  }
}

void EditModel::erase_edge(int u, int v) {
  for (const auto& [a, b] : {std::pair(u, v), std::pair(v, u)}) {
    auto& row = adj_[static_cast<std::size_t>(a)];
    const auto it = std::lower_bound(row.begin(), row.end(),
                                     std::pair<int, double>(b, -HUGE_VAL));
    if (it == row.end() || it->first != b) {
      throw std::logic_error("edit model: erasing an absent edge");
    }
    row.erase(it);
  }
}

EditModel::Step EditModel::next() {
  Step s;
  s.large = step_ % kLargeEvery == kLargeEvery - 1;
  ++step_;
  std::set<Edge> touched;
  const auto pick_grid_edge = [&]() {
    for (;;) {
      const Edge e = grid_edges_[rng_.below(grid_edges_.size())];
      if (touched.insert(e).second) {
        return e;
      }
    }
  };
  using Kind = Update::Kind;
  if (s.large) {
    for (const Edge& e : weakened_) {
      touched.insert(e);
      s.updates.push_back({Kind::reweight, e.first, e.second, rng_.uniform(1.0, 2.0)});
    }
    std::vector<Edge> weakened;
    for (int i = 0; i < 2000; ++i) {
      const Edge e = pick_grid_edge();
      weakened.push_back(e);
      s.updates.push_back({Kind::reweight, e.first, e.second,
                           0.01 * rng_.uniform(1.0, 2.0)});
    }
    weakened_ = std::move(weakened);
  } else {
    if (inserted_.size() >= 8) {
      for (int i = 0; i < 2; ++i) {
        const std::size_t k = rng_.below(inserted_.size());
        const Edge e = inserted_[k];
        inserted_.erase(inserted_.begin() + static_cast<std::ptrdiff_t>(k));
        touched.insert(e);
        s.updates.push_back({Kind::remove, e.first, e.second, 0.0});
      }
    }
    for (int i = 0; i < 2;) {
      const int x = static_cast<int>(rng_.below(static_cast<std::uint64_t>(side_ - 1)));
      const int y = static_cast<int>(rng_.below(static_cast<std::uint64_t>(side_ - 1)));
      Edge e = rng_.below(2) == 0
                   ? Edge(x + side_ * y, x + 1 + side_ * (y + 1))
                   : Edge(x + 1 + side_ * y, x + side_ * (y + 1));
      if (e.first > e.second) {
        std::swap(e.first, e.second);
      }
      if (find(e.first, e.second) != nullptr || !touched.insert(e).second) {
        continue;
      }
      inserted_.push_back(e);
      s.updates.push_back({Kind::insert, e.first, e.second, rng_.uniform(1.0, 2.0)});
      ++i;
    }
    for (int i = 0; i < 6; ++i) {
      const Edge e = pick_grid_edge();
      s.updates.push_back({Kind::reweight, e.first, e.second, rng_.uniform(1.0, 2.0)});
    }
  }
  for (const Update& u : s.updates) {
    if (u.kind == Kind::remove) {
      erase_edge(u.u, u.v);
    } else {
      set_edge(u.u, u.v, u.weight);
    }
  }
  s.b.resize(adj_.size());
  double sum = 0.0;
  for (double& v : s.b) {
    v = rng_.uniform(-1.0, 1.0);
    sum += v;
  }
  const double mean = sum / static_cast<double>(s.b.size());
  for (double& v : s.b) {
    v -= mean;
  }
  return s;
}

std::string EditModel::update_line(const Step& s, const std::string& graph_hex,
                                   std::int64_t id) {
  std::string line = "{\"op\":\"update\",\"id\":" + std::to_string(id) +
                     ",\"graph\":\"" + graph_hex +
                     "\",\"rel_tolerance\":" + num(kTolerance) + ",\"updates\":[";
  bool first = true;
  for (const Update& u : s.updates) {
    line += first ? "{\"kind\":\"" : ",{\"kind\":\"";
    first = false;
    line += u.kind == Update::Kind::insert   ? "insert"
            : u.kind == Update::Kind::remove ? "delete"
                                             : "reweight";
    line += "\",\"u\":" + std::to_string(u.u) + ",\"v\":" + std::to_string(u.v);
    if (u.kind != Update::Kind::remove) {
      line += ",\"weight\":" + num(u.weight);
    }
    line += "}";
  }
  return line + "]}";
}

std::string EditModel::solve_tail(const std::vector<double>& b) {
  std::string tail = "\",\"rel_tolerance\":" + num(kTolerance) +
                     ",\"return_x\":true,\"b\":[";
  tail.reserve(b.size() * 24 + tail.size() + 2);
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (i != 0) {
      tail += ',';
    }
    tail += num(b[i]);
  }
  return tail + "]}";
}

std::string EditModel::solve_line(const std::string& tail,
                                  const std::string& graph_hex,
                                  std::int64_t id) {
  return "{\"op\":\"solve\",\"id\":" + std::to_string(id) + ",\"graph\":\"" +
         graph_hex + tail;
}

double EditModel::relative_residual(const std::vector<double>& x,
                                    const std::vector<double>& b) const {
  double rr = 0.0;
  double bb = 0.0;
  for (std::size_t u = 0; u < adj_.size(); ++u) {
    double y = 0.0;
    for (const auto& [v, w] : adj_[u]) {
      y += w * (x[u] - x[static_cast<std::size_t>(v)]);
    }
    rr += (y - b[u]) * (y - b[u]);
    bb += b[u] * b[u];
  }
  return std::sqrt(rr / bb);
}

std::uint64_t EditModel::fingerprint() const {
  std::uint64_t h = kFnvBasis;
  const auto fold = [&h](std::uint64_t v) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    h = fnv1a(h, bytes, 8);
  };
  std::uint64_t arcs = 0;
  for (const auto& row : adj_) {
    arcs += row.size();
  }
  fold(adj_.size());
  fold(arcs);
  std::uint64_t offset = 0;
  for (const auto& row : adj_) {
    fold(offset);
    offset += row.size();
  }
  fold(offset);
  for (const auto& row : adj_) {
    for (const auto& e : row) {
      fold(static_cast<std::uint32_t>(e.first));
    }
  }
  for (const auto& row : adj_) {
    for (const auto& e : row) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &e.second, sizeof bits);
      fold(bits);
    }
  }
  return h;
}

}  // namespace perfbench
