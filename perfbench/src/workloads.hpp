// Seeded workload generation: the graphs written as snapshots for the
// services to load, the request streams, and the edit model that keeps the
// benchmark's own copy of the edited graph. The client and the traced replay
// both build their streams from here, so they send the same requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hicond/graph/graph.hpp"
#include "util.hpp"

namespace perfbench {

enum class Workload { warm_seeded, edit_solve, churn_routed };

/// Throws on an unknown name.
Workload parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// Fixed shape of a workload's deployment.
struct Deployment {
  int solver_threads;  ///< OMP_NUM_THREADS of each service process
  int workers;         ///< 0: one hicond_serve; >0: hicond_router workers
  int in_flight;       ///< requests the client keeps outstanding
};
Deployment deployment(Workload w);

/// Tolerance every solve request names and every check holds it to.
inline constexpr double kTolerance = 1e-8;
/// Columns per batch_solve request.
inline constexpr int kBatchColumns = 8;

struct GraphInput {
  std::string file;    ///< snapshot file name inside the work directory
  std::string label;   ///< family and size, e.g. "grid3d-40^3"
  std::int64_t n = 0;
  std::int64_t arcs = 0;
  std::uint64_t fingerprint = 0;
  int worker = 0;      ///< designated worker (churn_routed), else 0
};

struct Inputs {
  std::vector<GraphInput> graphs;
  /// Per-service --cache-bytes; 0 keeps the server default.
  std::size_t cache_bytes = 0;
};

/// Generate the workload's graphs from `seed` and write them as snapshots
/// into `dir`. The churn_routed graphs and cache budget are fixed (see
/// workloads.cpp): every seed serves the same twelve graphs.
Inputs generate_inputs(Workload w, std::uint64_t seed, const std::string& dir);

/// One request of the seeded streams (warm_seeded, churn_routed).
struct Request {
  enum class Op { solve, batch_solve };
  Op op = Op::solve;
  int graph = 0;          ///< index into Inputs::graphs
  std::string backend;    ///< empty: the server's default backend
  std::uint64_t rhs_seed = 0;
};

/// Requests of a seeded stream the client renders ahead of its timed phase
/// and the replay walks; far more than any run completes.
inline constexpr std::size_t kStreamLength = 20000;

/// The first `count` requests of the workload's seeded stream.
std::vector<Request> seeded_stream(Workload w, std::uint64_t seed,
                                   std::size_t count);

/// NDJSON line for a seeded request.
std::string request_line(const Request& r, const std::string& graph_hex,
                         std::int64_t id, bool return_x);

/// The benchmark's own copy of the edit_solve graph (a 2D grid) and the
/// seeded generator of its update batches and right-hand sides. Every batch
/// is valid against the current graph: reweights of present edges, inserts
/// of absent diagonal edges, deletes of diagonals the stream inserted
/// earlier (grid edges are never deleted, so the graph stays connected).
/// Every twentieth batch is large: it weakens 2000 grid edges a hundredfold
/// (restoring the previous large batch's edges), which exceeds repair's
/// dirty-volume limit.
class EditModel {
 public:
  EditModel(const hicond::Graph& base, int side, std::uint64_t seed);

  /// Every kLargeEvery-th batch is a large one.
  static constexpr std::size_t kLargeEvery = 20;

  struct Update {
    enum class Kind { insert, remove, reweight };
    Kind kind;
    int u;
    int v;
    double weight;
  };
  struct Step {
    std::vector<Update> updates;
    bool large = false;
    std::vector<double> b;  ///< mean-free right-hand side for the solve
  };

  /// Generate the next step and apply its updates to the model.
  Step next();

  static std::string update_line(const Step& s, const std::string& graph_hex,
                                 std::int64_t id);
  /// Everything of a solve line after the graph field, so the line can be
  /// completed cheaply once the update response names the new graph.
  static std::string solve_tail(const std::vector<double>& b);
  static std::string solve_line(const std::string& tail,
                                const std::string& graph_hex, std::int64_t id);

  /// ||L x - b|| / ||b|| on the model's current graph.
  [[nodiscard]] double relative_residual(const std::vector<double>& x,
                                         const std::vector<double>& b) const;
  /// Content fingerprint of the model's current graph, computed from its
  /// own sorted adjacency in the snapshot fingerprint's canonical layout.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  using Edge = std::pair<int, int>;
  [[nodiscard]] const double* find(int u, int v) const;
  void set_edge(int u, int v, double w);
  void erase_edge(int u, int v);

  int side_;
  std::vector<std::vector<std::pair<int, double>>> adj_;  ///< sorted rows
  std::vector<Edge> grid_edges_;
  std::vector<Edge> inserted_;  ///< stream-inserted diagonals still present
  std::vector<Edge> weakened_;  ///< edges weakened by the last large batch
  SplitMix rng_;
  std::size_t step_ = 0;
};

}  // namespace perfbench
