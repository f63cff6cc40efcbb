// Global router (CUGR substitute).
//
// Routes every two-pin edge of the Steiner forest on the gcell grid:
// congestion-aware L-pattern routing first, then negotiated-congestion
// rip-up-and-reroute with history costs for connections crossing overflowed
// edges. Capacities are calibrated from the initial demand of the *baseline*
// forest and can be pinned via RouterOptions so a TSteiner-refined forest is
// routed against identical resources.
//
// Each reroute is one maze search (route/maze.hpp): an exact A* over the
// connection's bbox window grown by `maze_margin`. Every edge costs at least
// 1, so the Manhattan gcell distance to the target is a consistent
// heuristic. The search stops once every open entry has f above g(target)
// plus a 1e-7 relative slack for rounding, and the path is rebuilt from the
// target with Dijkstra's tie rule (the exact predecessor with the smallest
// (g, window index)). Paths are therefore bit-identical to a lazy-heap
// Dijkstra over the same window.
#pragma once

#include <vector>

#include "route/grid.hpp"
#include "steiner/steiner_tree.hpp"

namespace tsteiner {

struct RouterOptions {
  std::int64_t gcell_size = 8;
  /// Capacity = capacity_factor * p90(initial usage), at least min_capacity.
  /// Slightly below 1.0 keeps realistic congestion pressure: hotspots must
  /// negotiate, the DR surrogate sees violations to repair, and Steiner
  /// positions influence sign-off through detours — the regime the paper
  /// operates in.
  double capacity_factor = 0.92;
  double min_capacity = 4.0;
  /// Fixed capacities override calibration when > 0.
  double fixed_h_cap = 0.0;
  double fixed_v_cap = 0.0;
  int rrr_iterations = 4;
  double history_increment = 1.0;
  int maze_margin = 12;  ///< gcells added around a connection's bbox
};

/// One routed two-pin connection (tree edge -> gcell path).
struct RoutedConnection {
  int tree = -1;
  int edge = -1;
  std::vector<GCell> path;  ///< adjacent gcells, size >= 1

  int num_bends() const;
  /// Routed length in DBU given the grid's gcell size (straight-line within
  /// a single gcell).
  double length_dbu(const GridGraph& grid, const PointF& a, const PointF& b) const;
};

struct GlobalRouteResult {
  GridGraph grid;
  std::vector<RoutedConnection> connections;
  /// conn_of_edge[tree][edge] -> index into `connections`.
  std::vector<std::vector<int>> conn_of_edge;
  double wirelength_dbu = 0.0;
  double total_overflow = 0.0;
  long long overflowed_edges = 0;
  int rrr_rounds_used = 0;
  double calibrated_h_cap = 0.0;
  double calibrated_v_cap = 0.0;
};

GlobalRouteResult global_route(const Design& design, const SteinerForest& forest,
                               const RouterOptions& options = {});

/// Stateful global router for incremental sign-off.
///
/// `route_full` runs the exact algorithm behind `global_route` while
/// recording a replay cache (per-connection gcell endpoints, post-pattern
/// base paths, and every negotiated maze reroute). `update` then re-runs the
/// same algorithm as a *patching replay*: instead of rebuilding the routing
/// field from zero, it starts from the previous run's final grid and patches
/// it back to this run's exact post-pattern state — history cleared,
/// previously-mazed connections ripped back to their base paths, and moved
/// connections re-pattern-routed (usage counts are integers, so ±1 patching
/// in any order is exact). The negotiation rounds then recompute all
/// order-dependent work for real (capacity calibration, history charging,
/// victim selection, accounting), and only the expensive maze searches reuse
/// cached results — and only when an exact per-edge field delta proves the
/// maze window reads state bit-identical to the previous run's at the
/// aligned point of the operation sequence. The delta's window test covers
/// every gcell of `maze_window`, a superset of the edges the A* search
/// actually reads (it expands only gcells with f <= g(target)), so the test
/// stays sound. The replayed result is therefore
/// bit-identical to a fresh `global_route` of the same forest, at a cost of
/// O(grid) + O(moved + mazed) instead of O(connections).
///
/// Dirty-net contract: callers must flag every tree whose node geometry
/// changed since the previous route (`tree_dirty`). Gcell endpoints of
/// connections in unflagged trees are reused from the cache, so an
/// undeclared move is *not* healed — that property is what the
/// `signoff-incremental` mutation self-check relies on.
class GlobalRouterState {
 public:
  GlobalRouterState(const Design* design, const RouterOptions& options);

  /// Full route of `forest`; rebuilds the replay cache from scratch.
  const GlobalRouteResult& route_full(const SteinerForest& forest);

  /// Memoized replay against the cached previous run. `tree_dirty` holds one
  /// flag per tree in `forest` (trees whose geometry moved). Requires a
  /// prior `route_full` and an unchanged forest topology (tree/edge counts);
  /// falls back to `route_full` otherwise.
  const GlobalRouteResult& update(const SteinerForest& forest,
                                  const std::vector<char>& tree_dirty);

  const GlobalRouteResult& result() const { return result_; }
  bool routed() const { return routed_; }
  /// Connections whose final path changed in the last `update` (empty after
  /// `route_full`). Indices into `result().connections`.
  const std::vector<int>& changed_connections() const { return changed_conns_; }
  /// True when the last `update` reused every cached route unchanged.
  bool last_update_was_hit() const { return routed_ && changed_conns_.empty(); }
  /// Maze searches skipped thanks to the replay cache in the last update.
  long long last_reused_mazes() const { return last_reused_mazes_; }
  long long last_total_mazes() const { return last_total_mazes_; }

  friend GlobalRouteResult global_route(const Design& design, const SteinerForest& forest,
                                        const RouterOptions& options);

 private:
  struct MazeOp {
    int conn = -1;
    std::vector<GCell> before;  ///< path ripped up by this op
    std::vector<GCell> after;   ///< path committed by this op
  };
  struct ReplayCache {
    std::vector<std::pair<GCell, GCell>> endpoints;  ///< per connection
    std::vector<std::vector<GCell>> base_paths;      ///< post-pattern paths
    std::vector<std::vector<MazeOp>> rounds;         ///< maze ops per RRR round
  };

  void run(const SteinerForest& forest, const std::vector<char>* tree_dirty);

  const Design* design_ = nullptr;
  RouterOptions options_;
  GlobalRouteResult result_;
  ReplayCache cache_;
  std::vector<double> conn_len_;  ///< per-connection routed length (DBU)
  std::vector<int> changed_conns_;
  long long last_reused_mazes_ = 0;
  long long last_total_mazes_ = 0;
  bool routed_ = false;
};

}  // namespace tsteiner
