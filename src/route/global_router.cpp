#include "route/global_router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "route/maze.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace tsteiner {

int RoutedConnection::num_bends() const {
  int bends = 0;
  for (std::size_t i = 2; i < path.size(); ++i) {
    const bool was_h = path[i - 1].y == path[i - 2].y && path[i - 1].x != path[i - 2].x;
    const bool is_h = path[i].y == path[i - 1].y && path[i].x != path[i - 1].x;
    if (was_h != is_h) ++bends;
  }
  return bends;
}

double RoutedConnection::length_dbu(const GridGraph& grid, const PointF& a,
                                    const PointF& b) const {
  if (path.size() <= 1) return manhattan(a, b);
  return static_cast<double>(path.size() - 1) * static_cast<double>(grid.gcell_size());
}

namespace {

/// The exact inverse of apply_usage.
void rip_up(GridGraph& grid, const std::vector<GCell>& path) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    const GCell& p = path[i - 1];
    const GCell& q = path[i];
    if (p.y == q.y) {
      grid.add_h_usage(std::min(p.x, q.x), p.y, -1.0);
    } else {
      grid.add_v_usage(p.x, std::min(p.y, q.y), -1.0);
    }
  }
}

double p90(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const auto k = static_cast<std::ptrdiff_t>(0.9 * static_cast<double>(xs.size() - 1));
  std::nth_element(xs.begin(), xs.begin() + k, xs.end());
  return xs[static_cast<std::size_t>(k)];
}

/// Exact per-edge difference between this replay's routing field and the
/// cached previous run's field at the aligned point of the operation
/// sequence. Usage deltas are integer wire counts; history deltas are
/// integer charge counts (both runs apply the identical per-charge
/// increment in the identical round order, so an equal count means a
/// bit-equal history value). A per-tile counter of nonzero entries makes
/// "does this maze window read bit-identical state?" a cheap tile scan —
/// and because deltas cancel when a diverged region re-converges, the clean
/// region grows back, where a monotone dirty cover can only shrink it.
class FieldDelta {
 public:
  static constexpr int kTileShift = 2;  // 4x4 gcell tiles

  void init(int nx, int ny) {
    nx_ = nx;
    ny_ = ny;
    tx_ = (nx >> kTileShift) + 1;
    const int ty = (ny >> kTileShift) + 1;
    h_usage_.assign(static_cast<std::size_t>(std::max(0, nx - 1)) *
                        static_cast<std::size_t>(ny), 0);
    v_usage_.assign(static_cast<std::size_t>(nx) *
                        static_cast<std::size_t>(std::max(0, ny - 1)), 0);
    h_hist_.assign(h_usage_.size(), 0);
    v_hist_.assign(v_usage_.size(), 0);
    tile_nonzero_.assign(static_cast<std::size_t>(tx_) * static_cast<std::size_t>(ty), 0);
    total_nonzero_ = 0;
  }

  /// Accumulate one routed path's edge usage with the given sign: +1 for a
  /// commit in this run or a rip in the previous run, -1 for the converse.
  void add_path_usage(const std::vector<GCell>& path, int sign) {
    for (std::size_t i = 1; i < path.size(); ++i) {
      const GCell& p = path[i - 1];
      const GCell& q = path[i];
      if (p.y == q.y) {
        bump(h_usage_, h_index(std::min(p.x, q.x), p.y), std::min(p.x, q.x), p.y, sign);
      } else {
        bump(v_usage_, v_index(p.x, std::min(p.y, q.y)), p.x, std::min(p.y, q.y), sign);
      }
    }
  }

  int h_usage_delta(int x, int y) const { return h_usage_[h_index(x, y)]; }
  int v_usage_delta(int x, int y) const { return v_usage_[v_index(x, y)]; }
  void add_h_hist(int x, int y, int d) { bump(h_hist_, h_index(x, y), x, y, d); }
  void add_v_hist(int x, int y, int d) { bump(v_hist_, v_index(x, y), x, y, d); }

  /// True iff every usage and history delta attributed to a gcell in the
  /// inclusive window is zero, i.e. a maze over the window reads state
  /// bit-identical to the previous run's at the aligned point.
  bool window_clean(int x0, int y0, int x1, int y1) const {
    if (total_nonzero_ == 0) return true;
    const int tx0 = x0 >> kTileShift, tx1 = x1 >> kTileShift;
    const int ty0 = y0 >> kTileShift, ty1 = y1 >> kTileShift;
    for (int t = ty0; t <= ty1; ++t) {
      const int* row =
          tile_nonzero_.data() + static_cast<std::size_t>(t) * static_cast<std::size_t>(tx_);
      for (int s = tx0; s <= tx1; ++s) {
        if (row[s] != 0) return false;
      }
    }
    return true;
  }

 private:
  std::size_t h_index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_ - 1) +
           static_cast<std::size_t>(x);
  }
  std::size_t v_index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(x);
  }
  void bump(std::vector<int>& arr, std::size_t idx, int x, int y, int d) {
    const int before = arr[idx];
    const int after = before + d;
    arr[idx] = after;
    if ((before == 0) != (after == 0)) {
      const std::size_t tile =
          static_cast<std::size_t>(y >> kTileShift) * static_cast<std::size_t>(tx_) +
          static_cast<std::size_t>(x >> kTileShift);
      const int step = before == 0 ? 1 : -1;
      tile_nonzero_[tile] += step;
      total_nonzero_ += step;
    }
  }

 private:
  int nx_ = 0, ny_ = 0, tx_ = 0;
  std::vector<int> h_usage_, v_usage_;  // wire-count deltas per grid edge
  std::vector<int> h_hist_, v_hist_;    // history charge-count deltas
  std::vector<int> tile_nonzero_;
  long long total_nonzero_ = 0;
};

}  // namespace

GlobalRouterState::GlobalRouterState(const Design* design, const RouterOptions& options)
    : design_(design), options_(options) {}

void GlobalRouterState::run(const SteinerForest& forest, const std::vector<char>* tree_dirty) {
  TS_TRACE_SPAN_CAT("route.global", "route");
  static obs::Counter& m_runs = obs::metrics().counter("route.global_runs");
  static obs::Counter& m_ripups = obs::metrics().counter("route.ripups");
  static obs::Counter& m_rrr_rounds = obs::metrics().counter("route.rrr_rounds");
  static obs::Counter& m_replays = obs::metrics().counter("route.incremental_replays");
  static obs::Counter& m_mazes_reused = obs::metrics().counter("route.reused_mazes");
  static obs::Gauge& m_overflow = obs::metrics().gauge("route.total_overflow");
  const bool replay = tree_dirty != nullptr;
  if (replay) {
    m_replays.add();
  } else {
    m_runs.add();
  }

  const double prev_h_cap = result_.calibrated_h_cap;
  const double prev_v_cap = result_.calibrated_v_cap;
  if (replay) {
    result_.rrr_rounds_used = 0;
  } else {
    result_ = GlobalRouteResult{GridGraph(design_->die(), options_.gcell_size),
                                {}, {}, 0, 0, 0, 0, 0, 0};
    result_.conn_of_edge.resize(forest.trees.size());
    for (std::size_t t = 0; t < forest.trees.size(); ++t) {
      const SteinerTree& tree = forest.trees[t];
      result_.conn_of_edge[t].assign(tree.edges.size(), -1);
      for (std::size_t e = 0; e < tree.edges.size(); ++e) {
        RoutedConnection conn;
        conn.tree = static_cast<int>(t);
        conn.edge = static_cast<int>(e);
        result_.conn_of_edge[t][e] = static_cast<int>(result_.connections.size());
        result_.connections.push_back(std::move(conn));
      }
    }
  }
  GridGraph& grid = result_.grid;
  const std::size_t n = result_.connections.size();

  FieldDelta delta;
  ReplayCache next;
  // Replay bookkeeping: which connections' final path may differ from the
  // previous run's, the previous run's final path per connection (last maze
  // `after`, else the cached base), and replacement base paths for moved
  // connections (applied to the cache after accounting, which still reads
  // the old bases).
  std::vector<char> touched;
  std::vector<const std::vector<GCell>*> prev_final;
  std::vector<std::pair<std::size_t, std::vector<GCell>>> new_bases;

  if (!replay) {
    // Initial pattern routing of every tree edge, from a zeroed grid.
    next.endpoints.resize(n);
    next.base_paths.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      RoutedConnection& conn = result_.connections[i];
      const SteinerTree& tree = forest.trees[static_cast<std::size_t>(conn.tree)];
      const SteinerEdge& edge = tree.edges[static_cast<std::size_t>(conn.edge)];
      next.endpoints[i] = {grid.gcell_at(tree.nodes[static_cast<std::size_t>(edge.a)].pos),
                           grid.gcell_at(tree.nodes[static_cast<std::size_t>(edge.b)].pos)};
      conn.path = pattern_path(next.endpoints[i].first, next.endpoints[i].second);
      apply_usage(grid, conn.path);
      next.base_paths[i] = conn.path;
    }
  } else {
    // Patch, don't rebuild: the grid still holds the previous run's final
    // state. Usage entries are integer wire counts (exact in a double), so
    // ripping a previous path and committing a new one lands on the exact
    // value a fresh pattern pass would compute, in any order. Three patches
    // restore the exact post-pattern state of this run:
    //   1. history back to all-zero (only the fresh-start value matters —
    //      rounds recharge it honestly below);
    //   2. every previously-mazed connection back from its negotiated final
    //      path to its base path;
    //   3. every connection whose gcell endpoints moved from its old base
    //      to the new pattern path — the only connections that diverge from
    //      the previous run, so only they seed the field delta.
    // Untouched connections already hold their base path (their final path
    // IS the base when no maze op rerouted them), so the whole pattern
    // phase costs O(dirty + previously-mazed), not O(n).
    delta.init(grid.nx(), grid.ny());
    grid.clear_history();
    prev_final.assign(n, nullptr);
    for (const std::vector<MazeOp>& round : cache_.rounds) {
      for (const MazeOp& op : round) {
        prev_final[static_cast<std::size_t>(op.conn)] = &op.after;
      }
    }
    touched.assign(n, 0);
    next.endpoints = std::move(cache_.endpoints);
    for (std::size_t i = 0; i < n; ++i) {
      RoutedConnection& conn = result_.connections[i];
      const std::vector<GCell>* pf = prev_final[i];
      bool ep_changed = false;
      if ((*tree_dirty)[static_cast<std::size_t>(conn.tree)]) {
        const SteinerTree& tree = forest.trees[static_cast<std::size_t>(conn.tree)];
        const SteinerEdge& edge = tree.edges[static_cast<std::size_t>(conn.edge)];
        const std::pair<GCell, GCell> ep = {
            grid.gcell_at(tree.nodes[static_cast<std::size_t>(edge.a)].pos),
            grid.gcell_at(tree.nodes[static_cast<std::size_t>(edge.b)].pos)};
        ep_changed = !(ep == next.endpoints[i]);
        next.endpoints[i] = ep;
      }
      if (ep_changed) {
        std::vector<GCell> base = pattern_path(next.endpoints[i].first, next.endpoints[i].second);
        delta.add_path_usage(base, +1);
        delta.add_path_usage(cache_.base_paths[i], -1);
        rip_up(grid, pf != nullptr ? *pf : cache_.base_paths[i]);
        apply_usage(grid, base);
        conn.path = base;
        new_bases.emplace_back(i, std::move(base));
        touched[i] = 1;
      } else if (pf != nullptr) {
        rip_up(grid, *pf);
        apply_usage(grid, cache_.base_paths[i]);
        conn.path = cache_.base_paths[i];
        touched[i] = 1;
      }
    }
  }

  // Capacity calibration (or pinned capacities for apples-to-apples runs).
  if (options_.fixed_h_cap > 0.0 && options_.fixed_v_cap > 0.0) {
    grid.set_capacities(options_.fixed_h_cap, options_.fixed_v_cap);
  } else {
    // Row-parallel usage snapshots (indexed writes, read-only grid).
    const std::size_t h_per_row = static_cast<std::size_t>(std::max(0, grid.nx() - 1));
    const std::size_t v_per_row = static_cast<std::size_t>(grid.nx());
    std::vector<double> hu(static_cast<std::size_t>(grid.ny()) * h_per_row);
    std::vector<double> vu(static_cast<std::size_t>(std::max(0, grid.ny() - 1)) * v_per_row);
    parallel_for(0, static_cast<std::size_t>(grid.ny()), 4, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t y = lo; y < hi; ++y) {
        for (int x = 0; x + 1 < grid.nx(); ++x) {
          hu[y * h_per_row + static_cast<std::size_t>(x)] =
              grid.h_usage(x, static_cast<int>(y));
        }
      }
    });
    parallel_for(0, static_cast<std::size_t>(std::max(0, grid.ny() - 1)), 4,
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t y = lo; y < hi; ++y) {
                     for (int x = 0; x < grid.nx(); ++x) {
                       vu[y * v_per_row + static_cast<std::size_t>(x)] =
                           grid.v_usage(x, static_cast<int>(y));
                     }
                   }
                 });
    const double h_cap = std::max(options_.min_capacity, options_.capacity_factor * p90(hu));
    const double v_cap = std::max(options_.min_capacity, options_.capacity_factor * p90(vu));
    grid.set_capacities(h_cap, v_cap);
  }
  result_.calibrated_h_cap = grid.h_capacity();
  result_.calibrated_v_cap = grid.v_capacity();
  // Maze reuse additionally requires identical capacities (they feed every
  // edge penalty); with calibration enabled a demand shift can move p90.
  const bool caps_match =
      replay && grid.h_capacity() == prev_h_cap && grid.v_capacity() == prev_v_cap;

  // Negotiated rip-up and reroute.
  last_total_mazes_ = 0;
  last_reused_mazes_ = 0;
  for (int round = 0; round < options_.rrr_iterations; ++round) {
    if (grid.total_overflow() <= 0.0) break;
    ++result_.rrr_rounds_used;
    // Add history on overflowed edges: rows are disjoint, so row-parallel
    // writes touch distinct grid cells. The replay's serial variant also
    // settles the history charge-count delta — the previous run charged an
    // edge exactly when its usage (current usage minus the usage delta)
    // exceeded the same capacity, so both charge decisions come out of one
    // pass without storing the previous run's grid.
    if (!replay) {
      parallel_for(0, static_cast<std::size_t>(grid.ny()), 4, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t yy = lo; yy < hi; ++yy) {
          const int y = static_cast<int>(yy);
          for (int x = 0; x + 1 < grid.nx(); ++x) {
            if (grid.h_usage(x, y) > grid.h_capacity()) {
              grid.add_h_history(x, y, options_.history_increment);
            }
          }
          if (y + 1 < grid.ny()) {
            for (int x = 0; x < grid.nx(); ++x) {
              if (grid.v_usage(x, y) > grid.v_capacity()) {
                grid.add_v_history(x, y, options_.history_increment);
              }
            }
          }
        }
      });
    } else {
      for (int y = 0; y < grid.ny(); ++y) {
        for (int x = 0; x + 1 < grid.nx(); ++x) {
          const double u = grid.h_usage(x, y);
          const bool cur_charge = u > grid.h_capacity();
          if (cur_charge) grid.add_h_history(x, y, options_.history_increment);
          const bool prev_charge = u - delta.h_usage_delta(x, y) > grid.h_capacity();
          if (cur_charge != prev_charge) delta.add_h_hist(x, y, cur_charge ? 1 : -1);
        }
        if (y + 1 < grid.ny()) {
          for (int x = 0; x < grid.nx(); ++x) {
            const double u = grid.v_usage(x, y);
            const bool cur_charge = u > grid.v_capacity();
            if (cur_charge) grid.add_v_history(x, y, options_.history_increment);
            const bool prev_charge = u - delta.v_usage_delta(x, y) > grid.v_capacity();
            if (cur_charge != prev_charge) delta.add_v_hist(x, y, cur_charge ? 1 : -1);
          }
        }
      }
    }
    // Collect connections through overflowed edges: parallel per-connection
    // hit flags (read-only grid scan), then an in-order sweep so the victim
    // list — and with it the reroute order — matches the serial router.
    std::vector<char> hit_flags(result_.connections.size(), 0);
    parallel_for(0, result_.connections.size(), 16, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t c = lo; c < hi; ++c) {
        const auto& path = result_.connections[c].path;
        bool hit = false;
        for (std::size_t i = 1; i < path.size() && !hit; ++i) {
          const GCell& p = path[i - 1];
          const GCell& q = path[i];
          if (p.y == q.y) {
            hit = grid.h_usage(std::min(p.x, q.x), p.y) > grid.h_capacity();
          } else {
            hit = grid.v_usage(p.x, std::min(p.y, q.y)) > grid.v_capacity();
          }
        }
        hit_flags[c] = hit ? 1 : 0;
      }
    });
    std::vector<int> victims;
    for (std::size_t c = 0; c < result_.connections.size(); ++c) {
      if (hit_flags[c]) victims.push_back(static_cast<int>(c));
    }
    if (victims.empty()) break;
    m_ripups.add(victims.size());
    m_rrr_rounds.add();

    const std::vector<MazeOp>* prev_round =
        replay && static_cast<std::size_t>(round) < cache_.rounds.size()
            ? &cache_.rounds[static_cast<std::size_t>(round)]
            : nullptr;
    next.rounds.emplace_back();
    std::vector<MazeOp>& ops = next.rounds.back();
    ops.reserve(victims.size());
    // Victims ascend, and the previous run's ops were recorded in its own
    // ascending victim order, so one merge walk aligns the two operation
    // sequences. A cached op the replay walks past (its connection is not a
    // victim this time) still happened in the previous run — fold its rip +
    // commit into the field delta at exactly this point of the sequence.
    std::size_t pi = 0;
    const auto skip_cached_ops_below = [&](int c) {
      while (prev_round && pi < prev_round->size() && (*prev_round)[pi].conn < c) {
        const MazeOp& sk = (*prev_round)[pi];
        delta.add_path_usage(sk.before, +1);
        delta.add_path_usage(sk.after, -1);
        ++pi;
      }
    };
    for (int c : victims) {
      RoutedConnection& conn = result_.connections[static_cast<std::size_t>(c)];
      if (replay) touched[static_cast<std::size_t>(c)] = 1;
      const MazeOp* cached = nullptr;
      skip_cached_ops_below(c);
      if (prev_round && pi < prev_round->size() && (*prev_round)[pi].conn == c) {
        cached = &(*prev_round)[pi];
        ++pi;
      }
      const GCell a = conn.path.front();
      const GCell b = conn.path.back();
      ++last_total_mazes_;
      MazeOp op;
      op.conn = c;
      op.before = std::move(conn.path);
      const bool same_before = cached != nullptr && op.before == cached->before;
      rip_up(grid, op.before);
      if (replay && !same_before) {
        delta.add_path_usage(op.before, -1);
        if (cached) delta.add_path_usage(cached->before, +1);
      }
      bool reuse = false;
      if (same_before && caps_match) {
        const MazeWindow win = maze_window(grid, a, b, options_.maze_margin);
        reuse = delta.window_clean(win.x_lo, win.y_lo, win.x_hi, win.y_hi);
      }
      if (reuse) {
        // The maze is a pure function of the window's usage/history and the
        // endpoints; a clean window means it would reproduce the cached path
        // (and the rip/commit deltas cancel exactly).
        conn.path = cached->after;
        apply_usage(grid, conn.path);
        ++last_reused_mazes_;
        m_mazes_reused.add();
      } else {
        conn.path = maze_route(grid, a, b, options_.maze_margin);
        if (replay) {
          if (cached == nullptr || conn.path != cached->after) {
            delta.add_path_usage(conn.path, +1);
            if (cached) delta.add_path_usage(cached->after, -1);
          }
        }
      }
      op.after = conn.path;
      ops.push_back(std::move(op));
    }
    skip_cached_ops_below(std::numeric_limits<int>::max());
    TS_DEBUG("GR round %d: %zu victims, overflow %.1f, reused %lld/%lld mazes", round,
             victims.size(), grid.total_overflow(), last_reused_mazes_, last_total_mazes_);
  }

  // Final accounting: per-connection lengths in parallel, serial fold so the
  // float sum matches the historical connection order bit for bit.
  changed_conns_.clear();
  if (!replay) {
    conn_len_.assign(n, 0.0);
    parallel_for(0, n, 32, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t c = lo; c < hi; ++c) {
        const RoutedConnection& conn = result_.connections[c];
        const SteinerTree& tree = forest.trees[static_cast<std::size_t>(conn.tree)];
        const SteinerEdge& e = tree.edges[static_cast<std::size_t>(conn.edge)];
        conn_len_[c] = conn.length_dbu(grid, tree.nodes[static_cast<std::size_t>(e.a)].pos,
                                       tree.nodes[static_cast<std::size_t>(e.b)].pos);
      }
    });
  } else {
    // Only patched or this-run-mazed connections can differ from the
    // previous run's final path; everything else kept its path in place.
    for (std::size_t c = 0; c < n; ++c) {
      const RoutedConnection& conn = result_.connections[c];
      const bool dirty_tree = (*tree_dirty)[static_cast<std::size_t>(conn.tree)];
      if (touched[c] == 0 && !dirty_tree) continue;
      if (touched[c] != 0) {
        const std::vector<GCell>& pf =
            prev_final[c] != nullptr ? *prev_final[c] : cache_.base_paths[c];
        if (conn.path != pf) changed_conns_.push_back(static_cast<int>(c));
      }
      // Lengths of single-gcell paths depend on the continuous endpoint
      // positions, so every connection of a moved tree recomputes.
      const SteinerTree& tree = forest.trees[static_cast<std::size_t>(conn.tree)];
      const SteinerEdge& e = tree.edges[static_cast<std::size_t>(conn.edge)];
      conn_len_[c] = conn.length_dbu(grid, tree.nodes[static_cast<std::size_t>(e.a)].pos,
                                     tree.nodes[static_cast<std::size_t>(e.b)].pos);
    }
  }
  result_.wirelength_dbu = 0.0;
  for (double len : conn_len_) result_.wirelength_dbu += len;
  result_.total_overflow = grid.total_overflow();
  result_.overflowed_edges = grid.num_overflowed_edges();
  m_overflow.set(result_.total_overflow);

  if (replay) {
    // Accounting above still read the old bases; only now fold in the
    // replacements for moved connections.
    next.base_paths = std::move(cache_.base_paths);
    for (std::pair<std::size_t, std::vector<GCell>>& nb : new_bases) {
      next.base_paths[nb.first] = std::move(nb.second);
    }
  }
  cache_ = std::move(next);
}

const GlobalRouteResult& GlobalRouterState::route_full(const SteinerForest& forest) {
  run(forest, nullptr);
  routed_ = true;
  return result_;
}

const GlobalRouteResult& GlobalRouterState::update(const SteinerForest& forest,
                                                   const std::vector<char>& tree_dirty) {
  bool topology_ok = routed_ && forest.trees.size() == result_.conn_of_edge.size() &&
                     tree_dirty.size() == forest.trees.size();
  if (topology_ok) {
    for (std::size_t t = 0; t < forest.trees.size(); ++t) {
      if (forest.trees[t].edges.size() != result_.conn_of_edge[t].size()) {
        topology_ok = false;
        break;
      }
    }
  }
  if (!topology_ok) return route_full(forest);
  run(forest, &tree_dirty);
  return result_;
}

GlobalRouteResult global_route(const Design& design, const SteinerForest& forest,
                               const RouterOptions& options) {
  GlobalRouterState state(&design, options);
  state.route_full(forest);
  return std::move(state.result_);
}

}  // namespace tsteiner
