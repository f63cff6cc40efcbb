#include "route/maze.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace tsteiner {

MazeWindow maze_window(const GridGraph& grid, GCell a, GCell b, int margin) {
  return {std::max(0, std::min(a.x, b.x) - margin), std::max(0, std::min(a.y, b.y) - margin),
          std::min(grid.nx() - 1, std::max(a.x, b.x) + margin),
          std::min(grid.ny() - 1, std::max(a.y, b.y) + margin)};
}

double edge_penalty(double usage, double cap, double history) {
  const double util = usage / cap;
  double p = 0.3 * util + history;
  if (usage >= cap) p += 3.0 + 3.0 * (usage - cap + 1.0) / cap;
  return p;
}

namespace {

/// Append an axis-aligned run of gcells from path.back() to `to` (same row
/// or column).
void append_run(std::vector<GCell>& path, GCell to) {
  GCell cur = path.back();
  while (!(cur == to)) {
    if (cur.x != to.x) {
      cur.x += to.x > cur.x ? 1 : -1;
    } else {
      cur.y += to.y > cur.y ? 1 : -1;
    }
    path.push_back(cur);
  }
}

/// Open-list entry: a gcell (grid coordinates) pushed with priority f.
struct OpenEntry {
  double f;
  int x, y;
};

/// The open list is a bucket queue on f: bucket k holds entries with
/// f - h(a) in [k, k + 1) * kBucketWidth, the last bucket everything above.
/// Pops take the lowest non-empty bucket, last in first out within it. The
/// path does not depend on pop order (see maze.hpp); a bucket narrower than
/// the unit edge cost keeps re-expansions rare.
constexpr double kBucketWidth = 0.25;
constexpr std::size_t kBuckets = 1024;

/// Per-thread search scratch, reused across calls.
struct MazeScratch {
  std::vector<double> g;
  std::vector<std::vector<OpenEntry>> open = std::vector<std::vector<OpenEntry>>(kBuckets);
  std::size_t open_end = 0;  ///< buckets [0, open_end) may hold entries
};

}  // namespace

/// The choice is deliberately a pure function of the endpoints — never of
/// usage — so every base path depends only on its own connection's gcell
/// endpoints. Congestion is negotiated by the maze rounds instead: a
/// usage-aware initial L choice would couple each base path to the commit
/// order of every earlier one, and in a replay a single moved tree could flip
/// near-tied L choices across the whole die, destroying the locality the maze
/// cache depends on. Purity is also what lets the replay patch only moved
/// connections instead of re-walking all n patterns.
std::vector<GCell> pattern_path(GCell a, GCell b) {
  std::vector<GCell> path{a};
  if (a == b) return path;
  const bool x_first = ((a.x + a.y + b.x + b.y) & 1) == 0;
  const GCell corner = x_first ? GCell{b.x, a.y} : GCell{a.x, b.y};
  append_run(path, corner);
  append_run(path, b);
  return path;
}

void apply_usage(GridGraph& grid, const std::vector<GCell>& path) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    const GCell& p = path[i - 1];
    const GCell& q = path[i];
    if (p.y == q.y) {
      grid.add_h_usage(std::min(p.x, q.x), p.y, 1.0);
    } else {
      grid.add_v_usage(p.x, std::min(p.y, q.y), 1.0);
    }
  }
}

std::vector<GCell> maze_route(GridGraph& grid, GCell a, GCell b, int margin) {
  if (a == b) return {a};
  const MazeWindow win = maze_window(grid, a, b, margin);
  const int w = win.x_hi - win.x_lo + 1;
  const int h = win.y_hi - win.y_lo + 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  thread_local MazeScratch scratch;
  std::vector<double>& g = scratch.g;
  std::vector<std::vector<OpenEntry>>& open = scratch.open;
  std::size_t& end = scratch.open_end;  // no bucket from end on holds an entry
  g.assign(static_cast<std::size_t>(w) * static_cast<std::size_t>(h), kInf);
  // Also empties what an interrupted call (bad_alloc) left behind.
  for (std::size_t k = 0; k < end; ++k) open[k].clear();
  end = 0;

  const double h_cap = grid.h_capacity();
  const double v_cap = grid.v_capacity();
  // Cost of the edge right of / above gcell (x, y), in grid coordinates.
  const auto right_cost = [&](int x, int y) {
    return 1.0 + edge_penalty(grid.h_usage(x, y), h_cap, grid.h_history(x, y));
  };
  const auto up_cost = [&](int x, int y) {
    return 1.0 + edge_penalty(grid.v_usage(x, y), v_cap, grid.v_history(x, y));
  };
  const auto idx = [&](int x, int y) {
    return static_cast<std::size_t>((y - win.y_lo) * w + (x - win.x_lo));
  };
  const auto to_go = [&](int x, int y) {
    return static_cast<double>(std::abs(x - b.x) + std::abs(y - b.y));
  };
  const std::size_t target = idx(b.x, b.y);
  // Entries with f above this can neither lie on nor feed a least-cost path.
  const auto f_limit = [&] { return g[target] + 1e-7 * (1.0 + g[target]); };

  const double f0 = to_go(a.x, a.y);
  std::size_t cur = 0;  // no bucket below cur holds an entry
  const auto push = [&](double f, int x, int y) {
    const double k = (f - f0) * (1.0 / kBucketWidth);
    const std::size_t bucket = k <= 0.0                                  ? 0
                               : k >= static_cast<double>(kBuckets - 1) ? kBuckets - 1
                                                                         : static_cast<std::size_t>(k);
    open[bucket].push_back({f, x, y});
    cur = std::min(cur, bucket);
    end = std::max(end, bucket + 1);
  };
  g[idx(a.x, a.y)] = 0.0;
  push(f0, a.x, a.y);
  for (;;) {
    while (cur < end && open[cur].empty()) ++cur;
    if (cur == end) break;
    const double limit = f_limit();
    // Every entry in bucket cur has f >= f0 + (cur - 1) * kBucketWidth, with
    // a whole bucket to spare for rounding of the bucket index.
    if (f0 + (static_cast<double>(cur) - 1.0) * kBucketWidth > limit) break;
    const OpenEntry e = open[cur].back();
    open[cur].pop_back();
    if (e.f > limit) continue;
    const double gu = g[idx(e.x, e.y)];
    if (e.f > gu + to_go(e.x, e.y)) continue;  // stale: improved since the push
    const auto relax = [&](int vx, int vy, double cost) {
      const std::size_t v = idx(vx, vy);
      const double gv = gu + cost;
      if (gv < g[v]) {
        g[v] = gv;
        // The target is never expanded: its neighbours cost at least g_t + 1.
        const double f = gv + to_go(vx, vy);
        if (v != target && f <= limit) push(f, vx, vy);
      }
    };
    const int ux = e.x, uy = e.y;
    if (ux > win.x_lo) relax(ux - 1, uy, right_cost(ux - 1, uy));
    if (ux < win.x_hi) relax(ux + 1, uy, right_cost(ux, uy));
    if (uy > win.y_lo) relax(ux, uy - 1, up_cost(ux, uy - 1));
    if (uy < win.y_hi) relax(ux, uy + 1, up_cost(ux, uy));
  }
  if (g[target] == kInf) {
    std::vector<GCell> fallback = pattern_path(a, b);
    apply_usage(grid, fallback);
    return fallback;
  }

  // Rebuild backwards with Dijkstra's tie rule: the exact predecessor with
  // the smallest (g, window index).
  std::vector<GCell> path{b};
  GCell v = b;
  while (!(v == a)) {
    const double gv = g[idx(v.x, v.y)];
    GCell best = v;
    double best_g = kInf;
    std::size_t best_i = g.size();
    const auto consider = [&](int ux, int uy, double cost) {
      const std::size_t u = idx(ux, uy);
      const double gu = g[u];
      if (gu + cost == gv && (gu < best_g || (gu == best_g && u < best_i))) {
        best = {ux, uy};
        best_g = gu;
        best_i = u;
      }
    };
    if (v.x > win.x_lo) consider(v.x - 1, v.y, right_cost(v.x - 1, v.y));
    if (v.x < win.x_hi) consider(v.x + 1, v.y, right_cost(v.x, v.y));
    if (v.y > win.y_lo) consider(v.x, v.y - 1, up_cost(v.x, v.y - 1));
    if (v.y < win.y_hi) consider(v.x, v.y + 1, up_cost(v.x, v.y));
    if (best_i == g.size()) throw std::logic_error("maze_route: no exact predecessor");
    v = best;
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  apply_usage(grid, path);
  return path;
}

}  // namespace tsteiner
