// Maze search kernel of the global router, and the path primitives it shares
// with pattern routing.
//
// `maze_route` finds the least-cost gcell path a -> b inside a window (the
// endpoints' bounding box grown by a margin) and commits its usage. Every
// edge costs 1 + edge_penalty(usage, capacity, history) >= 1, so the search
// is A* with h(v) = Manhattan gcell distance to b: one step changes h by
// exactly 1, which makes h consistent. The search keeps popping until no open
// entry has f = g + h at or below g(b) plus a relative slack of
// 1e-7 * (1 + g(b)) that absorbs floating-point rounding of f. At that point
// g is exact on every gcell that lies on, or feeds a tie onto, a least-cost
// path: such a gcell's f is within the limit, and so is every gcell before
// it on a least-cost path to it, so each of those was expanded with its final
// g. That holds whatever order entries were popped in, which is why the open
// list can be a bucket queue that orders f only to within a quarter of the
// unit edge cost. The path is then rebuilt from b backwards: each gcell v
// steps to the neighbour u with the smallest (g[u], window index of u) among
// those with g[u] + cost(u, v) == g[v]. That is exactly the predecessor a
// lazy-heap Dijkstra that pops in (dist, index) order and relaxes on strict
// `<` keeps, so the path is bit-identical to that Dijkstra's
// (tests/reference_maze.hpp keeps it as the reference).
//
// The search reads only the usage and history of edges with both ends inside
// the window, plus the two capacities, so it is a pure function of those and
// the endpoints. The router's replay cache relies on that. Scratch buffers
// are thread-local: no state survives between calls.
#pragma once

#include <vector>

#include "route/grid.hpp"

namespace tsteiner {

/// Inclusive gcell window a maze search for a -> b reads and routes in.
struct MazeWindow {
  int x_lo = 0, y_lo = 0, x_hi = 0, y_hi = 0;
};

/// The endpoints' bounding box grown by `margin`, clipped to the grid.
MazeWindow maze_window(const GridGraph& grid, GCell a, GCell b, int margin);

/// Congestion cost of crossing one gcell edge with current usage u and
/// capacity c: gentle below capacity, steep above (negotiated congestion).
double edge_penalty(double usage, double cap, double history);

/// Route a -> b with one of the two L-patterns, chosen by endpoint parity so
/// bends spread evenly. A pure function of the endpoints (maze.cpp says why).
std::vector<GCell> pattern_path(GCell a, GCell b);

/// Add one unit of usage to every edge of `path`.
void apply_usage(GridGraph& grid, const std::vector<GCell>& path);

/// Least-cost path a -> b within maze_window(grid, a, b, margin); commits
/// its usage. Falls back to the pattern route if the window excludes a path
/// (cannot happen for a bbox window, kept for safety).
std::vector<GCell> maze_route(GridGraph& grid, GCell a, GCell b, int margin);

}  // namespace tsteiner
