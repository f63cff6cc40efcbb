// Test-only reference for the global router's maze kernel: the lazy-heap
// Dijkstra that `maze_route` ran before the A* search replaced it. It pops in
// (dist, window index) order and relaxes on strict `<`; the A* kernel must
// return the same path and commit the same usage, bit for bit (see
// tests/maze_test.cpp). The body is kept as it was.
#pragma once

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "route/maze.hpp"

namespace tsteiner::testref {

/// Dijkstra maze route within a window; commits usage. Falls back to the
/// pattern route if the window somehow excludes a path (cannot happen for a
/// bbox window, kept for safety).
inline std::vector<GCell> reference_maze_route(GridGraph& grid, GCell a, GCell b, int margin) {
  if (a == b) return {a};
  const int x_lo = std::max(0, std::min(a.x, b.x) - margin);
  const int x_hi = std::min(grid.nx() - 1, std::max(a.x, b.x) + margin);
  const int y_lo = std::max(0, std::min(a.y, b.y) - margin);
  const int y_hi = std::min(grid.ny() - 1, std::max(a.y, b.y) + margin);
  const int w = x_hi - x_lo + 1;
  const int h = y_hi - y_lo + 1;
  const auto idx = [&](int x, int y) {
    return static_cast<std::size_t>(y - y_lo) * static_cast<std::size_t>(w) +
           static_cast<std::size_t>(x - x_lo);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(w) * static_cast<std::size_t>(h), kInf);
  std::vector<int> prev(dist.size(), -1);
  using QE = std::pair<double, std::size_t>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
  dist[idx(a.x, a.y)] = 0.0;
  pq.push({0.0, idx(a.x, a.y)});
  const std::size_t target = idx(b.x, b.y);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == target) break;
    const int ux = x_lo + static_cast<int>(u % static_cast<std::size_t>(w));
    const int uy = y_lo + static_cast<int>(u / static_cast<std::size_t>(w));
    const auto relax = [&](int vx, int vy, double edge_cost) {
      const std::size_t v = idx(vx, vy);
      if (dist[u] + edge_cost < dist[v]) {
        dist[v] = dist[u] + edge_cost;
        prev[v] = static_cast<int>(u);
        pq.push({dist[v], v});
      }
    };
    if (ux > x_lo) {
      relax(ux - 1, uy,
            1.0 + edge_penalty(grid.h_usage(ux - 1, uy), grid.h_capacity(),
                               grid.h_history(ux - 1, uy)));
    }
    if (ux < x_hi) {
      relax(ux + 1, uy,
            1.0 + edge_penalty(grid.h_usage(ux, uy), grid.h_capacity(),
                               grid.h_history(ux, uy)));
    }
    if (uy > y_lo) {
      relax(ux, uy - 1,
            1.0 + edge_penalty(grid.v_usage(ux, uy - 1), grid.v_capacity(),
                               grid.v_history(ux, uy - 1)));
    }
    if (uy < y_hi) {
      relax(ux, uy + 1,
            1.0 + edge_penalty(grid.v_usage(ux, uy), grid.v_capacity(),
                               grid.v_history(ux, uy)));
    }
  }
  if (dist[target] == kInf) {
    std::vector<GCell> fallback = pattern_path(a, b);
    apply_usage(grid, fallback);
    return fallback;
  }
  // Reconstruct, then commit.
  std::vector<GCell> rev;
  for (int v = static_cast<int>(target); v != -1; v = prev[static_cast<std::size_t>(v)]) {
    rev.push_back({x_lo + static_cast<int>(static_cast<std::size_t>(v) % static_cast<std::size_t>(w)),
                   y_lo + static_cast<int>(static_cast<std::size_t>(v) / static_cast<std::size_t>(w))});
  }
  std::reverse(rev.begin(), rev.end());
  for (std::size_t i = 1; i < rev.size(); ++i) {
    const GCell& p = rev[i - 1];
    const GCell& q = rev[i];
    if (p.y == q.y) {
      grid.add_h_usage(std::min(p.x, q.x), p.y, 1.0);
    } else {
      grid.add_v_usage(p.x, std::min(p.y, q.y), 1.0);
    }
  }
  return rev;
}

}  // namespace tsteiner::testref
