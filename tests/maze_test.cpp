// Differential test of the global router's maze kernel: the A* search in
// route/maze.cpp against the Dijkstra it replaced (tests/reference_maze.hpp).
// Both run on twin grids in lockstep over random windows; every returned
// path and the grid usage after each commit must match byte for byte.
// Usages are small integers with many zeros (many equal-cost ties), history
// is 0, 1 or 2, capacities sit on both sides of the usages, margins are 0, 1
// and 12, and endpoints are drawn from the border, from a == b and from
// adjacent pairs as well as at random.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "reference_maze.hpp"
#include "route/maze.hpp"

namespace tsteiner {
namespace {

/// A grid of exactly nx x ny gcells.
GridGraph make_grid(int nx, int ny) {
  return GridGraph(RectI{{0, 0}, {nx - 1, ny - 1}}, 1);
}

void usage_of(const GridGraph& g, std::vector<double>& u) {
  u.clear();
  for (int y = 0; y < g.ny(); ++y) {
    for (int x = 0; x + 1 < g.nx(); ++x) u.push_back(g.h_usage(x, y));
  }
  for (int y = 0; y + 1 < g.ny(); ++y) {
    for (int x = 0; x < g.nx(); ++x) u.push_back(g.v_usage(x, y));
  }
}

std::vector<double> usage_of(const GridGraph& g) {
  std::vector<double> u;
  usage_of(g, u);
  return u;
}

bool same_bytes(const std::vector<GCell>& a, const std::vector<GCell>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(GCell)) == 0);
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Fill both twin grids with the same random routing state.
void randomize(std::mt19937_64& rng, GridGraph& ref, GridGraph& fast) {
  const double caps[] = {1.0, 2.0, 3.0, 3.68, 4.0, 6.5};
  std::uniform_int_distribution<int> pick_cap(0, 5);
  const double h_cap = caps[pick_cap(rng)];
  const double v_cap = caps[pick_cap(rng)];
  // Share of zero-usage edges: from empty grids (all ties) to dense ones.
  const double zero_share = std::uniform_real_distribution<double>(0.3, 1.0)(rng);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> hist(0, 2);
  const auto draw_usage = [&](double cap) {
    if (unit(rng) < zero_share) return 0.0;
    return static_cast<double>(
        std::uniform_int_distribution<int>(1, static_cast<int>(cap) + 3)(rng));
  };
  const auto draw_history = [&] { return unit(rng) < 0.8 ? 0.0 : static_cast<double>(hist(rng)); };
  for (GridGraph* g : {&ref, &fast}) {
    g->reset_routing_state();
    g->set_capacities(h_cap, v_cap);
  }
  for (int y = 0; y < ref.ny(); ++y) {
    for (int x = 0; x + 1 < ref.nx(); ++x) {
      const double u = draw_usage(h_cap), hh = draw_history();
      for (GridGraph* g : {&ref, &fast}) {
        g->add_h_usage(x, y, u);
        g->add_h_history(x, y, hh);
      }
    }
  }
  for (int y = 0; y + 1 < ref.ny(); ++y) {
    for (int x = 0; x < ref.nx(); ++x) {
      const double u = draw_usage(v_cap), hh = draw_history();
      for (GridGraph* g : {&ref, &fast}) {
        g->add_v_usage(x, y, u);
        g->add_v_history(x, y, hh);
      }
    }
  }
}

/// Endpoint pair: random, on the border, a == b, or adjacent.
std::pair<GCell, GCell> draw_endpoints(std::mt19937_64& rng, int nx, int ny) {
  std::uniform_int_distribution<int> rx(0, nx - 1), ry(0, ny - 1);
  const auto random_cell = [&] { return GCell{rx(rng), ry(rng)}; };
  const auto border_cell = [&] {
    GCell c = random_cell();
    switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
      case 0: c.x = 0; break;
      case 1: c.x = nx - 1; break;
      case 2: c.y = 0; break;
      default: c.y = ny - 1; break;
    }
    return c;
  };
  switch (std::uniform_int_distribution<int>(0, 5)(rng)) {
    case 0: return {border_cell(), border_cell()};
    case 1: return {border_cell(), random_cell()};
    case 2: {
      const GCell a = random_cell();
      return {a, a};
    }
    case 3: {
      const GCell a = random_cell();
      GCell b = a;
      if (rng() & 1) {
        b.x += a.x + 1 < nx ? 1 : -1;
      } else {
        b.y += a.y + 1 < ny ? 1 : -1;
      }
      return (rng() & 1) ? std::pair{a, b} : std::pair{b, a};
    }
    default: return {random_cell(), random_cell()};
  }
}

class MazeDifferential : public ::testing::TestWithParam<int> {};

// Ten shards of 100k searches: 1M in total.
TEST_P(MazeDifferential, AStarMatchesReferenceDijkstraBitForBit) {
  std::mt19937_64 rng(0x6d617a65ULL + static_cast<std::uint64_t>(GetParam()));
  constexpr int kSearches = 100000;
  constexpr int kSearchesPerGrid = 40;
  const int margins[] = {0, 1, 12};
  std::uniform_int_distribution<int> dim(2, 40);
  GridGraph ref, fast;
  std::vector<double> ref_usage, fast_usage;
  int nx = 0, ny = 0;
  for (int s = 0; s < kSearches; ++s) {
    if (s % kSearchesPerGrid == 0) {
      nx = dim(rng);
      ny = dim(rng);
      ref = make_grid(nx, ny);
      fast = make_grid(nx, ny);
      ASSERT_EQ(ref.nx(), nx);
      ASSERT_EQ(ref.ny(), ny);
      randomize(rng, ref, fast);
    }
    const auto [a, b] = draw_endpoints(rng, nx, ny);
    const int margin = margins[std::uniform_int_distribution<int>(0, 2)(rng)];
    const std::vector<GCell> want = testref::reference_maze_route(ref, a, b, margin);
    const std::vector<GCell> got = maze_route(fast, a, b, margin);
    ASSERT_TRUE(same_bytes(want, got))
        << "path differs: search " << s << " grid " << nx << "x" << ny << " a=(" << a.x << ","
        << a.y << ") b=(" << b.x << "," << b.y << ") margin " << margin;
    usage_of(ref, ref_usage);
    usage_of(fast, fast_usage);
    ASSERT_TRUE(same_bytes(ref_usage, fast_usage)) << "usage differs: search " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, MazeDifferential, ::testing::Range(0, 10));

// All-zero usage and history: every shortest path ties, so only the
// predecessor rule picks among them.
TEST(MazeKernel, EmptyGridTiesFollowDijkstraPopOrder) {
  for (int n : {2, 3, 7, 16}) {
    for (int margin : {0, 1, 12}) {
      for (int ax = 0; ax < n; ++ax) {
        for (int by = 0; by < n; ++by) {
          GridGraph ref = make_grid(n, n), fast = make_grid(n, n);
          const GCell a{ax, 0}, b{n - 1 - ax, by};
          const std::vector<GCell> want = testref::reference_maze_route(ref, a, b, margin);
          EXPECT_TRUE(same_bytes(want, maze_route(fast, a, b, margin)));
          EXPECT_TRUE(same_bytes(usage_of(ref), usage_of(fast)));
        }
      }
    }
  }
}

TEST(MazeKernel, SameEndpointsCommitNothing) {
  GridGraph g = make_grid(4, 4);
  const std::vector<GCell> path = maze_route(g, {2, 1}, {2, 1}, 12);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], (GCell{2, 1}));
  EXPECT_EQ(g.total_overflow(), 0.0);
  for (double u : usage_of(g)) EXPECT_EQ(u, 0.0);
}

TEST(MazeKernel, DetoursAroundOverflowWithinTheWindow) {
  GridGraph g = make_grid(5, 3);
  g.set_capacities(1.0, 1.0);
  g.add_h_usage(1, 1, 5.0);  // block the straight run on row 1
  const std::vector<GCell> path = maze_route(g, {0, 1}, {4, 1}, 1);
  EXPECT_EQ(path.front(), (GCell{0, 1}));
  EXPECT_EQ(path.back(), (GCell{4, 1}));
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(std::abs(path[i].x - path[i - 1].x) + std::abs(path[i].y - path[i - 1].y), 1);
    EXPECT_FALSE(path[i - 1].y == 1 && path[i].y == 1 &&
                 std::min(path[i - 1].x, path[i].x) == 1);
  }
  const MazeWindow win = maze_window(g, {0, 1}, {4, 1}, 1);
  EXPECT_EQ(win.x_lo, 0);
  EXPECT_EQ(win.x_hi, 4);
  EXPECT_EQ(win.y_lo, 0);
  EXPECT_EQ(win.y_hi, 2);
}

}  // namespace
}  // namespace tsteiner
