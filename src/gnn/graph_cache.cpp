#include "gnn/graph_cache.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <unordered_map>

namespace tsteiner {

std::shared_ptr<const GraphCache> build_graph_cache(const Design& design,
                                                    const SteinerForest& forest) {
  auto cache = std::make_shared<GraphCache>();
  GraphCache& g = *cache;

  g.num_pins = static_cast<int>(design.pins().size());
  g.num_trees = static_cast<int>(forest.trees.size());
  g.die_w = std::max<double>(1.0, static_cast<double>(design.die().width()));
  g.die_h = std::max<double>(1.0, static_cast<double>(design.die().height()));
  g.clock = std::max(1e-9, design.clock_period());
  g.wire_res = design.library().wire_res_kohm_per_dbu();
  g.wire_cap = design.library().wire_cap_pf_per_dbu();

  // ---- snode flattening ----------------------------------------------------
  std::vector<int> tree_node_base(forest.trees.size() + 1, 0);
  for (std::size_t t = 0; t < forest.trees.size(); ++t) {
    tree_node_base[t + 1] =
        tree_node_base[t] + static_cast<int>(forest.trees[t].nodes.size());
  }
  g.num_snodes = tree_node_base.back();
  g.base_x.assign(static_cast<std::size_t>(g.num_snodes), 0.0);
  g.base_y.assign(static_cast<std::size_t>(g.num_snodes), 0.0);
  g.feat_is_steiner.assign(static_cast<std::size_t>(g.num_snodes), 0.0);
  g.feat_is_driver.assign(static_cast<std::size_t>(g.num_snodes), 0.0);
  g.feat_is_sink.assign(static_cast<std::size_t>(g.num_snodes), 0.0);
  g.feat_degree.assign(static_cast<std::size_t>(g.num_snodes), 0.0);
  g.snode_pin_cap.assign(static_cast<std::size_t>(g.num_snodes), 0.0);
  g.pin_snode.assign(static_cast<std::size_t>(g.num_pins), -1);
  g.tree_driver_snode.assign(forest.trees.size(), -1);

  auto snode_of = [&](int tree, int node) {
    return tree_node_base[static_cast<std::size_t>(tree)] + node;
  };

  for (std::size_t t = 0; t < forest.trees.size(); ++t) {
    const SteinerTree& tree = forest.trees[t];
    for (std::size_t n = 0; n < tree.nodes.size(); ++n) {
      const SteinerNode& node = tree.nodes[n];
      const auto s = static_cast<std::size_t>(snode_of(static_cast<int>(t), static_cast<int>(n)));
      if (node.is_steiner()) {
        g.feat_is_steiner[s] = 1.0;
        // base stays zero; coordinates come from the movable leaves
      } else {
        const PointI pos = design.pin_position(node.pin);
        g.base_x[s] = static_cast<double>(pos.x);
        g.base_y[s] = static_cast<double>(pos.y);
        g.pin_snode[static_cast<std::size_t>(node.pin)] = static_cast<int>(s);
        if (static_cast<int>(n) == tree.driver_node) {
          g.feat_is_driver[s] = 1.0;
          g.tree_driver_snode[t] = static_cast<int>(s);
        } else {
          g.feat_is_sink[s] = 1.0;
          g.snode_pin_cap[s] = design.pin_cap(node.pin);
        }
      }
    }
    const auto adj = tree.adjacency();
    for (std::size_t n = 0; n < tree.nodes.size(); ++n) {
      g.feat_degree[static_cast<std::size_t>(snode_of(static_cast<int>(t), static_cast<int>(n)))] =
          static_cast<double>(adj[n].size()) / 4.0;
    }
  }

  g.movable_to_snode.resize(forest.movable().size());
  for (std::size_t m = 0; m < forest.movable().size(); ++m) {
    const MovableRef& r = forest.movable()[m];
    g.movable_to_snode[m] = snode_of(r.tree, r.node);
  }

  // ---- directed tree edges by depth level -----------------------------------
  struct DepthEdge {
    int depth, pa, ch, tree;
  };
  std::vector<DepthEdge> dedges;
  for (std::size_t t = 0; t < forest.trees.size(); ++t) {
    const SteinerTree& tree = forest.trees[t];
    const auto parent = tree.parents_from_driver();
    // depth via BFS order
    std::vector<int> depth(tree.nodes.size(), 0);
    const auto adj = tree.adjacency();
    std::queue<int> q;
    q.push(tree.driver_node);
    std::vector<char> seen(tree.nodes.size(), 0);
    seen[static_cast<std::size_t>(tree.driver_node)] = 1;
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int v : adj[static_cast<std::size_t>(u)]) {
        if (seen[static_cast<std::size_t>(v)]) continue;
        seen[static_cast<std::size_t>(v)] = 1;
        depth[static_cast<std::size_t>(v)] = depth[static_cast<std::size_t>(u)] + 1;
        dedges.push_back({depth[static_cast<std::size_t>(v)],
                          snode_of(static_cast<int>(t), u), snode_of(static_cast<int>(t), v),
                          static_cast<int>(t)});
        q.push(v);
      }
    }
    // Reduce edges (net edges in the Steiner graph): sink -> driver.
    const Net& net = design.net(tree.net);
    for (int sp : net.sink_pins) {
      int node_idx = -1;
      for (std::size_t n = 0; n < tree.nodes.size(); ++n) {
        if (tree.nodes[n].pin == sp) {
          node_idx = static_cast<int>(n);
          break;
        }
      }
      if (node_idx < 0) throw std::runtime_error("sink not found in tree");
      g.sink_snode.push_back(snode_of(static_cast<int>(t), node_idx));
      g.sink_driver_snode.push_back(snode_of(static_cast<int>(t), tree.driver_node));
    }
  }
  std::stable_sort(dedges.begin(), dedges.end(),
                   [](const DepthEdge& a, const DepthEdge& b) { return a.depth < b.depth; });
  int max_depth = 0;
  for (const DepthEdge& e : dedges) max_depth = std::max(max_depth, e.depth);
  auto edges = std::make_shared<TreeIndex>();
  edges->num_nodes = static_cast<std::size_t>(g.num_snodes);
  edges->level_off.assign(static_cast<std::size_t>(max_depth) + 2, 0);
  for (const DepthEdge& e : dedges) ++edges->level_off[static_cast<std::size_t>(e.depth) + 1];
  for (std::size_t l = 1; l < edges->level_off.size(); ++l) {
    edges->level_off[l] += edges->level_off[l - 1];
  }
  edges->pa.reserve(dedges.size());
  edges->ch.reserve(dedges.size());
  for (const DepthEdge& e : dedges) {
    edges->pa.push_back(e.pa);
    edges->ch.push_back(e.ch);
    g.edge_tree.push_back(e.tree);
  }
  g.edges = std::move(edges);

  // ---- per-net constants -----------------------------------------------------
  const std::vector<int>& net_tree = forest.net_to_tree;
  std::vector<double> net_sink_cap(design.nets().size(), 0.0);   // sum of sink pin caps (pF)
  std::vector<double> net_drive_res(design.nets().size(), 1.0);  // driver's drive res
  for (const Net& n : design.nets()) {
    double cap = 0.0;
    for (int s : n.sink_pins) cap += design.pin_cap(s);
    net_sink_cap[static_cast<std::size_t>(n.id)] = cap;
    const Pin& drv = design.pin(n.driver_pin);
    net_drive_res[static_cast<std::size_t>(n.id)] =
        drv.cell >= 0 ? design.cell_type(drv.cell).drive_res_kohm : 0.5;
  }

  // ---- netlist arcs grouped by level -----------------------------------------
  const std::vector<int> level = design.pin_levels();
  int max_pin_level = 0;
  for (int l : level) max_pin_level = std::max(max_pin_level, l);
  g.num_levels = max_pin_level + 1;

  std::vector<std::vector<GraphCache::NetArc>> net_by_level(
      static_cast<std::size_t>(g.num_levels));
  for (const Net& n : design.nets()) {
    const int dl = level[static_cast<std::size_t>(n.driver_pin)];
    for (int sp : n.sink_pins) {
      net_by_level[static_cast<std::size_t>(dl)].push_back({n.driver_pin, sp, n.id});
    }
  }
  std::vector<std::vector<GraphCache::CellArc>> cell_by_level(
      static_cast<std::size_t>(g.num_levels) + 1);
  for (const Cell& c : design.cells()) {
    if (design.is_register_cell(c.id)) continue;
    const int ol = level[static_cast<std::size_t>(c.output_pin)];
    const int out_net = design.pin(c.output_pin).net;
    for (int ip : c.input_pins) {
      cell_by_level[static_cast<std::size_t>(ol)].push_back({ip, c.output_pin, c.type, out_net});
    }
  }
  g.net_arc_off.assign(static_cast<std::size_t>(g.num_levels) + 1, 0);
  for (int l = 0; l < g.num_levels; ++l) {
    g.net_arc_off[static_cast<std::size_t>(l) + 1] =
        g.net_arc_off[static_cast<std::size_t>(l)] +
        static_cast<int>(net_by_level[static_cast<std::size_t>(l)].size());
    for (const auto& a : net_by_level[static_cast<std::size_t>(l)]) g.net_arcs.push_back(a);
  }
  g.cell_arc_off.assign(static_cast<std::size_t>(g.num_levels) + 2, 0);
  for (int l = 0; l <= g.num_levels; ++l) {
    g.cell_arc_off[static_cast<std::size_t>(l) + 1] =
        g.cell_arc_off[static_cast<std::size_t>(l)] +
        static_cast<int>(cell_by_level[static_cast<std::size_t>(l)].size());
    for (const auto& a : cell_by_level[static_cast<std::size_t>(l)]) g.cell_arcs.push_back(a);
  }

  // ---- derived per-arc arrays -----------------------------------------------
  g.net_arc_sink_snode.reserve(g.net_arcs.size());
  g.net_arc_driver_snode.reserve(g.net_arcs.size());
  g.net_arc_tree.reserve(g.net_arcs.size());
  for (const GraphCache::NetArc& a : g.net_arcs) {
    const int s = g.pin_snode[static_cast<std::size_t>(a.sink_pin)];
    if (s < 0) throw std::runtime_error("net-arc sink missing snode");
    g.net_arc_sink_snode.push_back(s);
    const int d = g.pin_snode[static_cast<std::size_t>(a.driver_pin)];
    if (d < 0) throw std::runtime_error("driver pin missing snode");
    g.net_arc_driver_snode.push_back(d);
    const int t = net_tree[static_cast<std::size_t>(a.net)];
    if (t < 0) throw std::runtime_error("net-arc net missing tree");
    g.net_arc_tree.push_back(t);
  }
  g.cell_arc_tree.reserve(g.cell_arcs.size());
  g.cell_arc_cap.reserve(g.cell_arcs.size());
  g.cell_arc_res.reserve(g.cell_arcs.size());
  for (const GraphCache::CellArc& a : g.cell_arcs) {
    // Every combinational output drives a net in generated designs; nets
    // always have a tree because dangling outputs get tied to POs.
    const int t = a.out_net >= 0 ? net_tree[static_cast<std::size_t>(a.out_net)] : -1;
    g.cell_arc_tree.push_back(std::max(t, 0));  // tree 0 as harmless fallback
    g.cell_arc_cap.push_back(
        a.out_net >= 0 ? net_sink_cap[static_cast<std::size_t>(a.out_net)] : 0.0);
    const CellType& type = design.library().type(a.type);
    g.cell_arc_res.push_back(type.drive_res_kohm);
    const int slot = design.pin(a.in_pin).input_slot;
    g.cell_arc_intrinsic.push_back(
        type.arcs[static_cast<std::size_t>(slot)].delay.lookup(0.03, 0.001));
  }
  // Per-level output-pin segments for the max reduction.
  g.cell_arc_seg.assign(g.cell_arcs.size(), 0);
  g.cell_out_off.assign(1, 0);
  for (std::size_t l = 0; l + 1 < g.cell_arc_off.size(); ++l) {
    const int lo = g.cell_arc_off[l];
    const int hi = g.cell_arc_off[l + 1];
    std::vector<int> outs;
    std::unordered_map<int, int> seg_of;
    for (int i = lo; i < hi; ++i) {
      const int op = g.cell_arcs[static_cast<std::size_t>(i)].out_pin;
      auto [it, inserted] = seg_of.try_emplace(op, static_cast<int>(outs.size()));
      if (inserted) outs.push_back(op);
      g.cell_arc_seg[static_cast<std::size_t>(i)] = it->second;
    }
    for (int op : outs) g.cell_out_pins.push_back(op);
    g.cell_out_off.push_back(static_cast<int>(g.cell_out_pins.size()));
  }

  // ---- startpoints -------------------------------------------------------------
  for (const Cell& c : design.cells()) {
    if (!design.is_register_cell(c.id)) continue;
    const int net = design.pin(c.output_pin).net;
    if (net < 0) continue;
    g.regq_pins.push_back(c.output_pin);
    g.regq_tree.push_back(std::max(0, net_tree[static_cast<std::size_t>(net)]));
    g.regq_cap.push_back(net_sink_cap[static_cast<std::size_t>(net)]);
    g.regq_res.push_back(net_drive_res[static_cast<std::size_t>(net)]);
    const CellType& type = design.cell_type(c.id);
    g.regq_intrinsic.push_back(type.arcs[0].delay.lookup(0.05, 0.001));
  }

  // ---- arrival propagation stages ---------------------------------------------
  auto arr = std::make_shared<ArrivalIndex>();
  arr->num_pins = static_cast<std::size_t>(g.num_pins);
  const auto close_stage = [&](GraphCache::Stage::Kind kind, int lo, int hi) {
    g.stages.push_back({kind, lo, hi});
    arr->stage_arc_off.push_back(static_cast<int>(arr->arc_src.size()));
    arr->stage_seg_off.push_back(static_cast<int>(arr->seg_dst.size()));
  };
  // One segment per arc: the stage writes each arc's own output pin.
  const auto add_arc = [&arr](int src, int dst) {
    arr->arc_src.push_back(src);
    arr->arc_seg.push_back(static_cast<int>(arr->seg_dst.size()));
    arr->seg_dst.push_back(dst);
  };
  if (!g.regq_pins.empty()) {
    for (int q : g.regq_pins) add_arc(-1, q);
    close_stage(GraphCache::Stage::kRegQ, 0, static_cast<int>(g.regq_pins.size()));
  }
  for (int l = 0; l <= g.num_levels; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    if (lu + 1 < g.cell_arc_off.size() && g.cell_arc_off[lu] < g.cell_arc_off[lu + 1]) {
      const int seg_base = static_cast<int>(arr->seg_dst.size());
      for (int i = g.cell_arc_off[lu]; i < g.cell_arc_off[lu + 1]; ++i) {
        arr->arc_src.push_back(g.cell_arcs[static_cast<std::size_t>(i)].in_pin);
        arr->arc_seg.push_back(seg_base + g.cell_arc_seg[static_cast<std::size_t>(i)]);
      }
      for (int o = g.cell_out_off[lu]; o < g.cell_out_off[lu + 1]; ++o) {
        arr->seg_dst.push_back(g.cell_out_pins[static_cast<std::size_t>(o)]);
      }
      close_stage(GraphCache::Stage::kCell, g.cell_arc_off[lu], g.cell_arc_off[lu + 1]);
    }
    if (lu + 1 < g.net_arc_off.size() && g.net_arc_off[lu] < g.net_arc_off[lu + 1]) {
      for (int i = g.net_arc_off[lu]; i < g.net_arc_off[lu + 1]; ++i) {
        const GraphCache::NetArc& a = g.net_arcs[static_cast<std::size_t>(i)];
        add_arc(a.driver_pin, a.sink_pin);
      }
      close_stage(GraphCache::Stage::kNet, g.net_arc_off[lu], g.net_arc_off[lu + 1]);
    }
  }
  g.arrival = std::move(arr);

  return cache;
}

}  // namespace tsteiner
