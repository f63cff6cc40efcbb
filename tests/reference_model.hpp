// Test-only reference for the fused propagation ops: TimingGnn's forward
// pass as it was composed before arrival_propagate / tree_scan / tree_reduce
// existed — every topological level and every Steiner-tree level records
// full-width gather / scatter_add_rows / add ops. The fused model must match
// it bit for bit (values, coordinate gradients, parameter gradients); see
// tests/fused_reference_test.cpp. Memory and replay work grow as
// O(levels x N), so keep the designs fed to it small.
#pragma once

#include <cmath>
#include <stdexcept>
#include <vector>

#include "autodiff/tape.hpp"
#include "gnn/graph_cache.hpp"
#include "gnn/model.hpp"
#include "util/parallel.hpp"

namespace tsteiner::testref {

inline Value reference_forward(const TimingGnn& model, Tape& tape, const GraphCache& g,
                               const TimingGnn::Bound& bound, Value xs, Value ys) {
  using P_ = TimingGnn::ParamId;
  const GnnConfig& cfg = model.config();
  const auto P = [&bound](P_ id) { return bound.handles[id]; };
  const auto S = static_cast<std::size_t>(g.num_snodes);
  const double len_scale = 1.0 / (4.0 * g.gcell);
  const double wl_scale = 1.0 / (8.0 * g.gcell);

  // ---- snode coordinates: constants + scattered movable leaves -------------
  Value sx = tape.leaf(Tensor::column(g.base_x));
  Value sy = tape.leaf(Tensor::column(g.base_y));
  if (tape.value(xs).rows() > 0) {
    sx = tape.add(sx, tape.scatter_add_rows(xs, g.movable_to_snode, S));
    sy = tape.add(sy, tape.scatter_add_rows(ys, g.movable_to_snode, S));
  }

  // ---- initial snode embeddings ---------------------------------------------
  const Value feats = tape.concat_cols({
      tape.leaf(Tensor::column(g.feat_is_steiner)),
      tape.leaf(Tensor::column(g.feat_is_driver)),
      tape.leaf(Tensor::column(g.feat_is_sink)),
      tape.leaf(Tensor::column(g.feat_degree)),
      tape.scale(sx, 1.0 / g.die_w),
      tape.scale(sy, 1.0 / g.die_h),
  });
  Value h = tape.tanh_op(tape.add(tape.matmul(feats, P(P_::kWIn)), P(P_::kBIn)));

  // ---- tree-edge lengths (differentiable in Steiner coordinates) -----------
  const bool has_edges = !g.edges->pa.empty();
  Value len_norm;   // (E x 1) normalized edge lengths
  Value plen_norm;  // (S x 1) driver->node path length
  Value elm_norm;   // (S x 1) clock-normalized geometric Elmore delay
  Value subtree;    // (S x 1) downstream capacitance (pF)
  if (has_edges) {
    const Value dx = tape.smooth_abs(
        tape.sub(tape.gather_rows(sx, g.edges->pa), tape.gather_rows(sx, g.edges->ch)),
        cfg.soft_abs_delta);
    const Value dy = tape.smooth_abs(
        tape.sub(tape.gather_rows(sy, g.edges->pa), tape.gather_rows(sy, g.edges->ch)),
        cfg.soft_abs_delta);
    const Value len = tape.add(dx, dy);  // DBU
    len_norm = tape.scale(len, len_scale);

    // Per-level index slices (edges sorted by depth in the cache). Levels
    // stay sequential; within a level the edge slices are assembled with
    // indexed parallel writes.
    std::vector<std::vector<int>> lvl_idx, lvl_pa, lvl_ch;
    for (std::size_t l = 0; l + 1 < g.edges->level_off.size(); ++l) {
      const int lo = g.edges->level_off[l];
      const int hi = g.edges->level_off[l + 1];
      if (lo == hi) continue;
      const auto n = static_cast<std::size_t>(hi - lo);
      std::vector<int> idx(n), pa(n), ch(n);
      parallel_for(0, n, 512, [&](std::size_t blo, std::size_t bhi) {
        for (std::size_t i = blo; i < bhi; ++i) {
          const std::size_t e = static_cast<std::size_t>(lo) + i;
          idx[i] = static_cast<int>(e);
          pa[i] = g.edges->pa[e];
          ch[i] = g.edges->ch[e];
        }
      });
      lvl_idx.push_back(std::move(idx));
      lvl_pa.push_back(std::move(pa));
      lvl_ch.push_back(std::move(ch));
    }

    // Exact path lengths, accumulated level-by-level (each node has exactly
    // one parent edge, so a single scatter per level suffices).
    Value plen = tape.leaf(Tensor::zeros(S, 1));
    for (std::size_t l = 0; l < lvl_idx.size(); ++l) {
      const Value level_len = tape.gather_rows(len_norm, lvl_idx[l]);
      const Value reach = tape.add(tape.gather_rows(plen, lvl_pa[l]), level_len);
      plen = tape.add(plen, tape.scatter_add_rows(reach, lvl_ch[l], S));
    }
    plen_norm = plen;

    // Geometric Elmore delay, fully on-tape (the physics that links Steiner
    // positions to sign-off net delay; routed-length quantization, detours
    // and slew effects are the residual the learned heads absorb).
    // 1. node capacitance: sink pin caps + half of each adjacent edge's wire.
    const Value half_cap = tape.scale(len, 0.5 * g.wire_cap);
    Value node_cap = tape.leaf(Tensor::column(g.snode_pin_cap));
    node_cap = tape.add(node_cap, tape.scatter_add_rows(half_cap, g.edges->pa, S));
    node_cap = tape.add(node_cap, tape.scatter_add_rows(half_cap, g.edges->ch, S));
    // 2. subtree capacitance: deepest level first.
    subtree = node_cap;
    for (std::size_t l = lvl_idx.size(); l-- > 0;) {
      subtree = tape.add(
          subtree,
          tape.scatter_add_rows(tape.gather_rows(subtree, lvl_ch[l]), lvl_pa[l], S));
    }
    // 3. Elmore: elm[child] = elm[parent] + R_edge * C_subtree(child).
    Value elm = tape.leaf(Tensor::zeros(S, 1));
    for (std::size_t l = 0; l < lvl_idx.size(); ++l) {
      const Value r_edge = tape.scale(tape.gather_rows(len, lvl_idx[l]), g.wire_res);
      const Value contrib = tape.mul(r_edge, tape.gather_rows(subtree, lvl_ch[l]));
      const Value reach = tape.add(tape.gather_rows(elm, lvl_pa[l]), contrib);
      elm = tape.add(elm, tape.scatter_add_rows(reach, lvl_ch[l], S));
    }
    elm_norm = tape.scale(elm, 1.0 / g.clock);
  } else {
    len_norm = tape.leaf(Tensor::zeros(0, 1));
    plen_norm = tape.leaf(Tensor::zeros(S, 1));
    elm_norm = tape.leaf(Tensor::zeros(S, 1));
    subtree = tape.leaf(Tensor::column(g.snode_pin_cap));
  }

  // ---- Steiner-graph iterations: broadcast then reduce ----------------------
  for (int it = 0; it < cfg.steiner_iters; ++it) {
    if (has_edges) {
      const Value hp = tape.gather_rows(h, g.edges->pa);
      const Value hc = tape.gather_rows(h, g.edges->ch);
      const Value msg = tape.relu(
          tape.add(tape.matmul(tape.concat_cols({hp, hc, len_norm}), P(P_::kWB)), P(P_::kBB)));
      const Value agg = tape.scatter_add_rows(msg, g.edges->ch, S);
      h = tape.tanh_op(tape.add(
          tape.add(tape.matmul(h, P(P_::kWU1)), tape.matmul(agg, P(P_::kWU2))), P(P_::kBU)));
    }
    if (!g.sink_snode.empty()) {
      const Value hs = tape.gather_rows(h, g.sink_snode);
      const Value ps = tape.gather_rows(plen_norm, g.sink_snode);
      const Value rmsg = tape.relu(
          tape.add(tape.matmul(tape.concat_cols({hs, ps}), P(P_::kWR)), P(P_::kBR)));
      const Value ragg = tape.scatter_add_rows(rmsg, g.sink_driver_snode, S);
      h = tape.tanh_op(tape.add(
          tape.add(tape.matmul(h, P(P_::kWU3)), tape.matmul(ragg, P(P_::kWU4))), P(P_::kBU2)));
    }
  }

  // ---- per-tree load features --------------------------------------------------
  Value tree_wl;       // (num_trees x 1), normalized wirelength
  Value tree_cap_pf;   // (num_trees x 1), total load capacitance (pF)
  Value tree_cap;      // (num_trees x 1), normalized
  if (has_edges && g.num_trees > 0) {
    tree_wl = tape.scale(
        tape.segment_sum(len_norm, g.edge_tree, static_cast<std::size_t>(g.num_trees)),
        len_scale > 0 ? (wl_scale / len_scale) : 1.0);
    tree_cap_pf = tape.gather_rows(subtree, g.tree_driver_snode);
    tree_cap = tape.scale(tree_cap_pf, 1.0 / 0.05);
  } else {
    tree_wl = tape.leaf(Tensor::zeros(std::max(1, g.num_trees), 1));
    tree_cap_pf = tape.leaf(Tensor::zeros(std::max(1, g.num_trees), 1));
    tree_cap = tree_cap_pf;
  }

  // ---- netlist propagation -----------------------------------------------------
  const auto NP = static_cast<std::size_t>(g.num_pins);
  Value arrival = tape.leaf(Tensor::zeros(NP, 1));

  // Startpoints: register CK->Q. Physical anchor (intrinsic + R * C_load,
  // both from the library / on-tape load) times a bounded learned correction
  // — the correction absorbs slew and table nonlinearity.
  if (!g.regq_pins.empty()) {
    const Value q_in = tape.concat_cols({
        tape.gather_rows(tree_wl, g.regq_tree),
        tape.gather_rows(tree_cap, g.regq_tree),
        tape.leaf(Tensor::column(g.regq_res)),
    });
    const Value q_hidden = tape.relu(tape.add(tape.matmul(q_in, P(P_::kWS1)), P(P_::kBS1)));
    Value q;
    if (cfg.physics_anchor) {
      const Value corr =
          tape.tanh_op(tape.add(tape.matmul(q_hidden, P(P_::kWS2)), P(P_::kBS2)));
      const Value phys = tape.scale(
          tape.add(tape.leaf(Tensor::column(g.regq_intrinsic)),
                   tape.mul(tape.leaf(Tensor::column(g.regq_res)),
                            tape.gather_rows(tree_cap_pf, g.regq_tree))),
          1.0 / g.clock);
      q = tape.mul(phys, tape.add_scalar(tape.scale(corr, 0.5), 1.0));
    } else {
      q = tape.softplus(tape.add(tape.matmul(q_hidden, P(P_::kWS2)), P(P_::kBS2)));
    }
    arrival = tape.add(arrival, tape.scatter_add_rows(q, g.regq_pins, NP));
  }

  // Level-by-level propagation: cell arcs into level l, then net arcs out of
  // drivers at level l.
  for (int l = 0; l <= g.num_levels; ++l) {
    // Cell arcs whose output pin sits at level l.
    if (l + 1 < static_cast<int>(g.cell_arc_off.size())) {
      const int lo = g.cell_arc_off[static_cast<std::size_t>(l)];
      const int hi = g.cell_arc_off[static_cast<std::size_t>(l) + 1];
      if (lo < hi) {
        const auto n = static_cast<std::size_t>(hi - lo);
        std::vector<int> in_pins(n), types(n), trees(n), segs(n);
        std::vector<double> caps(n), ress(n), intrs(n);
        parallel_for(0, n, 512, [&](std::size_t blo, std::size_t bhi) {
          for (std::size_t i = blo; i < bhi; ++i) {
            const GraphCache::CellArc& a = g.cell_arcs[static_cast<std::size_t>(lo) + i];
            in_pins[i] = a.in_pin;
            types[i] = a.type;
            trees[i] = g.cell_arc_tree[static_cast<std::size_t>(lo) + i];
            caps[i] = g.cell_arc_cap[static_cast<std::size_t>(lo) + i];
            ress[i] = g.cell_arc_res[static_cast<std::size_t>(lo) + i];
            intrs[i] = g.cell_arc_intrinsic[static_cast<std::size_t>(lo) + i];
            segs[i] = g.cell_arc_seg[static_cast<std::size_t>(lo) + i];
          }
        });
        const Value emb = tape.gather_rows(P(P_::kTypeEmb), types);
        const Value d_in = tape.concat_cols({
            emb,
            tape.gather_rows(tree_wl, trees),
            tape.gather_rows(tree_cap, trees),
            tape.leaf(Tensor::column(caps)),
            tape.leaf(Tensor::column(ress)),
        });
        const Value c_hidden =
            tape.relu(tape.add(tape.matmul(d_in, P(P_::kWC1)), P(P_::kBC1)));
        Value delay;
        if (cfg.physics_anchor) {
          const Value corr =
              tape.tanh_op(tape.add(tape.matmul(c_hidden, P(P_::kWC2)), P(P_::kBC2)));
          // Physical anchor: intrinsic + R_drive * C_load (Elmore-consistent
          // first-order gate model), bounded learned correction on top.
          const Value phys = tape.scale(
              tape.add(tape.leaf(Tensor::column(intrs)),
                       tape.mul(tape.leaf(Tensor::column(ress)),
                                tape.gather_rows(tree_cap_pf, trees))),
              1.0 / g.clock);
          delay = tape.mul(phys, tape.add_scalar(tape.scale(corr, 0.5), 1.0));
        } else {
          delay = tape.softplus(tape.add(tape.matmul(c_hidden, P(P_::kWC2)), P(P_::kBC2)));
        }
        const Value cand = tape.add(tape.gather_rows(arrival, in_pins), delay);
        const int out_lo = g.cell_out_off[static_cast<std::size_t>(l)];
        const int out_hi = g.cell_out_off[static_cast<std::size_t>(l) + 1];
        const auto num_out = static_cast<std::size_t>(out_hi - out_lo);
        const Value out_arr = tape.segment_max(cand, segs, num_out, 0.0);
        std::vector<int> out_pins(num_out);
        for (std::size_t i = 0; i < num_out; ++i) {
          out_pins[i] = g.cell_out_pins[static_cast<std::size_t>(out_lo) + i];
        }
        arrival = tape.add(arrival, tape.scatter_add_rows(out_arr, out_pins, NP));
      }
    }
    // Net arcs from drivers at level l.
    if (l + 1 < static_cast<int>(g.net_arc_off.size())) {
      const int lo = g.net_arc_off[static_cast<std::size_t>(l)];
      const int hi = g.net_arc_off[static_cast<std::size_t>(l) + 1];
      if (lo < hi) {
        const auto n = static_cast<std::size_t>(hi - lo);
        std::vector<int> drv(n), snk(n), s_snode(n), trees(n), d_snode(n);
        parallel_for(0, n, 512, [&](std::size_t blo, std::size_t bhi) {
          for (std::size_t i = blo; i < bhi; ++i) {
            const GraphCache::NetArc& a = g.net_arcs[static_cast<std::size_t>(lo) + i];
            drv[i] = a.driver_pin;
            snk[i] = a.sink_pin;
            s_snode[i] = g.net_arc_sink_snode[static_cast<std::size_t>(lo) + i];
            trees[i] = g.net_arc_tree[static_cast<std::size_t>(lo) + i];
            d_snode[i] = g.pin_snode[static_cast<std::size_t>(a.driver_pin)];
            if (d_snode[i] < 0) throw std::runtime_error("driver pin missing snode");
          }
        });
        const Value elm_s = tape.gather_rows(elm_norm, s_snode);
        const Value n_in = tape.concat_cols({
            tape.gather_rows(h, s_snode),
            tape.gather_rows(h, d_snode),
            tape.gather_rows(plen_norm, s_snode),
            elm_s,
            tape.gather_rows(tree_wl, trees),
        });
        const Value hidden_n =
            tape.relu(tape.add(tape.matmul(n_in, P(P_::kWN1)), P(P_::kBN1)));
        Value ndelay;
        if (cfg.physics_anchor) {
          // net delay = Elmore x bounded correction + small learned additive
          // term (captures gcell quantization and congestion detours).
          const Value mult =
              tape.tanh_op(tape.add(tape.matmul(hidden_n, P(P_::kWN2)), P(P_::kBN2)));
          const Value addi =
              tape.softplus(tape.add(tape.matmul(hidden_n, P(P_::kWN3)), P(P_::kBN3)));
          ndelay = tape.add(tape.mul(elm_s, tape.add_scalar(tape.scale(mult, 0.5), 1.0)),
                            tape.scale(addi, 0.02));
        } else {
          ndelay = tape.softplus(tape.add(tape.matmul(hidden_n, P(P_::kWN2)), P(P_::kBN2)));
        }
        const Value a_sink = tape.add(tape.gather_rows(arrival, drv), ndelay);
        arrival = tape.add(arrival, tape.scatter_add_rows(a_sink, snk, NP));
      }
    }
  }
  return arrival;
}


}  // namespace tsteiner::testref
