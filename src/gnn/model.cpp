#include "gnn/model.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tsteiner {

namespace {

template <class T>
std::vector<T> slice(const std::vector<T>& v, int lo, int hi) {
  return std::vector<T>(v.begin() + lo, v.begin() + hi);
}

}  // namespace

TimingGnn::TimingGnn(const GnnConfig& config, int num_cell_types) : cfg_(config) {
  Rng rng(config.seed);
  const auto H = static_cast<std::size_t>(cfg_.hidden);
  const auto E = static_cast<std::size_t>(cfg_.type_embed);
  const auto D = static_cast<std::size_t>(cfg_.delay_hidden);
  const auto T = static_cast<std::size_t>(num_cell_types);
  auto xavier = [&rng](std::size_t rows, std::size_t cols) {
    return Tensor::randn(rng, rows, cols, std::sqrt(2.0 / static_cast<double>(rows + cols)));
  };
  params_.resize(kNumParams);
  params_[kWIn] = xavier(6, H);
  params_[kBIn] = Tensor::zeros(1, H);
  params_[kWB] = xavier(2 * H + 1, H);
  params_[kBB] = Tensor::zeros(1, H);
  params_[kWU1] = xavier(H, H);
  params_[kWU2] = xavier(H, H);
  params_[kBU] = Tensor::zeros(1, H);
  params_[kWR] = xavier(H + 1, H);
  params_[kBR] = Tensor::zeros(1, H);
  params_[kWU3] = xavier(H, H);
  params_[kWU4] = xavier(H, H);
  params_[kBU2] = Tensor::zeros(1, H);
  params_[kTypeEmb] = xavier(T, E);
  params_[kWC1] = xavier(E + 4, D);
  params_[kBC1] = Tensor::zeros(1, D);
  params_[kWC2] = xavier(D, 1);
  params_[kBC2] = Tensor::zeros(1, 1);
  params_[kWN1] = xavier(2 * H + 3, D);
  params_[kBN1] = Tensor::zeros(1, D);
  params_[kWN2] = xavier(D, 1);
  params_[kBN2] = Tensor::zeros(1, 1);
  params_[kWN3] = xavier(D, 1);
  params_[kBN3] = Tensor::zeros(1, 1);
  params_[kWS1] = xavier(3, 8);
  params_[kBS1] = Tensor::zeros(1, 8);
  params_[kWS2] = xavier(8, 1);
  params_[kBS2] = Tensor::zeros(1, 1);
}

TimingGnn::Bound TimingGnn::bind(Tape& tape) const {
  Bound b;
  b.handles.reserve(params_.size());
  for (const Tensor& p : params_) b.handles.push_back(tape.leaf(p, /*requires_grad=*/true));
  return b;
}

void TimingGnn::accumulate_param_grads(const Tape& tape, const Bound& bound,
                                       std::vector<Tensor>& grads) const {
  if (grads.size() != params_.size()) {
    grads.clear();
    for (const Tensor& p : params_) grads.push_back(Tensor::zeros(p.rows(), p.cols()));
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const Tensor& g = tape.grad(bound.handles[i]);
    if (g.size() == 0) continue;
    for (std::size_t k = 0; k < g.size(); ++k) grads[i][k] += g[k];
  }
}

Value TimingGnn::forward(Tape& tape, const GraphCache& g, const Bound& bound, Value xs,
                         Value ys) const {
  TS_TRACE_SPAN_CAT("gnn.forward", "gnn");
  static obs::Counter& m_forwards = obs::metrics().counter("gnn.forwards");
  m_forwards.add();
  const auto P = [&bound](ParamId id) { return bound.handles[id]; };
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
  Value h = tape.tanh_op(tape.add(tape.matmul(feats, P(kWIn)), P(kBIn)));

  // ---- tree-edge lengths (differentiable in Steiner coordinates) -----------
  const bool has_edges = !g.edges->pa.empty();
  Value len_norm;   // (E x 1) normalized edge lengths
  Value plen_norm;  // (S x 1) driver->node path length
  Value elm_norm;   // (S x 1) clock-normalized geometric Elmore delay
  Value subtree;    // (S x 1) downstream capacitance (pF)
  if (has_edges) {
    const Value dx = tape.smooth_abs(
        tape.sub(tape.gather_rows(sx, g.edges->pa), tape.gather_rows(sx, g.edges->ch)),
        cfg_.soft_abs_delta);
    const Value dy = tape.smooth_abs(
        tape.sub(tape.gather_rows(sy, g.edges->pa), tape.gather_rows(sy, g.edges->ch)),
        cfg_.soft_abs_delta);
    const Value len = tape.add(dx, dy);  // DBU
    len_norm = tape.scale(len, len_scale);

    // Exact driver->node path lengths: one root-to-leaf scan.
    plen_norm = tape.tree_scan(len_norm, g.edges);

    // Geometric Elmore delay, fully on-tape (the physics that links Steiner
    // positions to sign-off net delay; routed-length quantization, detours
    // and slew effects are the residual the learned heads absorb).
    // 1. node capacitance: sink pin caps + half of each adjacent edge's wire.
    const Value half_cap = tape.scale(len, 0.5 * g.wire_cap);
    Value node_cap = tape.leaf(Tensor::column(g.snode_pin_cap));
    node_cap = tape.add(node_cap, tape.scatter_add_rows(half_cap, g.edges->pa, S));
    node_cap = tape.add(node_cap, tape.scatter_add_rows(half_cap, g.edges->ch, S));
    // 2. subtree capacitance: leaf-to-root sums.
    subtree = tape.tree_reduce(node_cap, g.edges);
    // 3. Elmore: elm[child] = elm[parent] + R_edge * C_subtree(child).
    const Value contrib = tape.mul(tape.scale(len, g.wire_res),
                                   tape.gather_rows(subtree, g.edges->ch));
    elm_norm = tape.scale(tape.tree_scan(contrib, g.edges), 1.0 / g.clock);
  } else {
    len_norm = tape.leaf(Tensor::zeros(0, 1));
    plen_norm = tape.leaf(Tensor::zeros(S, 1));
    elm_norm = tape.leaf(Tensor::zeros(S, 1));
    subtree = tape.leaf(Tensor::column(g.snode_pin_cap));
  }

  // ---- Steiner-graph iterations: broadcast then reduce ----------------------
  for (int it = 0; it < cfg_.steiner_iters; ++it) {
    if (has_edges) {
      const Value hp = tape.gather_rows(h, g.edges->pa);
      const Value hc = tape.gather_rows(h, g.edges->ch);
      const Value msg = tape.relu(
          tape.add(tape.matmul(tape.concat_cols({hp, hc, len_norm}), P(kWB)), P(kBB)));
      const Value agg = tape.scatter_add_rows(msg, g.edges->ch, S);
      h = tape.tanh_op(tape.add(
          tape.add(tape.matmul(h, P(kWU1)), tape.matmul(agg, P(kWU2))), P(kBU)));
    }
    if (!g.sink_snode.empty()) {
      const Value hs = tape.gather_rows(h, g.sink_snode);
      const Value ps = tape.gather_rows(plen_norm, g.sink_snode);
      const Value rmsg = tape.relu(
          tape.add(tape.matmul(tape.concat_cols({hs, ps}), P(kWR)), P(kBR)));
      const Value ragg = tape.scatter_add_rows(rmsg, g.sink_driver_snode, S);
      h = tape.tanh_op(tape.add(
          tape.add(tape.matmul(h, P(kWU3)), tape.matmul(ragg, P(kWU4))), P(kBU2)));
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
  // One delay column per stage, in g.stages order. The delay heads stay per
  // level, so parameter gradients sum level by level exactly as before; the
  // max-plus recursion itself is one fused op.
  std::vector<Value> delays;
  delays.reserve(g.stages.size());
  for (const GraphCache::Stage& st : g.stages) {
    const int lo = st.lo;
    const int hi = st.hi;
    if (st.kind == GraphCache::Stage::kRegQ) {
      // Startpoints: register CK->Q. Physical anchor (intrinsic + R * C_load,
      // both from the library / on-tape load) times a bounded learned
      // correction — the correction absorbs slew and table nonlinearity.
      const Value q_in = tape.concat_cols({
          tape.gather_rows(tree_wl, g.regq_tree),
          tape.gather_rows(tree_cap, g.regq_tree),
          tape.leaf(Tensor::column(g.regq_res)),
      });
      const Value q_hidden = tape.relu(tape.add(tape.matmul(q_in, P(kWS1)), P(kBS1)));
      if (cfg_.physics_anchor) {
        const Value corr =
            tape.tanh_op(tape.add(tape.matmul(q_hidden, P(kWS2)), P(kBS2)));
        const Value phys = tape.scale(
            tape.add(tape.leaf(Tensor::column(g.regq_intrinsic)),
                     tape.mul(tape.leaf(Tensor::column(g.regq_res)),
                              tape.gather_rows(tree_cap_pf, g.regq_tree))),
            1.0 / g.clock);
        delays.push_back(tape.mul(phys, tape.add_scalar(tape.scale(corr, 0.5), 1.0)));
      } else {
        delays.push_back(tape.softplus(tape.add(tape.matmul(q_hidden, P(kWS2)), P(kBS2))));
      }
    } else if (st.kind == GraphCache::Stage::kCell) {
      std::vector<int> types;
      types.reserve(static_cast<std::size_t>(hi - lo));
      for (int i = lo; i < hi; ++i) types.push_back(g.cell_arcs[static_cast<std::size_t>(i)].type);
      const std::vector<int> trees = slice(g.cell_arc_tree, lo, hi);
      const Tensor ress = Tensor::column(slice(g.cell_arc_res, lo, hi));
      const Value emb = tape.gather_rows(P(kTypeEmb), std::move(types));
      const Value d_in = tape.concat_cols({
          emb,
          tape.gather_rows(tree_wl, trees),
          tape.gather_rows(tree_cap, trees),
          tape.leaf(Tensor::column(slice(g.cell_arc_cap, lo, hi))),
          tape.leaf(ress),
      });
      const Value c_hidden =
          tape.relu(tape.add(tape.matmul(d_in, P(kWC1)), P(kBC1)));
      if (cfg_.physics_anchor) {
        const Value corr =
            tape.tanh_op(tape.add(tape.matmul(c_hidden, P(kWC2)), P(kBC2)));
        // Physical anchor: intrinsic + R_drive * C_load (Elmore-consistent
        // first-order gate model), bounded learned correction on top.
        const Value phys = tape.scale(
            tape.add(tape.leaf(Tensor::column(slice(g.cell_arc_intrinsic, lo, hi))),
                     tape.mul(tape.leaf(ress), tape.gather_rows(tree_cap_pf, trees))),
            1.0 / g.clock);
        delays.push_back(tape.mul(phys, tape.add_scalar(tape.scale(corr, 0.5), 1.0)));
      } else {
        delays.push_back(tape.softplus(tape.add(tape.matmul(c_hidden, P(kWC2)), P(kBC2))));
      }
    } else {
      const std::vector<int> s_snode = slice(g.net_arc_sink_snode, lo, hi);
      const Value elm_s = tape.gather_rows(elm_norm, s_snode);
      const Value n_in = tape.concat_cols({
          tape.gather_rows(h, s_snode),
          tape.gather_rows(h, slice(g.net_arc_driver_snode, lo, hi)),
          tape.gather_rows(plen_norm, s_snode),
          elm_s,
          tape.gather_rows(tree_wl, slice(g.net_arc_tree, lo, hi)),
      });
      const Value hidden_n =
          tape.relu(tape.add(tape.matmul(n_in, P(kWN1)), P(kBN1)));
      if (cfg_.physics_anchor) {
        // net delay = Elmore x bounded correction + small learned additive
        // term (captures gcell quantization and congestion detours).
        const Value mult =
            tape.tanh_op(tape.add(tape.matmul(hidden_n, P(kWN2)), P(kBN2)));
        const Value addi =
            tape.softplus(tape.add(tape.matmul(hidden_n, P(kWN3)), P(kBN3)));
        delays.push_back(tape.add(tape.mul(elm_s, tape.add_scalar(tape.scale(mult, 0.5), 1.0)),
                                  tape.scale(addi, 0.02)));
      } else {
        delays.push_back(tape.softplus(tape.add(tape.matmul(hidden_n, P(kWN2)), P(kBN2))));
      }
    }
  }
  return tape.arrival_propagate(delays, g.arrival);
}

}  // namespace tsteiner
