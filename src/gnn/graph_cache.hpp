// Static graph structures for the timing-evaluation model.
//
// The paper's evaluator runs on two graphs (Fig. 3): the *Steiner graph*
// (pin nodes + Steiner nodes connected by tree edges, plus direct net edges
// sink -> driver) and the *netlist graph* (pin nodes connected by cell arcs
// and net arcs, traversed in topological order). All of that structure is
// position-independent, so it is computed once per (design, forest topology)
// and reused across every refinement iteration; only the Steiner coordinate
// leaves change between forward passes.
#pragma once

#include <memory>
#include <vector>

#include "autodiff/tape.hpp"
#include "netlist/netlist.hpp"
#include "steiner/steiner_tree.hpp"

namespace tsteiner {

struct GraphCache {
  // ---- Steiner-graph node flattening ("snodes") ---------------------------
  int num_snodes = 0;
  /// Constant coordinate part per snode: pin positions for pin nodes, zero
  /// at Steiner slots (their coordinates are supplied as tape leaves).
  std::vector<double> base_x, base_y;
  /// movable index (forest order) -> snode id.
  std::vector<int> movable_to_snode;
  /// Static per-snode features.
  std::vector<double> feat_is_steiner, feat_is_driver, feat_is_sink, feat_degree;
  /// Sink pin capacitance per snode (pF); 0 for drivers / Steiner nodes.
  std::vector<double> snode_pin_cap;
  /// Driver snode of each tree (for total-load extraction).
  std::vector<int> tree_driver_snode;
  int num_trees = 0;

  // ---- directed tree edges (parent -> child from each driver) -------------
  /// pa/ch per edge, sorted by depth: level_off[l] .. level_off[l+1]
  /// indexes the edges at depth l. Also the Tape::tree_scan/reduce index.
  std::shared_ptr<const TreeIndex> edges;
  std::vector<int> edge_tree;  ///< owning tree per edge

  // ---- reduce edges: one per net sink (sink snode -> driver snode) --------
  std::vector<int> sink_snode, sink_driver_snode;

  // ---- netlist graph -------------------------------------------------------
  int num_pins = 0;
  std::vector<int> pin_snode;  ///< -1 for pins not present in any tree

  struct NetArc {
    int driver_pin = -1;
    int sink_pin = -1;
    int net = -1;
  };
  /// Net arcs grouped by the driver pin's topological level l:
  /// net_arc_off[l] .. net_arc_off[l+1].
  std::vector<NetArc> net_arcs;
  std::vector<int> net_arc_off;
  /// Derived, aligned with net_arcs: sink and driver pins' snodes and the
  /// net's tree.
  std::vector<int> net_arc_sink_snode, net_arc_driver_snode, net_arc_tree;

  struct CellArc {
    int in_pin = -1;
    int out_pin = -1;
    int type = -1;     ///< cell type id
    int out_net = -1;  ///< net driven by out_pin (-1 if none)
  };
  /// Cell arcs grouped by the *output* pin's level.
  std::vector<CellArc> cell_arcs;
  std::vector<int> cell_arc_off;
  /// Derived, aligned with cell_arcs: out net's tree, sink-cap and drive-res
  /// constants, and a segment id (contiguous within each level) grouping
  /// arcs that share an output pin for the max-reduction.
  std::vector<int> cell_arc_tree;
  std::vector<double> cell_arc_cap, cell_arc_res;
  /// Zero-load arc delay at nominal slew (ns) — anchors the physical part of
  /// the learned cell-delay head.
  std::vector<double> cell_arc_intrinsic;
  std::vector<int> cell_arc_seg;
  /// Distinct output pins per level: cell_out_off[l] .. cell_out_off[l+1]
  /// indexes cell_out_pins; segment ids above are relative to the level.
  std::vector<int> cell_out_pins;
  std::vector<int> cell_out_off;

  int num_levels = 0;

  // ---- startpoints ---------------------------------------------------------
  std::vector<int> regq_pins;  ///< register Q output pins
  std::vector<int> regq_tree;  ///< tree of the net each drives (aligned)
  std::vector<double> regq_cap, regq_res;  ///< load constants (aligned)
  std::vector<double> regq_intrinsic;      ///< zero-load CK->Q delay (ns)

  // ---- arrival propagation stages ---------------------------------------------
  /// One delay column each, in propagation order: register CK->Q (when
  /// any), then for each level its cell arcs and its net arcs (each when
  /// non-empty). A stage's arcs are regq_pins, cell_arcs or net_arcs
  /// [lo, hi).
  struct Stage {
    enum Kind { kRegQ, kCell, kNet } kind = kRegQ;
    int lo = 0, hi = 0;
  };
  std::vector<Stage> stages;
  /// The same stages as the Tape::arrival_propagate index.
  std::shared_ptr<const ArrivalIndex> arrival;

  // ---- normalization / technology -------------------------------------------
  double die_w = 1.0, die_h = 1.0;
  double clock = 1.0;
  double gcell = 8.0;
  double wire_res = 0.0;  ///< kOhm per DBU (for on-tape Elmore features)
  double wire_cap = 0.0;  ///< pF per DBU
};

/// Build the cache; `forest` supplies tree topology only (positions ignored).
std::shared_ptr<const GraphCache> build_graph_cache(const Design& design,
                                                    const SteinerForest& forest);

}  // namespace tsteiner
