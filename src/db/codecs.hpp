// Typed chunk codecs for the TSteinerDB container: the snapshot record
// layout (META, the per-design index prefix, FCAL), cell library, design
// (with its benchmark spec), and Steiner forest. Each encode_* produces one
// chunk payload; each decode_* validates structure as it parses and returns
// nullopt on any malformed input (the container layer has already CRC-checked
// the bytes, so a decode failure means a logic/version problem, not file
// corruption). Model parameters are encoded by gnn/serialize and training
// samples by flow/snapshot, keeping the library dependency graph acyclic (db
// sits below gnn and flow).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "db/container.hpp"
#include "netlist/design_generator.hpp"
#include "netlist/liberty.hpp"
#include "netlist/netlist.hpp"
#include "steiner/steiner_tree.hpp"

namespace tsteiner::db {

/// META chunk: what a snapshot holds. Every snapshot kind ("suite", "serve",
/// "fuzz-case") writes it first, so `tsteiner_db info` describes any file.
struct SnapshotMeta {
  std::string kind;
  std::string tag;  ///< kind-specific identity (suite options, fuzz seed) or empty
  std::uint32_t design_count = 0;
  bool has_model = false;
  double final_train_loss = 0.0;
  std::uint32_t library_fingerprint = 0;
};
std::vector<std::uint8_t> encode_meta(const SnapshotMeta& meta);
std::optional<SnapshotMeta> decode_meta(const std::uint8_t* data, std::size_t size);
/// The decoded META chunk of `reader`; nullopt when it is absent or malformed.
std::optional<SnapshotMeta> read_meta(const DbReader& reader);

/// Per-design chunks (DSGN, FCAL, FRST, SMPL) lead with a u32 design index.
std::vector<std::uint8_t> index_prefixed(std::uint32_t index,
                                         const std::vector<std::uint8_t>& payload);

/// Payload bytes inside a DbReader's buffer (after the index prefix, for a
/// per-design chunk).
struct ByteSpan {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};
/// The payloads of every `type` chunk, ordered by design index. nullopt when
/// the family does not cover 0..count-1 exactly once (a gap, a duplicate, an
/// out-of-range index, or a chunk shorter than its prefix).
std::optional<std::vector<ByteSpan>> collect_indexed(const DbReader& reader, std::uint32_t type,
                                                     std::uint32_t count);

/// FCAL body (after the index prefix): the calibration a restored Flow
/// reuses instead of re-deriving it (flow's FlowCalibration).
struct Calibration {
  double clock_period_ns = 0.0;
  double fixed_h_cap = 0.0;
  double fixed_v_cap = 0.0;
};
std::vector<std::uint8_t> encode_calibration(const Calibration& cal);
std::optional<Calibration> decode_calibration(const std::uint8_t* data, std::size_t size);

std::vector<std::uint8_t> encode_library(const CellLibrary& lib);
std::optional<CellLibrary> decode_library(const std::uint8_t* data, std::size_t size);

/// Stable identity of a library: CRC32 of its encoded form. Snapshots store
/// it so artifacts referencing type ids are never resolved against a
/// different library.
std::uint32_t library_fingerprint(const CellLibrary& lib);

/// The design payload carries the BenchmarkSpec it was generated from plus
/// the complete object state (cells, pins, nets, die, clock), so ids that
/// other chunks reference (pins in forests, labels per pin) round-trip
/// bit-exactly. `library` must outlive the returned design.
std::vector<std::uint8_t> encode_design(const BenchmarkSpec& spec, const Design& design);
struct DecodedDesign {
  BenchmarkSpec spec;
  Design design;
};
std::optional<DecodedDesign> decode_design(const std::uint8_t* data, std::size_t size,
                                           const CellLibrary& library);

std::vector<std::uint8_t> encode_forest(const SteinerForest& forest);
/// Validates tree structure (connectivity, index ranges, finite coordinates)
/// exactly like the text reader in steiner/forest_io; the movable index is
/// rebuilt.
std::optional<SteinerForest> decode_forest(const std::uint8_t* data, std::size_t size);

}  // namespace tsteiner::db
