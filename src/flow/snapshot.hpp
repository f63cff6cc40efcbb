// Suite snapshot-restore and the shared design record on the TSteinerDB
// container (src/db).
//
// A suite snapshot captures everything build_and_train_suite() computes —
// cell library, generated + placed designs, calibrated flows (clock period,
// pinned routing capacities), initial Steiner forests, sign-off labeled base
// samples, and the trained evaluator — so a warm second run skips design
// generation, placement, label generation and training entirely and
// reproduces the cold run's sign-off metrics bit-exactly. Restores are
// rejected (nullopt) when the file is corrupted, truncated, or was produced
// under different SuiteOptions (the options fingerprint is stored and
// compared), so a stale snapshot can never silently poison an experiment.
//
// A design record is the DSGN + FCAL + FRST chunk triple of one design
// (each payload led by its u32 design index). Suite and serve snapshots both
// store their designs as records, written and read only by the two functions
// below.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "db/container.hpp"
#include "flow/experiment.hpp"

namespace tsteiner {

/// Write the design record for design index `index`.
bool write_design_record(db::DbWriter& writer, std::uint32_t index, const BenchmarkSpec& spec,
                         const Design& design, const FlowCalibration& cal,
                         const SteinerForest& forest);

/// Restore the `count` design records of `reader` against `lib`, each flow
/// through Flow::from_snapshot (bit-identical to the flow that was saved).
/// The returned designs carry no graph cache. On failure returns nullopt
/// and, when `error` is non-null, names the chunk that failed (for example
/// "has no forest chunk" or "design chunk is malformed").
std::optional<std::vector<PreparedDesign>> read_design_records(const db::DbReader& reader,
                                                               std::uint32_t count,
                                                               const CellLibrary& lib,
                                                               const FlowOptions& options,
                                                               std::string* error = nullptr);

/// Deterministic fingerprint of every option that influences suite state:
/// scale, seeds, perturbation setup, training hyperparameters, GNN config
/// and the flow/router/STA knobs. Stored in the snapshot and validated on
/// restore.
std::string suite_options_tag(const SuiteOptions& options);

bool save_suite_snapshot(const TrainedSuite& suite, const SuiteOptions& options,
                         const std::string& path);
std::optional<TrainedSuite> load_suite_snapshot(const std::string& path,
                                                const SuiteOptions& options);

}  // namespace tsteiner
