#include "flow/snapshot.hpp"

#include <cstdio>

#include "db/bytes.hpp"
#include "db/codecs.hpp"
#include "db/crc32.hpp"
#include "gnn/serialize.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace tsteiner {

namespace {

constexpr char kSuiteKind[] = "suite";

void encode_flow_options(db::ByteWriter& w, const FlowOptions& f) {
  w.i64(f.router.gcell_size);
  w.f64(f.router.capacity_factor);
  w.f64(f.router.min_capacity);
  w.i32(f.router.rrr_iterations);
  w.f64(f.router.history_increment);
  w.i32(f.router.maze_margin);
  w.f64(f.sta.primary_input_slew);
  w.f64(f.sta.clock_source_slew);
  w.f64(f.sta.max_slew_ns);
  w.f64(f.sta.max_cap_pf);
  w.f64(f.droute.wl_detour_base);
  w.f64(f.droute.wl_detour_per_overflow);
  w.i32(f.droute.repair_rounds_max);
  w.f64(f.droute.pin_density_limit_per_site);
  w.i32(f.rsmt.exact_pin_limit);
  w.i32(f.rsmt.max_steiner_per_net);
  w.u8(f.edge_shifting ? 1 : 0);
  w.f64(f.clock_tightness);
}

std::vector<std::uint8_t> encode_sample(const TrainingSample& s) {
  db::ByteWriter w;
  w.str(s.design_name);
  w.f64_vec(s.xs);
  w.f64_vec(s.ys);
  w.f64_vec(s.arrival_label);
  w.i32_vec(s.endpoint_pins);
  return w.take();
}

std::optional<TrainingSample> decode_sample(db::ByteSpan payload) {
  db::ByteReader r(payload.data, payload.size);
  TrainingSample s;
  s.design_name = r.str();
  s.xs = r.f64_vec();
  s.ys = r.f64_vec();
  s.arrival_label = r.f64_vec();
  s.endpoint_pins = r.i32_vec();
  if (!r.done() || s.xs.size() != s.ys.size()) return std::nullopt;
  return s;
}

}  // namespace

bool write_design_record(db::DbWriter& writer, std::uint32_t index, const BenchmarkSpec& spec,
                         const Design& design, const FlowCalibration& cal,
                         const SteinerForest& forest) {
  return writer.add_chunk(db::kChunkDesign,
                          db::index_prefixed(index, db::encode_design(spec, design))) &&
         writer.add_chunk(db::kChunkFlowCal,
                          db::index_prefixed(index, db::encode_calibration(cal))) &&
         writer.add_chunk(db::kChunkForest,
                          db::index_prefixed(index, db::encode_forest(forest)));
}

std::optional<std::vector<PreparedDesign>> read_design_records(const db::DbReader& reader,
                                                               std::uint32_t count,
                                                               const CellLibrary& lib,
                                                               const FlowOptions& options,
                                                               std::string* error) {
  auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  const auto designs = db::collect_indexed(reader, db::kChunkDesign, count);
  if (!designs) return fail("has no design chunk");
  const auto cals = db::collect_indexed(reader, db::kChunkFlowCal, count);
  if (!cals) return fail("has no calibration chunk");
  const auto forests = db::collect_indexed(reader, db::kChunkForest, count);
  if (!forests) return fail("has no forest chunk");

  std::vector<PreparedDesign> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto decoded = db::decode_design((*designs)[i].data, (*designs)[i].size, lib);
    if (!decoded) return fail("design chunk is malformed");
    const auto cal = db::decode_calibration((*cals)[i].data, (*cals)[i].size);
    if (!cal) return fail("calibration chunk is malformed");
    auto forest = db::decode_forest((*forests)[i].data, (*forests)[i].size);
    if (!forest || forest->net_to_tree.size() != decoded->design.nets().size()) {
      return fail("forest chunk is malformed");
    }
    PreparedDesign pd;
    pd.spec = std::move(decoded->spec);
    pd.design = std::make_unique<Design>(std::move(decoded->design));
    pd.flow = std::make_unique<Flow>(
        Flow::from_snapshot(pd.design.get(), options, *cal, std::move(*forest)));
    out.push_back(std::move(pd));
  }
  return out;
}

std::string suite_options_tag(const SuiteOptions& options) {
  // CRC over the binary encoding of every influencing option; the scale and
  // seed ride along in clear text for human inspection of `tsteiner_db info`.
  db::ByteWriter w;
  w.f64(options.scale);
  w.i32(options.perturb_per_design);
  w.f64(options.perturb_dist_gcells);
  w.u64(options.seed);
  w.i32(options.gnn.hidden);
  w.i32(options.gnn.type_embed);
  w.i32(options.gnn.delay_hidden);
  w.i32(options.gnn.steiner_iters);
  w.f64(options.gnn.soft_abs_delta);
  w.u8(options.gnn.physics_anchor ? 1 : 0);
  w.u64(options.gnn.seed);
  w.i32(options.train.epochs);
  w.f64(options.train.lr);
  w.f64(options.train.grad_clip);
  w.f64(options.train.endpoint_loss_weight);
  w.u64(options.train.seed);
  encode_flow_options(w, options.flow);
  char tag[96];
  std::snprintf(tag, sizeof(tag), "scale=%.4f seed=%llu epochs=%d opts=%08X", options.scale,
                static_cast<unsigned long long>(options.seed), options.train.epochs,
                db::crc32(w.bytes()));
  return tag;
}

bool save_suite_snapshot(const TrainedSuite& suite, const SuiteOptions& options,
                         const std::string& path) {
  TS_TRACE_SPAN_CAT("db.save_suite_snapshot", "db");
  if (suite.lib == nullptr) return false;
  db::DbWriter writer;
  if (!writer.open(path)) return false;

  db::SnapshotMeta meta;
  meta.kind = kSuiteKind;
  meta.tag = suite_options_tag(options);
  meta.design_count = static_cast<std::uint32_t>(suite.designs.size());
  meta.has_model = suite.model != nullptr;
  meta.final_train_loss = suite.final_train_loss;
  meta.library_fingerprint = db::library_fingerprint(*suite.lib);
  bool ok = writer.add_chunk(db::kChunkMeta, db::encode_meta(meta));
  ok = ok && writer.add_chunk(db::kChunkLibrary, db::encode_library(*suite.lib));

  for (std::size_t i = 0; ok && i < suite.designs.size(); ++i) {
    const PreparedDesign& pd = suite.designs[i];
    const std::uint32_t index = static_cast<std::uint32_t>(i);
    ok = write_design_record(writer, index, pd.spec, *pd.design, pd.flow->calibration(),
                             pd.flow->initial_forest());
    if (ok && i < suite.base_samples.size()) {
      ok = writer.add_chunk(db::kChunkSample,
                            db::index_prefixed(index, encode_sample(suite.base_samples[i])));
    }
  }
  if (ok && suite.model != nullptr) {
    ok = writer.add_chunk(db::kChunkModel, encode_model_payload(*suite.model, meta.tag));
  }
  return writer.finish() && ok;
}

std::optional<TrainedSuite> load_suite_snapshot(const std::string& path,
                                                const SuiteOptions& options) {
  TS_TRACE_SPAN_CAT("db.load_suite_snapshot", "db");
  db::DbReader reader;
  std::string error;
  if (!reader.open(path, &error)) {
    TS_VERBOSE("suite snapshot rejected: %s", error.c_str());
    return std::nullopt;
  }
  const auto meta = db::read_meta(reader);
  if (!meta || meta->kind != kSuiteKind) return std::nullopt;
  if (meta->tag != suite_options_tag(options)) {
    TS_VERBOSE("suite snapshot rejected: options tag mismatch (stored \"%s\")",
               meta->tag.c_str());
    return std::nullopt;
  }

  const db::ChunkInfo* lib_chunk = reader.find(db::kChunkLibrary);
  if (lib_chunk == nullptr) return std::nullopt;
  auto lib = db::decode_library(reader.payload(*lib_chunk),
                                static_cast<std::size_t>(lib_chunk->size));
  if (!lib) return std::nullopt;

  TrainedSuite suite;
  suite.lib = std::make_unique<CellLibrary>(std::move(*lib));
  suite.final_train_loss = meta->final_train_loss;

  auto designs = read_design_records(reader, meta->design_count, *suite.lib, options.flow);
  const auto samples = db::collect_indexed(reader, db::kChunkSample, meta->design_count);
  if (!designs || !samples) return std::nullopt;
  suite.designs = std::move(*designs);

  for (std::uint32_t i = 0; i < meta->design_count; ++i) {
    PreparedDesign& pd = suite.designs[i];
    pd.cache = build_graph_cache(*pd.design, pd.flow->initial_forest());
    auto sample = decode_sample((*samples)[i]);
    if (!sample) return std::nullopt;
    if (sample->design_name != pd.spec.name ||
        sample->arrival_label.size() != pd.design->pins().size() ||
        sample->xs.size() != pd.flow->initial_forest().num_movable()) {
      return std::nullopt;
    }
    sample->cache = pd.cache;
    suite.base_samples.push_back(std::move(*sample));
  }

  if (meta->has_model) {
    const db::ChunkInfo* model_chunk = reader.find(db::kChunkModel);
    if (model_chunk == nullptr) return std::nullopt;
    auto model = decode_model_payload(reader.payload(*model_chunk),
                                      static_cast<std::size_t>(model_chunk->size), options.gnn,
                                      suite.lib->num_types(), meta->tag);
    if (!model) return std::nullopt;
    suite.model = std::make_unique<TimingGnn>(std::move(*model));
  }
  return suite;
}

}  // namespace tsteiner
