#pragma once
// Per-layer counts shared by the three workloads. label_engine reads them
// from EvaluatorStats / FlowCacheStats / aig::analysis_counters();
// label_fleet from the fleet-wide Prometheus page
// (EvalCoordinator::fleet_metrics_text) and pipeline_cnn from this
// process's own page (telemetry::render_prometheus).

#include <string>

#include "aig/analysis.hpp"
#include "common.hpp"
#include "core/evaluator.hpp"

namespace perfbench {

struct LayerCounts {
  double opt_passes = 0;
  double opt_skipped = 0;
  double map_calls = 0;
  double map_deduped = 0;
  double cache_lookups = 0;
  double cache_hits = 0;
  double cache_steps_saved = 0;
  double cache_evictions = 0;
  double cache_bytes = 0;
  double analysis_computed = 0;
  double analysis_carried = 0;
  double analysis_bytes = 0;
  double analysis_evictions = 0;
};

LayerCounts counts_from_engine(const core::EvaluatorStats& stats,
                               const aig::AnalysisCounters& analysis);
LayerCounts counts_from_page(const std::string& page);
void emit_counts(Result& out, const LayerCounts& c);

/// Sum of every series of `name` in a Prometheus text page whose label set
/// contains `label` (e.g. `spec="balance"`; empty matches all).
double page_sum(const std::string& page, const std::string& name,
                const std::string& label = "");

/// Transform and mapping time recorded by the evaluators' own
/// flowgen_transform_ms / flowgen_mapping_ms histograms: opt.self_s,
/// map.self_s and the mean ms of each registry spec.
void emit_pass_times_from_page(Result& out, const std::string& page,
                               const opt::TransformRegistry& registry);

}  // namespace perfbench
