#include "layers.hpp"

#include <sstream>

namespace perfbench {

LayerCounts counts_from_engine(const core::EvaluatorStats& stats,
                               const aig::AnalysisCounters& a) {
  LayerCounts c;
  c.opt_passes = static_cast<double>(stats.transforms_applied);
  c.opt_skipped = static_cast<double>(stats.transforms_skipped);
  c.map_calls = static_cast<double>(stats.mappings);
  c.map_deduped = static_cast<double>(stats.mappings_deduped);
  c.cache_lookups = static_cast<double>(stats.prefix.lookups);
  c.cache_hits = static_cast<double>(stats.prefix.hits);
  c.cache_steps_saved = static_cast<double>(stats.prefix.steps_saved);
  c.cache_evictions = static_cast<double>(stats.prefix.evictions);
  c.cache_bytes = static_cast<double>(stats.prefix.bytes);
  c.analysis_computed = static_cast<double>(
      a.windows_computed + a.resub_plans_computed + a.factor_plans_computed +
      a.cut_nodes_computed);
  c.analysis_carried = static_cast<double>(
      a.windows_carried + a.resub_plans_carried + a.factor_plans_carried +
      a.cut_nodes_carried);
  c.analysis_bytes = static_cast<double>(stats.prefix.analysis_bytes);
  c.analysis_evictions = static_cast<double>(stats.prefix.analysis_evictions);
  return c;
}

double page_sum(const std::string& page, const std::string& name,
                const std::string& label) {
  double total = 0;
  std::istringstream lines(page);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, name.size(), name) != 0) continue;
    const char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    if (!label.empty() &&
        line.substr(0, space).find(label) == std::string::npos) {
      continue;
    }
    total += std::stod(line.substr(space + 1));
  }
  return total;
}

LayerCounts counts_from_page(const std::string& page) {
  LayerCounts c;
  c.opt_passes = page_sum(page, "flowgen_transforms_applied_total");
  c.opt_skipped = page_sum(page, "flowgen_transforms_skipped_total");
  c.map_calls = page_sum(page, "flowgen_mappings_total");
  c.map_deduped = page_sum(page, "flowgen_mappings_deduped_total");
  c.cache_lookups = page_sum(page, "flowgen_flow_cache_lookups_total");
  c.cache_hits = page_sum(page, "flowgen_flow_cache_hits_total");
  c.cache_steps_saved = page_sum(page, "flowgen_flow_cache_steps_saved_total");
  c.cache_evictions = page_sum(page, "flowgen_flow_cache_evictions_total");
  c.cache_bytes = page_sum(page, "flowgen_flow_cache_bytes");
  for (const char* kind : {"windows", "resub_plans", "factor_plans",
                           "cut_nodes"}) {
    const std::string stem = std::string("flowgen_analysis_") + kind;
    c.analysis_computed += page_sum(page, stem + "_computed_total");
    c.analysis_carried += page_sum(page, stem + "_carried_total");
  }
  c.analysis_bytes = page_sum(page, "flowgen_flow_cache_analysis_bytes");
  c.analysis_evictions =
      page_sum(page, "flowgen_flow_cache_analysis_evictions_total");
  return c;
}

void emit_counts(Result& out, const LayerCounts& c) {
  out.num("opt.passes", c.opt_passes);
  out.num("opt.passes_skipped", c.opt_skipped);
  out.num("map.calls", c.map_calls);
  out.num("map.deduped", c.map_deduped);
  out.num("flow_cache.hit_ratio",
          c.cache_lookups > 0 ? c.cache_hits / c.cache_lookups : 0.0);
  out.num("flow_cache.lookups", c.cache_lookups);
  out.num("flow_cache.steps_saved", c.cache_steps_saved);
  out.num("flow_cache.evictions", c.cache_evictions);
  out.num("flow_cache.bytes", c.cache_bytes);
  const double analysed = c.analysis_computed + c.analysis_carried;
  out.num("analysis.carried_ratio",
          analysed > 0 ? c.analysis_carried / analysed : 0.0);
  out.num("analysis.artifacts", analysed);
  out.num("analysis.bytes", c.analysis_bytes);
  out.num("analysis.evictions", c.analysis_evictions);
}

void emit_pass_times_from_page(Result& out, const std::string& page,
                               const opt::TransformRegistry& registry) {
  double opt_ms = 0;
  for (std::size_t id = 0; id < registry.size(); ++id) {
    const std::string& spec = registry.name(static_cast<opt::StepId>(id));
    const std::string label = "spec=\"" + spec + "\"";
    const double sum = page_sum(page, "flowgen_transform_ms_sum", label);
    const double count = page_sum(page, "flowgen_transform_ms_count", label);
    opt_ms += sum;
    out.num("opt." + metric_fragment(spec) + ".ms",
            count > 0 ? sum / count : 0.0);
  }
  out.num("opt.self_s", opt_ms / 1000.0);
  out.num("map.self_s", page_sum(page, "flowgen_mapping_ms_sum") / 1000.0);
}

}  // namespace perfbench
