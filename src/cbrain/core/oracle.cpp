#include "cbrain/core/oracle.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "cbrain/common/logging.hpp"

namespace cbrain {
namespace {

constexpr std::array<Scheme, 4> kCandidates = {
    Scheme::kInter, Scheme::kInterImproved, Scheme::kIntraUnroll,
    Scheme::kPartition};

double layer_cost(const LayerModelResult& lr, OracleMetric metric) {
  switch (metric) {
    case OracleMetric::kCycles:
      return static_cast<double>(lr.counters.total_cycles);
    case OracleMetric::kEnergy:
      return lr.energy.total_pj();
  }
  return 0.0;
}

// One conv layer's row of the price table.
struct ConvRow {
  const Layer* layer = nullptr;
  std::array<bool, kCandidates.size()> tiles{};
  std::array<double, kCandidates.size()> cost;
  // Its scheme in a trial whose candidate it cannot take: adap-2 if that
  // tiles, else its first tileable candidate.
  Scheme fallback = Scheme::kInter;
};

}  // namespace

std::vector<Scheme> select_oracle_schemes(const Network& net,
                                          const AcceleratorConfig& config,
                                          OracleMetric metric,
                                          const ModelOptions& options) {
  // Start from adap-2 (covers non-conv layers' irrelevance).
  std::vector<Scheme> schemes =
      assign_schemes(net, Policy::kAdaptive2, config);

  std::vector<ConvRow> rows;
  bool adap_untiled = false;
  for (const Layer& l : net.layers()) {
    if (!l.is_conv()) continue;
    ConvRow row;
    row.layer = &l;
    row.cost.fill(std::numeric_limits<double>::infinity());
    row.fallback = schemes[static_cast<std::size_t>(l.id)];
    for (std::size_t c = 0; c < kCandidates.size(); ++c)
      row.tiles[c] = plan_conv_tiles(l, kCandidates[c], config).is_ok();
    if (!plan_conv_tiles(l, row.fallback, config).is_ok()) {
      // A layer no scheme tiles, or a second layer adap-2 cannot tile,
      // leaves no compilable assignment one move away: adap-2 stands.
      // With one such layer, no layer before it can move, so those keep
      // adap-2 and drop out of the table (DESIGN.md §18).
      const auto first = std::find(row.tiles.begin(), row.tiles.end(), true);
      if (first == row.tiles.end() || adap_untiled) return schemes;
      adap_untiled = true;
      rows.clear();
      row.fallback = kCandidates[static_cast<std::size_t>(
          first - row.tiles.begin())];
    }
    rows.push_back(row);
  }

  // One trial per candidate prices every layer that tiles under it.
  for (std::size_t c = 0; c < kCandidates.size(); ++c) {
    if (std::none_of(rows.begin(), rows.end(),
                     [c](const ConvRow& row) { return row.tiles[c]; }))
      continue;
    std::vector<Scheme> trial = schemes;
    for (const ConvRow& row : rows)
      trial[static_cast<std::size_t>(row.layer->id)] =
          row.tiles[c] ? kCandidates[c] : row.fallback;
    auto compiled =
        compile_network(net, std::move(trial), config, Policy::kIdeal);
    CBRAIN_CHECK(compiled.is_ok(), "oracle trial compile failed: "
                                       << compiled.status().to_string());
    const NetworkModelResult r =
        model_network(net, compiled.value(), config, options);
    for (ConvRow& row : rows)
      if (row.tiles[c])
        row.cost[c] = layer_cost(r.layer(row.layer->id), metric);
  }

  // Per-layer argmin; ties go to the earlier candidate.
  for (const ConvRow& row : rows) {
    Scheme& best = schemes[static_cast<std::size_t>(row.layer->id)];
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < kCandidates.size(); ++c) {
      if (row.cost[c] < best_cost) {
        best_cost = row.cost[c];
        best = kCandidates[c];
      }
    }
    CBRAIN_LOG(kDebug) << "oracle: " << row.layer->name << " -> "
                       << scheme_name(best);
  }
  return schemes;
}

NetworkModelResult model_network_oracle(const Network& net,
                                        const AcceleratorConfig& config,
                                        OracleMetric metric,
                                        const ModelOptions& options) {
  auto compiled = compile_network(
      net, select_oracle_schemes(net, config, metric, options), config,
      Policy::kIdeal);
  CBRAIN_CHECK(compiled.is_ok(),
               "oracle compile failed: " << compiled.status().to_string());
  return model_network(net, compiled.value(), config, options);
}

}  // namespace cbrain
