// Oracle scheme selection — an extension beyond the paper.
//
// Algorithm 2 is a three-rule heuristic; the paper claims it "ensures the
// optimal performance and energy-efficiency". The oracle makes that claim
// testable: it models every candidate scheme for every conv layer in its
// true position (real input dims, real consumers) and picks the per-layer
// argmin of cycles (or total energy). The adaptive heuristic can then be
// scored against the oracle (bench_ablation_oracle): on the paper's four
// networks it is within a few percent, which substantiates — and bounds —
// the paper's optimality language.
//
// Pricing: one compile + model of the whole net per candidate. In the
// trial for candidate c every conv layer that tiles under c
// (plan_conv_tiles succeeds) runs c; the others keep adap-2, or take
// their first tileable candidate if adap-2 does not tile, so each trial
// compiles. Each layer's cost under c is read from that one result and
// the layer takes its cheapest tileable candidate.
//
// This is exact because a conv layer's modelled counters and energy
// depend only on its own scheme: its loads and tiles come from its own
// geometry and input cube, its stores count consumers rather than their
// layout, DRAM timing ignores addresses, and model_network drains the
// double-buffer clock at every layer end (DESIGN.md §18). The result
// therefore equals the exhaustive search that re-models the net for
// every (layer, candidate) pair, untileable corners included
// (Oracle.PriceTableMatchesExhaustiveSearch keeps that search as the
// reference).
#pragma once

#include <vector>

#include "cbrain/model/network_model.hpp"

namespace cbrain {

enum class OracleMetric {
  kCycles,  // minimize modeled total cycles per layer
  kEnergy,  // minimize modeled total energy (PE + buffers + DRAM)
};

// Per-layer argmin assignment over {inter, inter+, intra-unroll,
// partition} (sliding is partition's degenerate case and needs no
// separate candidate). Indexed by LayerId.
std::vector<Scheme> select_oracle_schemes(
    const Network& net, const AcceleratorConfig& config,
    OracleMetric metric = OracleMetric::kCycles,
    const ModelOptions& options = {});

// Compile + model under the oracle assignment (labelled kIdeal in the
// result's policy field, as no Policy enumerator corresponds to it).
NetworkModelResult model_network_oracle(
    const Network& net, const AcceleratorConfig& config,
    OracleMetric metric = OracleMetric::kCycles,
    const ModelOptions& options = {});

}  // namespace cbrain
