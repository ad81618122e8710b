// The data tiling & mapping planner of §4.2.3: chooses, for every layer
// edge, the DRAM layout the consumer's parallelization scheme wants — the
// paper's "store in inter-order / intra-order" rule generalized to DAGs —
// and pre-pads each cube so no layout-transform or rotation hardware is
// needed anywhere downstream.
//
// Every consumer gets its own cube (a producer with several consumers,
// as inside GoogLeNet's inception modules, writes each finalized pixel to
// each consumer's cube through the store path). This duplicates store
// traffic identically for every scheme, so comparisons are unaffected; see
// DESIGN.md §6.
#pragma once

#include <vector>

#include "cbrain/arch/config.hpp"
#include "cbrain/compiler/adaptive.hpp"
#include "cbrain/isa/instruction.hpp"
#include "cbrain/nn/network.hpp"

namespace cbrain {

// A padded activation cube in DRAM.
struct CubeSpec {
  DramAddr addr = 0;
  MapDims padded;             // physical extents
  i64 off_y = 0, off_x = 0;   // where unpadded data begins
  DataOrder order = DataOrder::kSpatialMajor;
  bool valid = false;

  i64 words() const { return padded.count(); }
};

struct LayoutPlan {
  Policy policy = Policy::kAdaptive2;
  std::vector<Scheme> schemes;             // per LayerId (convs meaningful)
  std::vector<CubeSpec> in_cube;           // per LayerId: cube the layer reads
  std::vector<CubeSpec> unroll_cube;       // per LayerId: im2col staging
  std::vector<std::vector<OutputMap>> out_maps;  // per LayerId: store targets
  std::vector<DramAddr> weight_addr;       // per LayerId (conv/fc)
  std::vector<i64> weight_words;           // per LayerId, padded for partition
  std::vector<DramAddr> bias_addr;         // per LayerId
  std::vector<i64> bias_words;
  CubeSpec result_cube;                    // final layer's destination
  i64 total_words = 0;                     // DRAM footprint

  const CubeSpec& cube_of(LayerId id) const {
    return in_cube[static_cast<std::size_t>(id)];
  }
  Scheme scheme_of(LayerId id) const {
    return schemes[static_cast<std::size_t>(id)];
  }
};

LayoutPlan plan_layout(const Network& net, Policy policy,
                       const AcceleratorConfig& config);

// Same, with an explicit per-layer scheme assignment (indexed by LayerId;
// non-conv entries ignored) — the entry point for oracle/custom mappers.
LayoutPlan plan_layout(const Network& net, std::vector<Scheme> schemes);

// Weight-image word count for a conv layer under a scheme (partition pads
// each kernel to (g*ks)^2 with zeros, Fig. 5c).
i64 conv_weight_image_words(const Layer& conv, Scheme scheme);

}  // namespace cbrain
