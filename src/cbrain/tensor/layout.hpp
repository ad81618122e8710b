// The two memory orders Algorithm 2 switches between when writing a
// layer's output (paper §4.2.3, lines 4-5):
//
//   kDepthMajor   — depth varies fastest: addr = (y*W + x)*D + d.
//                   The paper's "inter-order": an inter-kernel consumer
//                   reads Tin consecutive words to get the same pixel
//                   position across Tin input maps.
//   kSpatialMajor — each map is contiguous row-major: addr = (d*H + y)*W + x.
//                   The paper's "intra-order": an intra-kernel or
//                   kernel-partition consumer streams windows from a
//                   single map.
//
// Producing the output directly in the order the *next* layer's scheme
// consumes is what lets C-Brain drop the data-layout-transform hardware of
// prior designs. DataOrder is the order of a DRAM cube: the compiler plans
// it (CubeSpec, OutputMap, band orders), the ISA records carry it and the
// simulator addresses DRAM with linear_offset. Host tensors (Tensor3) are
// always spatial-major.
#pragma once

#include "cbrain/tensor/shape.hpp"

namespace cbrain {

enum class DataOrder {
  kDepthMajor,    // paper: inter-order (consumed by inter-kernel)
  kSpatialMajor,  // paper: intra-order (consumed by intra / partition)
};

// Linear offset of element (d, y, x) of a MapDims cube in the given order.
i64 linear_offset(const MapDims& dims, DataOrder order, i64 d, i64 y, i64 x);

}  // namespace cbrain
