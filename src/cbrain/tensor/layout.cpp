#include "cbrain/tensor/layout.hpp"

namespace cbrain {

i64 linear_offset(const MapDims& dims, DataOrder order, i64 d, i64 y, i64 x) {
  CBRAIN_DCHECK(d >= 0 && d < dims.d, "d out of range");
  CBRAIN_DCHECK(y >= 0 && y < dims.h, "y out of range");
  CBRAIN_DCHECK(x >= 0 && x < dims.w, "x out of range");
  switch (order) {
    case DataOrder::kDepthMajor:
      return (y * dims.w + x) * dims.d + d;
    case DataOrder::kSpatialMajor:
      return (d * dims.h + y) * dims.w + x;
  }
  return 0;
}

}  // namespace cbrain
