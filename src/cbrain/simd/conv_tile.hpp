// cbrain::simd::ConvTile — the argument block of simd::conv_tile_s16
// (simd.hpp). Plain data only: the public API and the backend translation
// units, which may share no inline code (backend_impl.hpp), both include
// it.
#pragma once

#include <cstdint>

namespace cbrain::simd {

// Output channels and pixels of the tile kernel's register tile.
inline constexpr std::int64_t kTileOuts = 6;
inline constexpr std::int64_t kTilePixels = 16;

// One output-channel block of a conv over a staged input
// (func/kernels.hpp stages and packs for both tiers; DESIGN.md §12). A
// staged pixel is an (even, odd) input-channel pair of int16, so pixel i
// of pair p is in[2 * (p * pair_stride + i)] and the element after it.
// Output pixel q of the flat run reads pixel q + taps[t] of every pair
// for tap t, and is output (q / pitch, q % pitch): it is stored when
// q % pitch < ow and dropped otherwise (the staged pad columns).
struct ConvTile {
  const std::int16_t* in;
  std::int64_t pair_stride;  // pixels from one pair's block to the next
  std::int64_t pairs;
  const std::int64_t* taps;  // pixel offset of each tap
  std::int64_t ntaps;
  // The block's weights: pair (even, odd) of output o for (pair p, tap t)
  // at w[2 * ((p * ntaps + t) * kTileOuts + o)] and the element after it.
  const std::int16_t* w;
  const std::int64_t* bias;  // promoted (Q16.16) bias of outputs [0, outs)
  std::int64_t outs;         // outputs stored, at most kTileOuts
  bool relu;
  std::int64_t q0, q1;  // flat pixels computed: [q0, q1)
  std::int64_t pitch, ow;
  // Output o, pixel (y, x) at out[o * out_plane + y * ow + x].
  std::int16_t* out;
  std::int64_t out_plane;
  // Raw-sum mode (the cycle tier's value pass): when set, each output's
  // exact sum, widened to int64 with no bias and no finalize, goes to
  // sums[o * out_plane + y * ow + x] instead; bias, relu and out are
  // unused.
  std::int64_t* sums = nullptr;
};

}  // namespace cbrain::simd
