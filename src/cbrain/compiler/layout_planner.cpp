#include "cbrain/compiler/layout_planner.hpp"

#include <algorithm>

#include "cbrain/compiler/tiler.hpp"

namespace cbrain {
namespace {

// The cube a layer consumes, given its scheme (conv) or kind.
CubeSpec consumed_cube(const Layer& l, Scheme scheme) {
  CubeSpec c;
  c.valid = true;
  switch (l.kind) {
    case LayerKind::kConv: {
      if (scheme == Scheme::kIntraUnroll) {
        // Raw, unpadded, spatial-major: the host unroll pass applies
        // padding while building the im2col staging cube.
        c.padded = l.in_dims;
        c.order = DataOrder::kSpatialMajor;
        return c;
      }
      const ConvGeom g = conv_geom(l, scheme);
      c.padded = {l.in_dims.d, g.in_h_pad, g.in_w_pad};
      c.off_y = l.conv().pad;
      c.off_x = l.conv().pad;
      c.order = scheme_input_order(scheme);
      return c;
    }
    case LayerKind::kPool: {
      const PoolParams& p = l.pool();
      // Ceil-mode windows may reach (out-1)*s + k; pad the cube that far
      // with zeros (the executor clamps reads to the valid region, so the
      // extra zeros are never consumed — they only regularize banding).
      const i64 ph = std::max(l.in_dims.h + 2 * p.pad,
                              (l.out_dims.h - 1) * p.stride + p.k);
      const i64 pw = std::max(l.in_dims.w + 2 * p.pad,
                              (l.out_dims.w - 1) * p.stride + p.k);
      c.padded = {l.in_dims.d, ph, pw};
      c.off_y = p.pad;
      c.off_x = p.pad;
      c.order = DataOrder::kDepthMajor;  // lanes read across maps
      return c;
    }
    default:
      // FC (canonical flatten), LRN, softmax, concat bookkeeping, and
      // eltwise add (whose depth-stacked in_dims stage operand a at
      // depths [0, d) and b at [d, 2d) via the usual depth offsets): raw
      // spatial-major.
      c.padded = l.in_dims;
      c.order = DataOrder::kSpatialMajor;
      return c;
  }
}

}  // namespace

i64 conv_weight_image_words(const Layer& conv, Scheme scheme) {
  const ConvParams& p = conv.conv();
  const i64 din_g = p.din_per_group(conv.in_dims.d);
  const i64 kw = conv_geom(conv, scheme).kw_eff();
  return p.dout * din_g * kw * kw;
}

LayoutPlan plan_layout(const Network& net, Policy policy,
                       const AcceleratorConfig& config) {
  LayoutPlan plan = plan_layout(net, assign_schemes(net, policy, config));
  plan.policy = policy;
  return plan;
}

LayoutPlan plan_layout(const Network& net, std::vector<Scheme> schemes) {
  CBRAIN_CHECK(static_cast<i64>(schemes.size()) == net.size(),
               "scheme table size mismatch");
  LayoutPlan plan;
  plan.schemes = std::move(schemes);
  const auto n = static_cast<std::size_t>(net.size());
  plan.in_cube.resize(n);
  plan.unroll_cube.resize(n);
  plan.out_maps.resize(n);
  plan.weight_addr.assign(n, 0);
  plan.weight_words.assign(n, 0);
  plan.bias_addr.assign(n, 0);
  plan.bias_words.assign(n, 0);

  i64 next = 0;
  auto alloc = [&next](i64 words) {
    const DramAddr a = next;
    next += words;
    return a;
  };

  // 1. One input cube per consuming layer, shaped for its scheme/kind.
  for (const Layer& l : net.layers()) {
    if (l.kind == LayerKind::kInput) continue;
    CubeSpec c = consumed_cube(l, plan.scheme_of(l.id));
    c.addr = alloc(c.words());
    plan.in_cube[static_cast<std::size_t>(l.id)] = c;
    if (l.is_conv() && plan.scheme_of(l.id) == Scheme::kIntraUnroll) {
      const ConvGeom g = conv_geom(l, Scheme::kIntraUnroll);
      CubeSpec u;
      u.valid = true;
      u.padded = {l.in_dims.d, g.out_h * g.out_w, g.k * g.k};
      u.order = DataOrder::kSpatialMajor;
      u.addr = alloc(u.words());
      plan.unroll_cube[static_cast<std::size_t>(l.id)] = u;
    }
  }

  // 2. The final layer's result cube.
  const Layer& last = net.layer(net.size() - 1);
  plan.result_cube.valid = true;
  plan.result_cube.padded = last.out_dims;
  plan.result_cube.order = DataOrder::kSpatialMajor;
  plan.result_cube.addr = alloc(plan.result_cube.words());

  // 3. Store targets: producer -> each consumer's cube, looking through
  // concat layers (a branch writes straight into the concatenated cube at
  // its depth offset; concat itself moves no data).
  // First, where does each layer's output sit inside its consumers?
  struct Target {
    LayerId consumer;
    i64 d_offset;
  };
  std::vector<std::vector<Target>> direct(n);
  for (const Layer& l : net.layers()) {
    i64 d_off = 0;
    for (LayerId src : l.inputs) {
      direct[static_cast<std::size_t>(src)].push_back({l.id, d_off});
      d_off += net.layer(src).out_dims.d;
    }
  }
  // Resolve a producer's targets through concats (no concat-of-concat in
  // the zoo; CHECK guards the assumption).
  for (const Layer& l : net.layers()) {
    auto& maps = plan.out_maps[static_cast<std::size_t>(l.id)];
    // Concat is pure bookkeeping: its producers write through it, and it
    // never stores anything itself.
    if (l.kind == LayerKind::kConcat) continue;
    std::vector<Target> work = direct[static_cast<std::size_t>(l.id)];
    std::vector<Target> resolved;
    while (!work.empty()) {
      const Target t = work.back();
      work.pop_back();
      const Layer& consumer = net.layer(t.consumer);
      if (consumer.kind == LayerKind::kConcat) {
        const auto& ups = direct[static_cast<std::size_t>(consumer.id)];
        if (ups.empty()) {
          // Terminal concat: branches land directly in the result cube at
          // their depth offsets.
          CBRAIN_CHECK(consumer.id == net.size() - 1,
                       "dangling concat " << consumer.name);
          OutputMap m;
          m.base = plan.result_cube.addr;
          m.cube_dims = plan.result_cube.padded;
          m.order = plan.result_cube.order;
          m.d_offset = t.d_offset;
          maps.push_back(m);
          continue;
        }
        for (const Target& up : ups) {
          CBRAIN_CHECK(net.layer(up.consumer).kind != LayerKind::kConcat,
                       "concat feeding concat is not supported");
          work.push_back({up.consumer, up.d_offset + t.d_offset});
        }
        continue;
      }
      resolved.push_back(t);
    }
    for (const Target& t : resolved) {
      const CubeSpec& c = plan.cube_of(t.consumer);
      OutputMap m;
      m.base = c.addr;
      m.cube_dims = c.padded;
      m.order = c.order;
      m.d_offset = t.d_offset;
      m.y_offset = c.off_y;
      m.x_offset = c.off_x;
      maps.push_back(m);
    }
    if (resolved.empty() && l.id == net.size() - 1) {
      OutputMap m;
      m.base = plan.result_cube.addr;
      m.cube_dims = plan.result_cube.padded;
      m.order = plan.result_cube.order;
      maps.push_back(m);
    }
  }

  // 4. Weight and bias images.
  for (const Layer& l : net.layers()) {
    const auto idx = static_cast<std::size_t>(l.id);
    if (l.is_conv()) {
      plan.weight_words[idx] = conv_weight_image_words(l, plan.scheme_of(l.id));
      plan.weight_addr[idx] = alloc(plan.weight_words[idx]);
      plan.bias_words[idx] = l.conv().dout;
      plan.bias_addr[idx] = alloc(plan.bias_words[idx]);
    } else if (l.is_fc()) {
      plan.weight_words[idx] = l.weight_dims().count();
      plan.weight_addr[idx] = alloc(plan.weight_words[idx]);
      plan.bias_words[idx] = l.fc().dout;
      plan.bias_addr[idx] = alloc(plan.bias_words[idx]);
    }
  }

  plan.total_words = next;
  return plan;
}

}  // namespace cbrain
