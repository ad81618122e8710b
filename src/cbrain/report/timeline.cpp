#include "cbrain/report/timeline.hpp"

#include <algorithm>
#include <sstream>

#include "cbrain/common/strings.hpp"

namespace cbrain {

std::string render_span_timeline(const obs::TraceData& data,
                                 const TimelineOptions& options) {
  // Bars are the cycle-domain cat=="layer" spans; the axis ends at the
  // outermost (depth-0) cycle span when present, else the last layer end.
  std::vector<const obs::Span*> layers;
  i64 total = 0;
  for (const obs::Span& s : data.spans) {
    if (s.domain != obs::Domain::kCycles) continue;
    if (s.depth == 0) total = std::max(total, s.start + s.dur);
    if (s.cat == "layer") layers.push_back(&s);
  }
  if (layers.empty() || total <= 0) return "(empty trace)\n";
  std::stable_sort(layers.begin(), layers.end(),
                   [](const obs::Span* a, const obs::Span* b) {
                     return a->start < b->start;
                   });

  // Compute-bound share of each layer window: summed overlap with the
  // cat=="compute" spans on the same track.
  auto compute_within = [&](const obs::Span& layer) {
    i64 sum = 0;
    const i64 l0 = layer.start;
    const i64 l1 = layer.start + layer.dur;
    for (const obs::Span& s : data.spans) {
      if (s.domain != obs::Domain::kCycles || s.track != layer.track ||
          s.cat != "compute")
        continue;
      const i64 a = std::max(l0, s.start);
      const i64 b = std::min(l1, s.start + s.dur);
      if (b > a) sum += b - a;
    }
    return std::min(sum, layer.dur);
  };

  std::ostringstream os;
  std::size_t name_w = 5;
  for (const obs::Span* s : layers) name_w = std::max(name_w, s->name.size());
  const double scale =
      static_cast<double>(options.width) / static_cast<double>(total);

  os << std::string(name_w, ' ') << "  0 " << std::string(options.width, '_')
     << " " << with_commas(static_cast<u64>(total)) << " cycles\n";
  for (const obs::Span* s : layers) {
    const i64 span = s->dur;
    const i64 compute = compute_within(*s);
    auto col = [&](i64 cycle) {
      return clamp_i64(static_cast<i64>(static_cast<double>(cycle) * scale),
                       0, options.width);
    };
    const i64 c0 = col(s->start);
    i64 c1 = std::max(c0 + 1, col(s->start + s->dur));
    c1 = std::min<i64>(c1, options.width);
    std::string bar(static_cast<std::size_t>(options.width), ' ');
    // Solid for the compute-bound share of the bar, hollow for stalls.
    const i64 bar_len = c1 - c0;
    const i64 solid =
        span > 0 ? (bar_len * compute + span - 1) / span : bar_len;
    for (i64 c = c0; c < c1; ++c)
      bar[static_cast<std::size_t>(c)] = (c - c0) < solid ? '#' : '.';
    os << s->name << std::string(name_w - s->name.size(), ' ') << "    "
       << bar << ' ' << with_commas(static_cast<u64>(span));
    if (options.show_percent && span > 0) {
      os << " (" << fmt_percent(static_cast<double>(compute) /
                                    static_cast<double>(span),
                                0)
         << " compute)";
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace cbrain
