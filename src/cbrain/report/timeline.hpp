// ASCII timeline (Gantt) rendering of an execution trace: one bar per
// layer on the global cycle axis, with the compute-bound portion drawn
// solid and DMA-exposed/serial stalls drawn hollow.
//
// The renderer is based on obs span data — the shape both the live
// simulator tracer and model_network(..., &spans) produce — so one
// representation feeds both the ASCII Gantt here and the Chrome-trace
// JSON exporter (obs/chrome_trace.hpp).
#pragma once

#include <string>

#include "cbrain/obs/tracer.hpp"

namespace cbrain {

struct TimelineOptions {
  int width = 64;          // characters for the cycle axis
  bool show_percent = true;
};

// Renders the cycle-domain layer spans of `data` as an ASCII Gantt. The
// solid portion of each bar is the summed duration of cat=="compute"
// child spans on the layer's track inside the layer's window.
std::string render_span_timeline(const obs::TraceData& data,
                                 const TimelineOptions& options = {});

}  // namespace cbrain
