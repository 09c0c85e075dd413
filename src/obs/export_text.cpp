// Human-readable end-of-run output: the metrics table behind the demos'
// --stats flag. Quiescence-only, like every exporter (see export.h).
#include <cinttypes>

#include "obs/export.h"

namespace psme::obs {

void print_metrics_table(const MetricsRegistry& m, std::FILE* out) {
  size_t width = 0;
  for (const Metric& mt : m.metrics()) {
    if (mt.name.size() > width) width = mt.name.size();
  }
  std::fprintf(out, "%-*s  %-7s %14s\n", static_cast<int>(width), "metric",
               "kind", "value");
  for (const Metric& mt : m.metrics()) {
    std::fprintf(out, "%-*s  %-7s %14" PRIu64 "\n", static_cast<int>(width),
                 mt.name.c_str(),
                 mt.kind == MetricKind::Counter ? "counter" : "gauge",
                 mt.value);
  }
}

}  // namespace psme::obs
