// Trace analysis helpers shared by the benchmark harness: contention
// histograms (Figure 6-2), tasks-per-cycle histograms (Figures 6-11/6-12),
// critical-path extraction (long-chain analysis, Figures 6-6/6-8) and small
// fixed-width table printing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/trace.h"
#include "psim/cost_model.h"

namespace psme {

/// Figure 6-2: distribution of left-token bucket accesses. Entry k of the
/// result is the percentage of left tokens that accessed a bucket which saw
/// exactly k accesses within its cycle (index 0 unused), derived from the
/// recorded tasks' line stats.
std::vector<double> left_access_distribution(
    const std::vector<CycleTrace>& traces, size_t max_bin = 16);

/// Figures 6-11/6-12: histogram of tasks per cycle, bins of `bin_width`.
/// Returns percentages per bin; the last bin accumulates overflow.
std::vector<double> tasks_per_cycle_histogram(
    const std::vector<CycleTrace>& traces, uint32_t bin_width = 25,
    uint32_t max_tasks = 1200);

/// Longest cost-weighted dependency chain through the trace DAG, in µs, and
/// its length in tasks. Long chains bound the makespan regardless of P.
struct CriticalPath {
  double cost_us = 0;
  uint32_t length = 0;
};
CriticalPath critical_path(const CycleTrace& trace, const CostModel& cost);

/// Fixed-width text table, printed row by row to stdout.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print() const;

  static std::string num(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace psme
