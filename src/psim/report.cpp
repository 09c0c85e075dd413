#include "psim/report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace psme {

std::vector<double> left_access_distribution(
    const std::vector<CycleTrace>& traces, size_t max_bin) {
  std::vector<uint64_t> tokens_at(max_bin + 1, 0);
  uint64_t total = 0;
  std::map<uint32_t, uint64_t> left_at;  // line -> accesses
  for (const CycleTrace& t : traces) {
    // Every line-touching task records its one line and side; a cycle's
    // per-line access count is the number of its tasks that name it.
    left_at.clear();
    for (const TaskRecord& r : t.tasks) {
      if (r.stats.touched_line && r.stats.line_side == Side::Left) {
        ++left_at[r.stats.line];
      }
    }
    for (const auto& [line, n] : left_at) {
      tokens_at[std::min<size_t>(n, max_bin)] += n;
      total += n;
    }
  }
  std::vector<double> pct(max_bin + 1, 0.0);
  if (total > 0) {
    for (size_t i = 1; i <= max_bin; ++i) {
      pct[i] = 100.0 * static_cast<double>(tokens_at[i]) /
               static_cast<double>(total);
    }
  }
  return pct;
}

std::vector<double> tasks_per_cycle_histogram(
    const std::vector<CycleTrace>& traces, uint32_t bin_width,
    uint32_t max_tasks) {
  const size_t n_bins = max_tasks / bin_width + 1;  // last bin = overflow
  std::vector<uint64_t> counts(n_bins, 0);
  for (const CycleTrace& t : traces) {
    const size_t bin =
        std::min<size_t>(t.task_count() / bin_width, n_bins - 1);
    ++counts[bin];
  }
  std::vector<double> pct(n_bins, 0.0);
  if (!traces.empty()) {
    for (size_t i = 0; i < n_bins; ++i) {
      pct[i] = 100.0 * static_cast<double>(counts[i]) /
               static_cast<double>(traces.size());
    }
  }
  return pct;
}

CriticalPath critical_path(const CycleTrace& trace, const CostModel& cost) {
  CriticalPath cp;
  const size_t n = trace.tasks.size();
  std::vector<double> path_cost(n, 0);
  std::vector<uint32_t> path_len(n, 0);
  // Tasks are recorded in execution order, so parents precede children.
  for (size_t i = 0; i < n; ++i) {
    const TaskRecord& r = trace.tasks[i];
    const double c = cost.task_cost(r);
    double base = 0;
    uint32_t len = 0;
    if (r.parent != UINT32_MAX) {
      base = path_cost[r.parent];
      len = path_len[r.parent];
    }
    path_cost[i] = base + c;
    path_len[i] = len + 1;
    if (path_cost[i] > cp.cost_us) {
      cp.cost_us = path_cost[i];
      cp.length = path_len[i];
    }
  }
  return cp;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TextTable::print() const {
  std::vector<size_t> width(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      line += "  ";
      line += cell;
      line.append(width[c] - cell.size(), ' ');
    }
    std::puts(line.c_str());
  };
  print_row(headers_);
  std::string sep;
  for (size_t c = 0; c < headers_.size(); ++c) {
    sep += "  ";
    sep.append(width[c], '-');
  }
  std::puts(sep.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string TextTable::num(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

}  // namespace psme
