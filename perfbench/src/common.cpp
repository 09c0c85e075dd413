#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <sched.h>
#include <unistd.h>

#include "bench.h"

namespace pb {

// ---- statistics -----------------------------------------------------------

namespace {

/// 1-based nearest rank of the q-percentile among n samples: ceil(q * n).
uint64_t nearest_rank(uint64_t n, double q) {
  const auto r = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<uint64_t>(r, 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const uint64_t r = nearest_rank(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(r - 1), v.end());
  return v[r - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

uint64_t samples_beyond(uint64_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::vector<Metric> end_to_end(PassResult& r) {
  const uint64_t n = r.op_ms.size();
  if (samples_beyond(n, 0.99) < kMinTailSamples) {
    r.errors.push_back("latency_p99_ms: only " +
                       std::to_string(samples_beyond(n, 0.99)) +
                       " samples beyond p99 (" + std::to_string(n) +
                       " ops); need " + std::to_string(kMinTailSamples));
  }
  // Medians over windows, and over stretches for the p99, keep a slow
  // stretch of a shared host (fewer than half of them) out of the figures.
  std::vector<double> p50s, rates, p99s;
  size_t begin = 0;
  for (const PassResult::Window& w : r.windows) {
    const std::vector<double> ops(r.op_ms.begin() + static_cast<long>(begin),
                                  r.op_ms.begin() + static_cast<long>(begin + w.ops));
    begin += w.ops;
    if (ops.empty() || w.loop_seconds <= 0) continue;
    p50s.push_back(median(ops));
    rates.push_back(static_cast<double>(w.ops) / w.loop_seconds);
  }
  // Consecutive kMinOps-op stretches; the last one takes the remainder.
  for (uint64_t b = 0; b + kMinOps <= n; b += kMinOps) {
    const uint64_t e = n - b < 2 * kMinOps ? n : b + kMinOps;
    p99s.push_back(percentile(std::vector<double>(r.op_ms.begin() + static_cast<long>(b),
                                                  r.op_ms.begin() + static_cast<long>(e)),
                              0.99));
  }
  return {
      {"latency_p50_ms", median(p50s), "ms"},
      {"latency_p99_ms", median(p99s), "ms"},
      {"throughput_ops_s", median(rates), "1/s"},
      {"setup_s", median(r.setup_s), "s"},
      {"peak_rss_mb", r.peak_rss_mb, "MiB"},
  };
}

// ---- spans ----------------------------------------------------------------

SpanLog::SpanLog(size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

uint32_t SpanLog::name_id(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t SpanLog::open(uint32_t name, uint32_t parent, uint64_t op) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNoSpan;
  }
  SpanRec s;
  s.name = name;
  s.parent = parent;
  s.op = op;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanLog::close(uint32_t idx, uint64_t end_ns) {
  if (idx == kNoSpan) return;
  spans_[idx].end_ns = end_ns != 0 ? end_ns : now_ns();
}

uint32_t SpanLog::add(uint32_t name, uint32_t parent, uint64_t op,
                      uint64_t start_ns, uint64_t end_ns) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNoSpan;
  }
  SpanRec s;
  s.name = name;
  s.parent = parent;
  s.op = op;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return static_cast<uint32_t>(spans_.size() - 1);
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"benchmark caller\"}}";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":",
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << buf << json_string(names_[s.name]);
    std::snprintf(buf, sizeof buf,
                  ",\"args\":{\"span\":%zu,\"parent\":%lld,\"op\":%llu}}", i,
                  s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    out << buf;
  }
  out << "\n],\"otherData\":{\"dropped\":" << dropped_ << "}}\n";
  return static_cast<bool>(out);
}

std::vector<uint64_t> self_times(const std::vector<SpanRec>& spans) {
  // Children of each span, in index order (a child opens after its parent).
  std::vector<std::vector<uint32_t>> kids(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint32_t p = spans[i].parent;
    if (p != kNoSpan && p < spans.size()) {
      kids[p].push_back(static_cast<uint32_t>(i));
    }
  }
  std::vector<uint64_t> out(spans.size());
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    iv.clear();
    for (const uint32_t k : kids[i]) {
      const uint64_t a = std::max(spans[k].start_ns, s.start_ns);
      const uint64_t b = std::min(spans[k].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, lo = 0, hi = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open) covered += hi - lo;
      lo = a;
      hi = b;
      open = true;
    }
    if (open) covered += hi - lo;
    out[i] = dur - std::min(dur, covered);
  }
  return out;
}

std::map<std::string, LayerTotals> layer_totals(const SpanLog& log) {
  std::map<std::string, LayerTotals> out;
  const std::vector<uint64_t> self = self_times(log.spans());
  for (size_t i = 0; i < log.spans().size(); ++i) {
    const SpanRec& s = log.spans()[i];
    LayerTotals& t = out[log.name(s.name)];
    const uint64_t dur = s.end_ns - s.start_ns;
    ++t.count;
    t.total_ns += dur;
    t.self_ns += self[i];
    t.dur_us.push_back(static_cast<double>(dur) / 1e3);
  }
  return out;
}

// ---- host -----------------------------------------------------------------

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

namespace {

/// A numeric field of /proc/self/status ("VmHWM:", "Threads:"); 0 if absent.
uint64_t status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) {
      return std::strtoull(line.c_str() + n, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

double peak_rss_mb() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // would also count the parent's memory the child inherited before exec.
  return static_cast<double>(status_field("VmHWM:")) / 1024.0;  // KiB -> MiB
}

uint64_t thread_count() { return status_field("Threads:"); }

double loadavg_1m() {
  double l[1] = {0};
  return getloadavg(l, 1) == 1 ? l[0] : -1;
}

uint64_t nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<uint64_t>(n) : 0;
}

// ---- JSON -----------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": " +
           json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace pb
