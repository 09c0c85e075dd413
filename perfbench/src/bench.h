// Shared pieces of the psme benchmark binary: arguments, the seeded input
// generator, latency statistics, the benchmark-side span log, and the result
// record every workload fills. See README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace pb {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: one seed argument generates every input; `stream` separates
/// independent input families (episodes, cues, waves, orders).
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream)
      : s_(seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
           0x94d049bb133111ebull) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint32_t below(uint32_t n) { return static_cast<uint32_t>(next() % n); }

 private:
  uint64_t s_;
};

// ---- statistics -----------------------------------------------------------

/// Nearest-rank percentile (q in (0, 1]) of `v`; sorts a copy.
double percentile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
/// Samples strictly beyond the nearest-rank q-percentile of n samples.
uint64_t samples_beyond(uint64_t n, double q);
/// The percentile rule: a tail percentile is reported only when at least
/// this many samples lie beyond it.
constexpr uint64_t kMinTailSamples = 10;
/// Timed loops run until at least this many ops, and the p99 is taken over
/// stretches of this many, so every p99 has kMinTailSamples samples beyond.
constexpr uint64_t kMinOps = 1000;

// ---- benchmark-side spans ---------------------------------------------------

constexpr uint32_t kNoSpan = UINT32_MAX;

struct SpanRec {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t op = 0;  // op id; 0 = outside any op
  uint32_t name = 0;
  uint32_t parent = kNoSpan;
};

/// Spans around the benchmark's calls into the library, kept in memory
/// reserved up front and written out when the run ends. Single-threaded.
/// When full, further spans are dropped and counted.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity);

  /// Registers a span name; call before the timed loop.
  uint32_t name_id(const std::string& name);
  [[nodiscard]] const std::string& name(uint32_t id) const {
    return names_[id];
  }

  /// Opens a span now; returns its index (kNoSpan when dropped).
  uint32_t open(uint32_t name, uint32_t parent, uint64_t op);
  /// Closes span `idx` at `end_ns` (now when 0).
  void close(uint32_t idx, uint64_t end_ns = 0);
  /// Appends an already-closed span.
  uint32_t add(uint32_t name, uint32_t parent, uint64_t op, uint64_t start_ns,
               uint64_t end_ns);

  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  [[nodiscard]] uint64_t dropped() const { return dropped_; }

  /// Writes the spans as Chrome trace-event JSON (loads in Perfetto).
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<SpanRec> spans_;
  std::vector<std::string> names_;
  size_t capacity_;
  uint64_t dropped_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children merged, clipped to the parent).
std::vector<uint64_t> self_times(const std::vector<SpanRec>& spans);

/// Per-name totals over a span log.
struct LayerTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  std::vector<double> dur_us;  // every span's duration
};
std::map<std::string, LayerTotals> layer_totals(const SpanLog& log);

/// RAII span; a null log makes it a no-op (the untraced runs).
class Scope {
 public:
  Scope(SpanLog* log, uint32_t name, uint32_t parent, uint64_t op)
      : log_(log), idx_(log != nullptr ? log->open(name, parent, op)
                                       : kNoSpan) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] uint32_t id() const { return idx_; }

 private:
  SpanLog* log_;
  uint32_t idx_;
};

// ---- results ------------------------------------------------------------

struct Config {
  uint64_t seed = 1;
  double seconds = 10;
  SpanLog* spans = nullptr;  // non-null: the traced pass
};

/// What one pass of a workload produced.
struct PassResult {
  std::vector<double> op_ms;      // every timed op's latency
  /// Ops and loop wall time of each window (a round, session or block).
  struct Window {
    size_t ops = 0;
    double loop_seconds = 0;
  };
  std::vector<Window> windows;
  std::vector<double> setup_s;    // one sample per session set-up
  double peak_rss_mb = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // failed checks (run-level)
  uint64_t threads = 0;             // OS threads after the timed loop
  /// Exact counts (identical across runs with one seed).
  std::map<std::string, double> counts;
  /// Per-layer metrics (filled by the traced pass).
  std::map<std::string, double> layers;
  /// Fraction of op time the layer spans or phase clocks account for.
  double accounted = 0;
};

/// A named metric value with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// End-to-end metrics of one pass: the median over windows of each
/// window's median op latency and of its throughput, the median over
/// consecutive kMinOps-op stretches of each stretch's p99, the median
/// set-up, and peak RSS. Adds an error when the p99 lacks samples.
std::vector<Metric> end_to_end(PassResult& r);

// ---- host -----------------------------------------------------------------

/// Moves the calling thread to the next CPU it may run on, one CPU per
/// call, so every run spends equal time on every CPU of a shared host
/// instead of whichever one the scheduler picked. The destructor restores
/// the original affinity.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

double peak_rss_mb();
uint64_t thread_count();
double loadavg_1m();
uint64_t nproc();

// ---- JSON -----------------------------------------------------------------

std::string json_number(double v);
std::string json_string(const std::string& s);
std::string metrics_json(const std::vector<Metric>& ms);

// ---- workloads --------------------------------------------------------------

PassResult run_soar_learn(const Config& cfg);
PassResult run_query_churn(const Config& cfg);
PassResult run_group_wave(const Config& cfg);

/// Runs the self-tests; returns the number of failures.
int run_self_tests();

}  // namespace pb
