// Self-tests of the benchmark's own arithmetic: the percentile rule, span
// self-time subtraction, the result-line format, and seeded inputs.
#include <cmath>

#include "bench.h"

namespace pb {
namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
  }
}

void test_percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(percentile(v, 0.50) == 50, "nearest-rank p50 of 1..100 is 50");
  expect(percentile(v, 0.99) == 99, "nearest-rank p99 of 1..100 is 99");
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  expect(samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");

  PassResult short_run;
  short_run.op_ms.assign(999, 1.0);
  short_run.windows = {{999, 1.0}};
  end_to_end(short_run);
  expect(!short_run.errors.empty(), "a run with 9 samples beyond p99 fails");

  PassResult long_run;
  long_run.op_ms.assign(1000, 1.0);
  long_run.windows = {{1000, 1.0}};
  end_to_end(long_run);
  expect(long_run.errors.empty(), "a run with 10 samples beyond p99 passes");

  // Three windows: the slow middle one moves neither median.
  PassResult windows;
  for (const double ms : {1.0, 1.0, 9.0, 9.0, 2.0, 2.0}) windows.op_ms.push_back(ms);
  windows.windows = {{2, 0.002}, {2, 0.018}, {2, 0.004}};
  const std::vector<Metric> m = end_to_end(windows);
  expect(m.size() == 5 && m[0].name == "latency_p50_ms" && m[0].value == 2.0,
         "latency_p50_ms is the median of window medians");
  expect(m[2].name == "throughput_ops_s" && m[2].value == 500,
         "throughput_ops_s is the median of window ops over loop time");

  // Stretches of 1,000, 1,000 and 1,500 ops (the last takes the
  // remainder): the slow middle one does not set the p99.
  PassResult stretches;
  stretches.op_ms.assign(1000, 1.0);
  stretches.op_ms.insert(stretches.op_ms.end(), 1000, 9.0);
  stretches.op_ms.insert(stretches.op_ms.end(), 1500, 2.0);
  stretches.windows = {{3500, 1.0}};
  const std::vector<Metric> s = end_to_end(stretches);
  expect(s[1].name == "latency_p99_ms" && s[1].value == 2.0 && stretches.errors.empty(),
         "latency_p99_ms is the median of 1,000-op stretch p99s");
}

void test_self_time() {
  // parent [0,100]; children [10,30] and [20,50] overlap, [90,120] runs
  // past the parent's end; a grandchild [12,18] belongs to child 1 only.
  const std::vector<SpanRec> spans = {
      {0, 100, 1, 0, kNoSpan},  // 0: parent
      {10, 30, 1, 1, 0},        // 1
      {20, 50, 1, 1, 0},        // 2
      {90, 120, 1, 1, 0},       // 3
      {12, 18, 1, 2, 1},        // 4: child of 1
      {200, 260, 2, 0, kNoSpan},  // 5: another op, no children
  };
  const std::vector<uint64_t> self = self_times(spans);
  expect(self[0] == 50, "parent self = 100 - [10,50] - [90,100]");
  expect(self[1] == 14, "child self = 20 - grandchild 6");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaf self = duration");
  expect(self[5] == 60, "root without children keeps its duration");

  SpanLog log(4);
  const uint32_t a = log.name_id("op");
  const uint32_t b = log.name_id("layer");
  expect(log.name_id("op") == a, "span names intern once");
  const uint32_t root = log.add(a, kNoSpan, 7, 1000, 2000);
  log.add(b, root, 7, 1100, 1900);
  log.add(b, root, 7, 1950, 2000);
  log.add(b, root, 7, 1990, 2100);
  expect(log.add(b, root, 7, 0, 1) == kNoSpan && log.dropped() == 1,
         "a full log drops and counts");
  const auto totals = layer_totals(log);
  expect(totals.at("op").self_ns == 150, "op self time = 1000 - 850 covered");
  expect(totals.at("layer").count == 3 && totals.at("layer").total_ns == 960,
         "layer totals sum durations");
}

void test_output_schema() {
  expect(metrics_json({}) == "{}", "empty metrics object");
  expect(metrics_json({{"latency_p50_ms", 0.25, "ms"}, {"setup_s", 2, "s"}}) ==
             "{\"latency_p50_ms\": {\"value\": 0.25, \"unit\": \"ms\"}, "
             "\"setup_s\": {\"value\": 2, \"unit\": \"s\"}}",
         "metrics object carries value and unit per name");
  expect(json_number(0.1) == "0.10000000000000001", "numbers keep all digits");
  expect(json_string("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"", "strings are escaped");
  expect(json_number(std::nan("")) == "null", "non-finite numbers become null");
}

void test_seeded_inputs() {
  Rng a(42, 7), b(42, 7), c(43, 7), d(42, 8);
  const uint64_t x = a.next();
  expect(x == b.next(), "same seed and stream give the same inputs");
  expect(x != c.next() && x != d.next(), "seed and stream both change inputs");
  for (int i = 0; i < 1000; ++i) {
    if (a.below(5) >= 5) {
      expect(false, "below(n) stays under n");
      break;
    }
  }
}

}  // namespace

int run_self_tests() {
  failures = 0;
  test_percentile_rule();
  test_self_time();
  test_output_schema();
  test_seeded_inputs();
  return failures;
}

}  // namespace pb
