// Tracing & metrics layer (DESIGN.md §11): ring overflow drop-and-count,
// registry snapshot/delta arithmetic, and a Chrome trace_event JSON
// round-trip — the exported document is parsed back and checked for valid
// structure, per-track thread names, and laminar span nesting (any two
// spans on one track are either disjoint or properly nested, which is what
// makes the trace loadable and meaningful in Perfetto).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "lang/parser.h"
#include "obs/event_ring.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace psme {
namespace {

// ---- event ring ------------------------------------------------------------

TEST(EventRing, OverflowDropsAndCounts) {
  obs::EventRing ring(4);
  for (uint32_t i = 0; i < 7; ++i) {
    obs::TraceEvent e;
    e.node = i;
    ring.push(e);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.dropped(), 3u);
  // The EARLIEST events win (the trace shows how the window started).
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].node, static_cast<uint32_t>(i));
  }
}

TEST(EventRing, ClearRewindsButKeepsCumulativeDropCount) {
  obs::EventRing ring(2);
  obs::TraceEvent e;
  for (int i = 0; i < 5; ++i) ring.push(e);
  EXPECT_EQ(ring.dropped(), 3u);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 3u) << "clear() must not erase drop accounting";
  ring.push(e);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.dropped(), 3u);
}

// ---- metrics registry ------------------------------------------------------

TEST(MetricsRegistry, CountersAddGaugesOverwrite) {
  obs::MetricsRegistry m;
  m.counter("par.tasks", 10);
  m.counter("par.tasks", 5);
  m.gauge("arena.chunks_live", 7);
  m.gauge("arena.chunks_live", 3);
  EXPECT_EQ(m.value("par.tasks"), 15u);
  EXPECT_EQ(m.value("arena.chunks_live"), 3u);
  EXPECT_TRUE(m.has("par.tasks"));
  EXPECT_FALSE(m.has("par.steals"));
  EXPECT_EQ(m.value("par.steals"), 0u) << "absent metrics read as zero";
}

TEST(MetricsRegistry, SnapshotDeltaArithmetic) {
  obs::MetricsRegistry m;
  m.counter("c.up", 100);
  m.gauge("g.level", 4);
  const obs::MetricsRegistry base = m.snapshot();

  m.counter("c.up", 20);
  m.counter("c.fresh", 3);  // absent from base: counts from 0
  m.gauge("g.level", 9);

  const obs::MetricsRegistry d = m.delta(base);
  EXPECT_EQ(d.value("c.up"), 20u);
  EXPECT_EQ(d.value("c.fresh"), 3u);
  EXPECT_EQ(d.value("g.level"), 9u) << "gauges keep the newer value";

  // A counter that went "backwards" (base from another run) saturates at 0.
  obs::MetricsRegistry big;
  big.counter("c.up", 1000);
  EXPECT_EQ(m.delta(big).value("c.up"), 0u);
}

TEST(MetricsRegistry, MergeAddsCountersOverwritesGauges) {
  obs::MetricsRegistry a, b;
  a.counter("c", 1);
  a.gauge("g", 10);
  b.counter("c", 2);
  b.gauge("g", 20);
  a.merge(b);
  EXPECT_EQ(a.value("c"), 3u);
  EXPECT_EQ(a.value("g"), 20u);
}

TEST(Metrics, ParallelStatsAccumulateAndCollect) {
  ParallelStats a, b;
  a.tasks = 10;
  a.steals = 1;
  a.wall_seconds = 0.5;
  a.pool_slabs = 2;
  b.tasks = 5;
  b.failed_steals = 4;
  b.wall_seconds = 0.25;
  b.pool_slabs = 3;
  a.accumulate(b);
  EXPECT_EQ(a.tasks, 15u);
  EXPECT_EQ(a.steals, 1u);
  EXPECT_EQ(a.failed_steals, 4u);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 0.75);
  EXPECT_EQ(a.pool_slabs, 3u) << "gauges take the newer snapshot";

  obs::MetricsRegistry m;
  obs::collect(m, a);
  EXPECT_EQ(m.value("par.tasks"), 15u);
  EXPECT_EQ(m.value("par.failed_steals"), 4u);
  EXPECT_EQ(m.value("par.wall_us"), 750000u);
}

TEST(Metrics, MatchStatsDelta) {
  MatchStats t0, t1;
  t0.spill_allocs = 10;
  t0.spill_bytes = 100;
  t0.chunks_allocated = 3;
  t1.spill_allocs = 14;
  t1.spill_bytes = 180;
  t1.chunks_allocated = 5;
  t1.chunks_freed = 1;
  t1.chunks_live = 4;
  t1.epoch = 9;
  const MatchStats d = t1.delta(t0);
  EXPECT_EQ(d.spill_allocs, 4u);
  EXPECT_EQ(d.spill_bytes, 80u);
  EXPECT_EQ(d.chunks_allocated, 2u);
  EXPECT_EQ(d.chunks_freed, 1u);
  EXPECT_EQ(d.chunks_live, 4u) << "gauges keep the current snapshot";
  EXPECT_EQ(d.epoch, 9u);
}

// ---- minimal JSON parser for the round-trip check --------------------------

struct JVal {
  enum class T { Null, Bool, Num, Str, Arr, Obj };
  T t = T::Null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JVal> arr;
  std::map<std::string, JVal> obj;

  const JVal& at(const std::string& key) const {
    auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JVal parse() {
    JVal v = value();
    ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing junk");
    return v;
  }

 private:
  void ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }
  JVal value() {
    ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JVal v;
      v.t = JVal::T::Str;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }
  JVal object() {
    JVal v;
    v.t = JVal::T::Obj;
    expect('{');
    ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      ws();
      std::string key = string();
      ws();
      expect(':');
      v.obj.emplace(std::move(key), value());
      ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }
  JVal array() {
    JVal v;
    v.t = JVal::T::Arr;
    expect('[');
    ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(value());
      ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }
  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) throw std::runtime_error("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        out.push_back(s_[pos_++]);
        continue;
      }
      out.push_back(c);
    }
  }
  JVal boolean() {
    JVal v;
    v.t = JVal::T::Bool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.b = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.b = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }
  JVal null() {
    if (s_.compare(pos_, 4, "null") != 0) throw std::runtime_error("bad null");
    pos_ += 4;
    return JVal{};
  }
  JVal number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    JVal v;
    v.t = JVal::T::Num;
    v.num = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::string export_to_string(const obs::Tracer& t) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  obs::export_chrome_json(t, f);
  std::rewind(f);
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Laminar-family check: sorted by (start asc, end desc), every span must
/// nest inside the enclosing open span or start after it ends. Boundary
/// sharing is allowed (a child may end exactly where its parent does).
void expect_laminar(const std::vector<std::pair<double, double>>& raw) {
  auto spans = raw;
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  });
  const double eps = 1e-3;  // µs; export has ns resolution
  std::vector<std::pair<double, double>> stack;
  for (const auto& s : spans) {
    while (!stack.empty() && stack.back().second <= s.first + eps) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      EXPECT_LE(s.second, stack.back().second + eps)
          << "span [" << s.first << "," << s.second
          << "] overlaps but does not nest in [" << stack.back().first << ","
          << stack.back().second << "]";
    }
    stack.push_back(s);
  }
}

// ---- chrome JSON round-trip ------------------------------------------------

TEST(ChromeExport, RoundTripStructureAndNesting) {
  // A traced serial engine: match cycles, a run-time production add (§5.2
  // phases on the engine track), then more cycles.
  EngineOptions opts;
  opts.trace.enabled = true;
  opts.record_traces = false;
  Engine e(opts);
  e.load(
      "(p j2 (a ^v <x>) (b ^v <x>) --> (halt))"
      "(p neg (a ^v <x>) -(blocker ^v <x>) --> (halt))");
  for (int i = 0; i < 6; ++i) {
    e.add_wme_text("(a ^v " + std::to_string(i % 3) + ")");
    e.add_wme_text("(b ^v " + std::to_string(i % 3) + ")");
  }
  e.match();

  RhsArena arena;
  Parser parser(e.syms(), e.schemas(), arena);
  auto parsed = parser.parse_file("(p late (a ^v <x>) (c ^v <x>) --> (halt))");
  ASSERT_EQ(parsed.size(), 1u);
  e.add_production_runtime(std::move(parsed.front()));

  e.add_wme_text("(c ^v 1)");
  e.match();

  ASSERT_NE(e.tracer(), nullptr);
  const std::string json = export_to_string(*e.tracer());
  JVal doc;
  ASSERT_NO_THROW(doc = JsonParser(json).parse()) << json.substr(0, 400);

  const JVal& events = doc.at("traceEvents");
  ASSERT_EQ(events.t, JVal::T::Arr);
  ASSERT_FALSE(events.arr.empty());

  size_t metadata = 0;
  std::map<std::string, int> names;
  std::vector<std::pair<double, double>> track0_spans;
  for (const JVal& ev : events.arr) {
    const std::string ph = ev.at("ph").str;
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(ev.at("name").str, "thread_name");
      continue;
    }
    ++names[ev.at("name").str];
    EXPECT_TRUE(ev.has("ts"));
    EXPECT_TRUE(ev.has("tid"));
    if (ph == "X") {
      ASSERT_TRUE(ev.has("dur"));
      if (ev.at("tid").num == 0) {
        track0_spans.emplace_back(ev.at("ts").num,
                                  ev.at("ts").num + ev.at("dur").num);
      }
    }
  }
  EXPECT_EQ(metadata, e.tracer()->tracks());

  // The engine track carries the cycle spans, task spans, and the §5.2
  // phases of the runtime add.
  EXPECT_GE(names["match"], 2);
  EXPECT_GT(names["task"], 0);
  EXPECT_EQ(names["chunk.compile"], 1);
  EXPECT_EQ(names["update.A"], 1);
  EXPECT_EQ(names["update.B"], 1);
  EXPECT_EQ(names["update.C"], 1);

  expect_laminar(track0_spans);

  // Drop accounting rides along in otherData.
  const JVal& other = doc.at("otherData");
  EXPECT_EQ(other.at("tracks").num, static_cast<double>(e.tracer()->tracks()));
  EXPECT_EQ(other.at("events").num,
            static_cast<double>(e.tracer()->total_events()));
}

TEST(ChromeExport, ParallelRunHasPerWorkerTracks) {
  EngineOptions opts;
  opts.trace.enabled = true;
  opts.record_traces = false;
  opts.match_workers = 4;
  Engine e(opts);
  e.load("(p cross (a ^v <x>) (c ^w <y>) --> (halt))");
  for (int i = 0; i < 24; ++i) {
    e.add_wme_text("(a ^v " + std::to_string(i) + ")");
    e.add_wme_text("(c ^w " + std::to_string(i) + ")");
  }
  e.match();

  ASSERT_NE(e.tracer(), nullptr);
  EXPECT_EQ(e.tracer()->tracks(), 5u) << "engine track + one per worker";

  const std::string json = export_to_string(*e.tracer());
  JVal doc;
  ASSERT_NO_THROW(doc = JsonParser(json).parse());

  // Task spans must appear on at least one WORKER track (tid >= 1), and
  // every worker track's spans must be laminar.
  std::map<int, std::vector<std::pair<double, double>>> spans_by_tid;
  size_t worker_tasks = 0;
  for (const JVal& ev : doc.at("traceEvents").arr) {
    if (ev.at("ph").str != "X") continue;
    const int tid = static_cast<int>(ev.at("tid").num);
    spans_by_tid[tid].emplace_back(ev.at("ts").num,
                                   ev.at("ts").num + ev.at("dur").num);
    if (tid >= 1 && ev.at("name").str == "task") ++worker_tasks;
  }
  EXPECT_GT(worker_tasks, 0u);
  for (const auto& [tid, spans] : spans_by_tid) expect_laminar(spans);
}

// ---- env hook --------------------------------------------------------------

TEST(EnvTrace, PathOnlyWhenSetAndNonEmpty) {
  unsetenv("PSME_TRACE");
  EXPECT_EQ(obs::env_trace_path(), nullptr);
  setenv("PSME_TRACE", "", 1);
  EXPECT_EQ(obs::env_trace_path(), nullptr);
  setenv("PSME_TRACE", "/tmp/x.json", 1);
  ASSERT_NE(obs::env_trace_path(), nullptr);
  EXPECT_STREQ(obs::env_trace_path(), "/tmp/x.json");
  unsetenv("PSME_TRACE");
}

}  // namespace
}  // namespace psme
