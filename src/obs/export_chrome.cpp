// Chrome trace_event JSON serialization (see export.h for the contract).
//
// Format notes (Trace Event Format spec, "JSON Object Format"):
//   * ts/dur are microseconds; doubles are legal, so we keep the rings'
//     nanosecond precision as fractional µs.
//   * A complete event ("X") carries its own duration — no begin/end
//     pairing needed, which matches how rings record spans (one event
//     pushed at span close, start time inside).
//   * Events need not be sorted; Perfetto sorts on load. Rings are pushed
//     in end-time order, which is not start-time order for nested spans.
#include <cinttypes>

#include "obs/export.h"

namespace psme::obs {
namespace {

/// Chrome phase for a kind: span, instant or counter.
char phase_of(EventKind k) {
  switch (k) {
    case EventKind::StealOk:
    case EventKind::StealFail: return 'i';
    case EventKind::QueueDepth: return 'C';
    default: return 'X';
  }
}

void write_common(std::FILE* out, const char* name, char ph, size_t tid,
                  uint64_t ts_ns) {
  std::fprintf(out,
               "{\"name\":\"%s\",\"ph\":\"%c\",\"pid\":1,\"tid\":%zu,"
               "\"ts\":%.3f",
               name, ph, tid, static_cast<double>(ts_ns) / 1e3);
}

void write_event(std::FILE* out, size_t tid, const TraceEvent& e) {
  const char ph = phase_of(e.kind);
  write_common(out, event_name(e.kind), ph, tid, e.ts_ns);
  if (ph == 'X') {
    std::fprintf(out, ",\"dur\":%.3f", static_cast<double>(e.dur_ns) / 1e3);
  }
  if (ph == 'i') std::fputs(",\"s\":\"t\"", out);
  switch (e.kind) {
    case EventKind::TaskExec:
      std::fprintf(out,
                   ",\"args\":{\"node\":%" PRIu32 ",\"tests\":%" PRIu32
                   ",\"probes\":%" PRIu32 ",\"inserts\":%" PRIu32
                   ",\"emits\":%" PRIu32 ",\"add\":%d,\"side\":\"%s\"}",
                   e.node, e.v0, e.v1, e.v2, e.v3,
                   (e.flags & kTaskFlagAdd) != 0 ? 1 : 0,
                   (e.flags & kTaskFlagRight) != 0 ? "R" : "L");
      break;
    case EventKind::StealOk:
      std::fprintf(out, ",\"args\":{\"victim\":%" PRIu32 "}", e.node);
      break;
    case EventKind::StealFail:
      std::fprintf(out, ",\"args\":{\"peers_probed\":%" PRIu32 "}", e.v0);
      break;
    case EventKind::QueueDepth:
      std::fprintf(out, ",\"args\":{\"depth\":%" PRIu32 "}", e.v0);
      break;
    case EventKind::ChunkCompile:
    case EventKind::UpdateA:
    case EventKind::UpdateB:
    case EventKind::UpdateC:
      std::fprintf(out, ",\"args\":{\"pnode\":%" PRIu32 "}", e.node);
      break;
    default:
      if (e.node != 0) {
        std::fprintf(out, ",\"args\":{\"node\":%" PRIu32 "}", e.node);
      }
      break;
  }
  std::fputc('}', out);
}

}  // namespace

const char* event_name(EventKind kind) {
  switch (kind) {
    case EventKind::TaskExec: return "task";
    case EventKind::MatchCycle: return "match";
    case EventKind::DrainRemoves: return "drain.removes";
    case EventKind::DrainAdds: return "drain.adds";
    case EventKind::Elaborate: return "elaborate";
    case EventKind::Decide: return "decide";
    case EventKind::Gc: return "gc";
    case EventKind::ChunkBuild: return "chunk.build";
    case EventKind::ChunkCompile: return "chunk.compile";
    case EventKind::ProdRemove: return "prod.remove";
    case EventKind::UpdateA: return "update.A";
    case EventKind::UpdateB: return "update.B";
    case EventKind::UpdateC: return "update.C";
    case EventKind::Park: return "park";
    case EventKind::StealOk: return "steal";
    case EventKind::StealFail: return "steal.fail";
    case EventKind::QueueDepth: return "queue_depth";
  }
  return "?";
}

void export_chrome_json(const Tracer& t, std::FILE* out) {
  std::fputs("{\"traceEvents\":[", out);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputc(',', out);
    first = false;
  };
  for (size_t tr = 0; tr < t.tracks(); ++tr) {
    sep();
    std::fprintf(out,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"",
                 tr);
    if (tr == 0) {
      std::fputs("engine", out);
    } else {
      std::fprintf(out, "worker %zu", tr - 1);
    }
    std::fputs("\"}}", out);
  }
  for (size_t tr = 0; tr < t.tracks(); ++tr) {
    const EventRing& ring = t.ring(tr);
    for (size_t i = 0; i < ring.size(); ++i) {
      sep();
      write_event(out, tr, ring[i]);
    }
  }
  std::fprintf(out,
               "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
               "\"tracks\":%zu,\"events\":%" PRIu64 ",\"dropped\":%" PRIu64
               "}}\n",
               t.tracks(), t.total_events(), t.total_dropped());
}

bool export_chrome_file(const Tracer& t, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot open trace path %s\n", path);
    return false;
  }
  export_chrome_json(t, f);
  std::fclose(f);
  return true;
}

void export_env_trace(const Tracer& t, std::FILE* log) {
  const char* path = env_trace_path();
  if (path == nullptr) return;
  if (export_chrome_file(t, path) && log != nullptr) {
    std::fprintf(log,
                 "obs: wrote %" PRIu64 " events (%" PRIu64
                 " dropped) to %s — open in ui.perfetto.dev\n",
                 t.total_events(), t.total_dropped(), path);
  }
}

}  // namespace psme::obs
