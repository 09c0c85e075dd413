// Quiescence-only exporters for the tracing/metrics layer.
//
//   export_chrome_json — serializes every ring into Chrome trace_event
//     JSON (the JSON Array Format wrapped in {"traceEvents": ...}), loadable
//     in Perfetto (ui.perfetto.dev) and chrome://tracing. Spans become
//     complete ("X") events, steal attempts become instants ("i"),
//     queue-depth samples become counter ("C") series; each track gets a
//     thread_name metadata record plus a drop-accounting summary in
//     "otherData".
//   print_metrics_table — the human-readable end-of-run table of a
//     MetricsRegistry (what the demos' --stats flag prints).
//
// All of these read rings and registries without synchronization; the
// caller must be at quiescence (no match cycle in flight) — the same
// contract as TokenArena::reclaim_at_quiescence. See DESIGN.md §11.
#pragma once

#include <cstdio>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace psme::obs {

/// Stable display name of an event kind ("task", "match", "update.A", ...).
const char* event_name(EventKind kind);

/// Writes the whole trace as Chrome trace_event JSON to `out`.
void export_chrome_json(const Tracer& t, std::FILE* out);

/// Convenience: export_chrome_json into `path`. Returns false (and prints
/// to stderr) when the file cannot be opened.
bool export_chrome_file(const Tracer& t, const char* path);

/// If the PSME_TRACE env hook is set, exports there and reports the path on
/// `log` (may be null). No-op without the env var.
void export_env_trace(const Tracer& t, std::FILE* log = stderr);

/// Aligned name/kind/value table, one metric per line.
void print_metrics_table(const MetricsRegistry& m, std::FILE* out);

}  // namespace psme::obs
