#include "analysis/profile_report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "obs/json.h"
#include "psim/report.h"

namespace psme::analysis {

using obs::append_escaped;
using obs::append_num;

namespace {

/// Ratios span many orders of magnitude; fixed two decimals would collapse
/// everything below 0.005 to zero, so they get scientific notation (C99
/// pins the %e format, so output stays platform-independent).
void append_ratio(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3e", v);
  out += buf;
}

}  // namespace

ProfileReport build_profile_report(const Network& net,
                                   const std::vector<const AddRecord*>& records,
                                   const obs::ProfileSnapshot& snap) {
  ProfileReport rep;
  rep.sample_shift = snap.sample_shift;
  rep.total_activations = snap.total_activations;
  rep.total_sampled = snap.total_sampled;
  rep.total_us = static_cast<double>(snap.total_time_ns) / 1e3;

  const std::vector<std::vector<uint32_t>> slices =
      production_slices(net, records);
  for (size_t i = 0; i < records.size(); ++i) {
    const AddRecord* r = records[i];
    if (slices[i].empty()) continue;  // removed production
    ProductionProfile pp;
    if (r->ast != nullptr) {
      pp.name = std::string(net.syms().name(r->ast->name));
    }
    pp.pnode = r->compiled.pnode;
    pp.nodes = static_cast<uint32_t>(slices[i].size());
    for (const uint32_t v : slices[i]) {
      if (v >= snap.nodes.size()) continue;  // node added after the snapshot
      const obs::ProfileCell& c = snap.nodes[v];
      pp.activations += c.activations;
      pp.sampled += c.sampled;
      pp.emits += c.emits;
      pp.est_us += obs::ProfileSnapshot::est_ns(c) / 1e3;
    }
    rep.productions.push_back(std::move(pp));
  }

  for (size_t v = 0; v < snap.nodes.size(); ++v) {
    const obs::ProfileCell& c = snap.nodes[v];
    if (c.activations == 0) continue;
    NodeProfile np;
    np.node = static_cast<uint32_t>(v);
    const Node* node =
        v < net.node_count() ? net.node(static_cast<uint32_t>(v)) : nullptr;
    np.type = node != nullptr ? node_type_name(node->type) : "";
    np.activations = c.activations;
    np.emits = c.emits;
    np.est_us = obs::ProfileSnapshot::est_ns(c) / 1e3;
    rep.nodes.push_back(np);
  }

  for (size_t a = 0; a < snap.agents.size(); ++a) {
    const obs::ProfileAgentCell& c = snap.agents[a];
    if (c.activations == 0) continue;
    AgentProfile ap;
    ap.agent = static_cast<uint32_t>(a);
    ap.activations = c.activations;
    ap.est_us = obs::ProfileSnapshot::est_ns(c) / 1e3;
    rep.agents.push_back(ap);
  }

  return rep;
}

void ProfileReport::print_table(size_t top_k) const {
  std::vector<size_t> order(productions.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return productions[a].est_us > productions[b].est_us;
  });
  if (order.size() > top_k) order.resize(top_k);

  std::printf("profile: %" PRIu64 " activations (%" PRIu64
              " timed, shift %u), est %s µs total\n",
              total_activations, total_sampled, sample_shift,
              TextTable::num(total_us).c_str());
  TextTable table({"production", "nodes", "acts", "emits", "est µs"});
  for (const size_t i : order) {
    const ProductionProfile& pp = productions[i];
    table.add_row({pp.name, std::to_string(pp.nodes),
                   std::to_string(pp.activations), std::to_string(pp.emits),
                   TextTable::num(pp.est_us)});
  }
  table.print();

  if (agents.size() > 1) {
    TextTable at({"agent", "acts", "est µs"});
    for (const AgentProfile& ap : agents) {
      at.add_row({std::to_string(ap.agent), std::to_string(ap.activations),
                  TextTable::num(ap.est_us)});
    }
    at.print();
  }
}

std::string profile_json(const std::string& name, const ProfileReport& rep) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"network\": ";
  append_escaped(out, name);
  out += ",\n  \"profile\": {\n    \"sample_shift\": ";
  append_num(out, static_cast<uint64_t>(rep.sample_shift));
  out += ",\n    \"activations\": ";
  append_num(out, rep.total_activations);
  out += ",\n    \"sampled\": ";
  append_num(out, rep.total_sampled);
  out += ",\n    \"time_us\": ";
  append_num(out, rep.total_us);
  out += ",\n    \"productions\": [";
  for (size_t i = 0; i < rep.productions.size(); ++i) {
    const ProductionProfile& pp = rep.productions[i];
    out += i == 0 ? "\n" : ",\n";
    out += "      {\"name\": ";
    append_escaped(out, pp.name);
    out += ", \"pnode\": ";
    append_num(out, static_cast<uint64_t>(pp.pnode));
    out += ", \"nodes\": ";
    append_num(out, static_cast<uint64_t>(pp.nodes));
    out += ", \"acts\": ";
    append_num(out, pp.activations);
    out += ", \"sampled\": ";
    append_num(out, pp.sampled);
    out += ", \"emits\": ";
    append_num(out, pp.emits);
    out += ", \"est_us\": ";
    append_num(out, pp.est_us);
    out += "}";
  }
  if (!rep.productions.empty()) out += "\n    ";
  out += "],\n    \"nodes\": [";
  for (size_t i = 0; i < rep.nodes.size(); ++i) {
    const NodeProfile& np = rep.nodes[i];
    out += i == 0 ? "\n" : ",\n";
    out += "      {\"node\": ";
    append_num(out, static_cast<uint64_t>(np.node));
    out += ", \"type\": ";
    append_escaped(out, np.type);
    out += ", \"acts\": ";
    append_num(out, np.activations);
    out += ", \"emits\": ";
    append_num(out, np.emits);
    out += ", \"est_us\": ";
    append_num(out, np.est_us);
    out += "}";
  }
  if (!rep.nodes.empty()) out += "\n    ";
  out += "],\n    \"agents\": [";
  for (size_t i = 0; i < rep.agents.size(); ++i) {
    const AgentProfile& ap = rep.agents[i];
    out += i == 0 ? "\n" : ",\n";
    out += "      {\"agent\": ";
    append_num(out, static_cast<uint64_t>(ap.agent));
    out += ", \"acts\": ";
    append_num(out, ap.activations);
    out += ", \"est_us\": ";
    append_num(out, ap.est_us);
    out += "}";
  }
  if (!rep.agents.empty()) out += "\n    ";
  out += "]\n  }\n}\n";
  return out;
}

// ---- parsing (the profile_json subset only) --------------------------------

namespace {

size_t skip_ws(const std::string& t, size_t pos) {
  while (pos < t.size() &&
         (t[pos] == ' ' || t[pos] == '\n' || t[pos] == '\t' || t[pos] == '\r')) {
    ++pos;
  }
  return pos;
}

/// Position just past `"key":` at or after `pos`, bounded by `end`;
/// std::string::npos when absent.
size_t find_key(const std::string& t, size_t pos, size_t end, const char* key) {
  const std::string quoted = std::string("\"") + key + "\"";
  const size_t at = t.find(quoted, pos);
  if (at == std::string::npos || at >= end) return std::string::npos;
  size_t p = skip_ws(t, at + quoted.size());
  if (p >= t.size() || t[p] != ':') return std::string::npos;
  return skip_ws(t, p + 1);
}

bool parse_u64(const std::string& t, size_t pos, uint64_t& out) {
  if (pos >= t.size()) return false;
  char* endp = nullptr;
  out = std::strtoull(t.c_str() + pos, &endp, 10);
  return endp != t.c_str() + pos;
}

bool parse_double(const std::string& t, size_t pos, double& out) {
  if (pos >= t.size()) return false;
  char* endp = nullptr;
  out = std::strtod(t.c_str() + pos, &endp);
  return endp != t.c_str() + pos;
}

bool parse_string(const std::string& t, size_t pos, std::string& out) {
  if (pos >= t.size() || t[pos] != '"') return false;
  out.clear();
  for (size_t i = pos + 1; i < t.size(); ++i) {
    const char c = t[i];
    if (c == '"') return true;
    if (c == '\\' && i + 1 < t.size()) {
      const char e = t[++i];
      switch (e) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'u':
          // profile names never need non-ASCII; decode the low byte only.
          if (i + 4 < t.size()) {
            out += static_cast<char>(
                std::strtoul(t.substr(i + 1, 4).c_str(), nullptr, 16));
            i += 4;
          }
          break;
        default: out += e;
      }
    } else {
      out += c;
    }
  }
  return false;  // unterminated
}

}  // namespace

ParsedProfile parse_profile_json(const std::string& text) {
  ParsedProfile p;
  size_t pos = find_key(text, 0, text.size(), "network");
  if (pos == std::string::npos || !parse_string(text, pos, p.network)) {
    p.error = "missing \"network\"";
    return p;
  }
  const size_t prof = find_key(text, 0, text.size(), "profile");
  if (prof == std::string::npos) {
    p.error = "missing \"profile\"";
    return p;
  }
  uint64_t u = 0;
  pos = find_key(text, prof, text.size(), "sample_shift");
  if (pos != std::string::npos && parse_u64(text, pos, u)) {
    p.sample_shift = static_cast<uint32_t>(u);
  }
  pos = find_key(text, prof, text.size(), "activations");
  if (pos == std::string::npos || !parse_u64(text, pos, p.total_activations)) {
    p.error = "missing \"activations\"";
    return p;
  }
  pos = find_key(text, prof, text.size(), "time_us");
  if (pos != std::string::npos) parse_double(text, pos, p.total_us);

  size_t arr = find_key(text, prof, text.size(), "productions");
  if (arr == std::string::npos || text[arr] != '[') {
    p.error = "missing \"productions\"";
    return p;
  }
  const size_t arr_end = text.find(']', arr);
  if (arr_end == std::string::npos) {
    p.error = "unterminated \"productions\"";
    return p;
  }
  size_t obj = text.find('{', arr);
  while (obj != std::string::npos && obj < arr_end) {
    const size_t obj_end = text.find('}', obj);
    if (obj_end == std::string::npos || obj_end > arr_end) {
      p.error = "unterminated production row";
      return p;
    }
    ParsedProduction row;
    pos = find_key(text, obj, obj_end, "name");
    if (pos == std::string::npos || !parse_string(text, pos, row.name)) {
      p.error = "production row without \"name\"";
      return p;
    }
    pos = find_key(text, obj, obj_end, "acts");
    if (pos == std::string::npos || !parse_u64(text, pos, row.activations)) {
      p.error = "production row without \"acts\"";
      return p;
    }
    pos = find_key(text, obj, obj_end, "est_us");
    if (pos != std::string::npos) parse_double(text, pos, row.est_us);
    p.productions.push_back(std::move(row));
    obj = text.find('{', obj_end);
  }
  p.ok = true;
  return p;
}

// ---- correlation -----------------------------------------------------------

CorrelationReport correlate(const LintReport& lint, const ParsedProfile& prof,
                            double hot_ratio, double cold_ratio) {
  CorrelationReport rep;
  rep.hot_ratio = hot_ratio;
  rep.cold_ratio = cold_ratio;

  std::unordered_map<std::string, const ParsedProduction*> by_name;
  by_name.reserve(prof.productions.size());
  for (const ParsedProduction& pp : prof.productions) {
    by_name.emplace(pp.name, &pp);  // first wins; names are unique per network
  }

  for (const ProductionCost& pc : lint.productions) {
    CorrelationRow row;
    row.name = pc.name;
    row.static_us = pc.worst_case_cost_us;
    row.chain_depth = pc.chain_depth;
    const auto it = by_name.find(pc.name);
    const ParsedProduction* m = it != by_name.end() ? it->second : nullptr;
    if (m == nullptr || m->activations == 0) {
      row.flags.push_back("unmeasured");
    } else {
      ++rep.correlated;
      row.activations = m->activations;
      row.measured_us = m->est_us;
      row.ratio = row.static_us > 0 ? row.measured_us / row.static_us : 0;
      if (row.measured_us > hot_ratio * row.static_us) {
        row.flags.push_back("hot");
      } else if (row.measured_us < cold_ratio * row.static_us) {
        row.flags.push_back("cold");
      }
      if (!row.flags.empty()) ++rep.flagged;
    }
    rep.rows.push_back(std::move(row));
  }
  return rep;
}

void CorrelationReport::print_table() const {
  std::printf("static-vs-measured: %u correlated, %u flagged\n", correlated,
              flagged);
  TextTable table({"production", "static µs", "depth", "acts", "measured µs",
                   "ratio", "flags"});
  for (const CorrelationRow& r : rows) {
    std::string flags;
    for (const std::string& f : r.flags) {
      if (!flags.empty()) flags += ",";
      flags += f;
    }
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.3e", r.ratio);
    table.add_row({r.name, TextTable::num(r.static_us),
                   std::to_string(r.chain_depth), std::to_string(r.activations),
                   TextTable::num(r.measured_us), ratio,
                   flags.empty() ? "-" : flags});
  }
  table.print();
}

std::string correlation_json(const std::string& name,
                             const CorrelationReport& rep) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"network\": ";
  append_escaped(out, name);
  out += ",\n  \"correlation\": {\n    \"hot_ratio\": ";
  append_ratio(out, rep.hot_ratio);
  out += ",\n    \"cold_ratio\": ";
  append_ratio(out, rep.cold_ratio);
  out += ",\n    \"correlated\": ";
  append_num(out, static_cast<uint64_t>(rep.correlated));
  out += ",\n    \"flagged\": ";
  append_num(out, static_cast<uint64_t>(rep.flagged));
  out += ",\n    \"productions\": [";
  for (size_t i = 0; i < rep.rows.size(); ++i) {
    const CorrelationRow& r = rep.rows[i];
    out += i == 0 ? "\n" : ",\n";
    out += "      {\"name\": ";
    append_escaped(out, r.name);
    out += ", \"static_us\": ";
    append_num(out, r.static_us);
    out += ", \"chain_depth\": ";
    append_num(out, static_cast<uint64_t>(r.chain_depth));
    out += ", \"acts\": ";
    append_num(out, r.activations);
    out += ", \"measured_us\": ";
    append_num(out, r.measured_us);
    out += ", \"ratio\": ";
    append_ratio(out, r.ratio);
    out += ", \"flags\": [";
    for (size_t k = 0; k < r.flags.size(); ++k) {
      if (k != 0) out += ", ";
      append_escaped(out, r.flags[k]);
    }
    out += "]}";
  }
  if (!rep.rows.empty()) out += "\n    ";
  out += "]\n  }\n}\n";
  return out;
}

}  // namespace psme::analysis
