#include "obs/profiler.h"

#include <cstdio>
#include <cstdlib>

#include "obs/json.h"

namespace psme::obs {

void MatchProfiler::snapshot_into(ProfileSnapshot& out) const {
  out.sample_shift = shift_;
  out.total_activations = 0;
  out.total_sampled = 0;
  out.total_time_ns = 0;
  out.nodes.assign(node_capacity(), ProfileCell{});
  out.agents.assign(agent_capacity(), ProfileAgentCell{});
  for (const auto& s : shards_) {
    for (size_t i = 0; i < s->nodes.size(); ++i) {
      const ProfileCell& c = s->nodes[i];
      ProfileCell& o = out.nodes[i];
      o.activations += c.activations;
      o.sampled += c.sampled;
      o.time_ns += c.time_ns;
      o.emits += c.emits;
    }
    for (size_t i = 0; i < s->agents.size(); ++i) {
      const ProfileAgentCell& c = s->agents[i];
      ProfileAgentCell& o = out.agents[i];
      o.activations += c.activations;
      o.sampled += c.sampled;
      o.time_ns += c.time_ns;
    }
  }
  for (const ProfileCell& c : out.nodes) {
    out.total_activations += c.activations;
    out.total_sampled += c.sampled;
    out.total_time_ns += c.time_ns;
  }
}

void MatchProfiler::reset() {
  for (auto& s : shards_) {
    for (ProfileCell& c : s->nodes) c = ProfileCell{};
    for (ProfileAgentCell& c : s->agents) c = ProfileAgentCell{};
  }
}

void MatchProfiler::forget_nodes(const std::vector<uint32_t>& ids) {
  for (auto& s : shards_) {
    for (const uint32_t id : ids) {
      if (id < s->nodes.size()) s->nodes[id] = ProfileCell{};
    }
  }
}

void FlightRecorder::snapshot(const MetricsRegistry& m,
                              const MatchProfiler* prof, uint64_t marker) {
  FlightSnapshot& slot = ring_[count_ % ring_.size()];
  slot.seq = count_;
  slot.marker = marker;
  slot.metrics = m;  // vector assign: capacity reused after warm-up
  if (prof != nullptr) {
    prof->snapshot_into(slot.profile);
  } else {
    slot.profile = ProfileSnapshot{};
  }
  ++count_;
}

const FlightSnapshot& FlightRecorder::at(size_t i) const {
  // Chronological: the oldest retained slot is count_ - size(), and slots
  // live at seq % capacity.
  const uint64_t seq = count_ - size() + i;
  return ring_[seq % ring_.size()];
}

std::string FlightRecorder::to_json() const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"flight\": {\"capacity\": ";
  append_num(out, uint64_t{ring_.size()});
  out += ", \"taken\": ";
  append_num(out, count_);
  out += ", \"retained\": ";
  append_num(out, uint64_t{size()});
  out += "},\n  \"snapshots\": [";
  for (size_t i = 0; i < size(); ++i) {
    const FlightSnapshot& s = at(i);
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"seq\": ";
    append_num(out, s.seq);
    out += ", \"marker\": ";
    append_num(out, s.marker);
    out += ",\n     \"metrics\": {";
    bool first = true;
    for (const Metric& m : s.metrics.metrics()) {
      if (!first) out += ", ";
      first = false;
      out += '"';
      out += m.name;  // metric names are identifier-shaped; no escaping
      out += "\": ";
      append_num(out, m.value);
    }
    out += "},\n     \"profile\": {\"sample_shift\": ";
    append_num(out, uint64_t{s.profile.sample_shift});
    out += ", \"activations\": ";
    append_num(out, s.profile.total_activations);
    out += ", \"sampled\": ";
    append_num(out, s.profile.total_sampled);
    out += ", \"time_us\": ";
    append_num(out, static_cast<double>(s.profile.total_time_ns) / 1e3);
    out += ",\n      \"nodes\": [";
    bool fn = true;
    for (size_t n = 0; n < s.profile.nodes.size(); ++n) {
      const ProfileCell& c = s.profile.nodes[n];
      if (c.activations == 0) continue;
      if (!fn) out += ", ";
      fn = false;
      out += "{\"node\": ";
      append_num(out, uint64_t{n});
      out += ", \"acts\": ";
      append_num(out, c.activations);
      out += ", \"est_us\": ";
      append_num(out, ProfileSnapshot::est_ns(c) / 1e3);
      out += "}";
    }
    out += "],\n      \"agents\": [";
    bool fa = true;
    for (size_t a = 0; a < s.profile.agents.size(); ++a) {
      const ProfileAgentCell& c = s.profile.agents[a];
      if (c.activations == 0) continue;
      if (!fa) out += ", ";
      fa = false;
      out += "{\"agent\": ";
      append_num(out, uint64_t{a});
      out += ", \"acts\": ";
      append_num(out, c.activations);
      out += ", \"est_us\": ";
      append_num(out, ProfileSnapshot::est_ns(c) / 1e3);
      out += "}";
    }
    out += "]}}";
  }
  if (size() != 0) out += "\n  ";
  out += "]\n}\n";
  return out;
}

bool FlightRecorder::dump(const char* path) const {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const std::string json = to_json();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

const char* env_flight_path() {
  const char* p = std::getenv("PSME_FLIGHT");
  return p != nullptr && p[0] != '\0' ? p : nullptr;
}

}  // namespace psme::obs
