#include "rete/hash_tables.h"

namespace psme {
namespace {
size_t round_up_pow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

PairedHashTables::PairedHashTables(size_t line_count)
    : lines_(round_up_pow2(line_count == 0 ? 1 : line_count)),
      mask_(lines_.size() - 1) {}

std::vector<PairedHashTables::LineAccess>
PairedHashTables::harvest_cycle_accesses() {
  std::vector<LineAccess> out;
  for (size_t i = 0; i < lines_.size(); ++i) {
    Line& ln = lines_[i];
    if (ln.left_accesses_cycle != 0 || ln.right_accesses_cycle != 0) {
      out.push_back({static_cast<uint32_t>(i), ln.left_accesses_cycle,
                     ln.right_accesses_cycle});
      ln.left_accesses_cycle = 0;
      ln.right_accesses_cycle = 0;
    }
  }
  return out;
}

void PairedHashTables::reset_cycle_accesses() {
  for (Line& ln : lines_) {
    ln.left_accesses_cycle = 0;
    ln.right_accesses_cycle = 0;
  }
}

size_t PairedHashTables::total_left_entries() const {
  size_t n = 0;
  for (const auto& ln : lines_) n += ln.left.size();
  return n;
}

size_t PairedHashTables::total_right_entries() const {
  size_t n = 0;
  for (const auto& ln : lines_) n += ln.right.size();
  return n;
}

PairedHashTables::PurgeCounts PairedHashTables::purge_nodes(
    const std::vector<uint8_t>& dead) {
  const auto is_dead = [&](uint32_t node_id) {
    return node_id < dead.size() && dead[node_id] != 0;
  };
  PurgeCounts counts;
  // Right entries survive via collect-clear-repush rather than in-place
  // erase: ChunkedList::erase can release an emptied tail chunk to the pool,
  // which makes continuing a chunk walk after an erase unsafe. The scratch
  // vector's capacity is reused across lines.
  std::vector<RightEntry> survivors;
  for (Line& ln : lines_) {
    for (size_t i = ln.left.size(); i-- > 0;) {
      if (is_dead(ln.left[i].node_id)) {
        ln.erase_left(ln.left.begin() + static_cast<ptrdiff_t>(i));
        ++counts.left;
      }
    }
    bool any_right_dead = false;
    for (const RightEntry& e : ln.right) {
      if (is_dead(e.node_id)) {
        any_right_dead = true;
        break;
      }
    }
    if (!any_right_dead) continue;
    survivors.clear();
    for (const RightEntry& e : ln.right) {
      if (!is_dead(e.node_id)) survivors.push_back(e);
    }
    counts.right += ln.right.size() - survivors.size();
    ln.right.clear(right_pool_);
    for (const RightEntry& e : survivors) ln.right.push_back(e, right_pool_);
  }
  return counts;
}

}  // namespace psme
