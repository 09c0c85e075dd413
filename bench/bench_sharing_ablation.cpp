// Sharing ablation (§5.2 text): gains from two-input node sharing.
//
// Paper: sharing two-input nodes cuts the update-phase node activations by
// ~20% (Eight-puzzle) and ~25% (Strips), and the after-chunking match by
// ~30% (Eight-puzzle) and ~20% (Strips). (Cypress figures were unreliable in
// the paper due to assembler limits on its oversized productions.)
#include "harness.h"

using namespace psme;
using namespace psme::bench;

namespace {

struct Counts {
  uint64_t update_tasks = 0;
  uint64_t after_tasks = 0;
};

Counts run_mode(const Task& task, bool share_beta) {
  EngineOptions opts = recorded();
  opts.builder.share_beta = share_beta;
  const auto during = run_task(task, /*learning=*/true, nullptr, opts);
  Counts c;
  c.update_tasks = total_tasks(during.stats.update_ab) +
                   total_tasks(during.stats.update_c);
  const auto after =
      run_task(task, /*learning=*/false, &during.stats.chunk_texts, opts);
  c.after_tasks = total_tasks(after.stats.traces);
  return c;
}

}  // namespace

int main() {
  print_header("Sharing ablation (§5.2)",
               "Two-input node sharing: update and after-chunking gains");

  struct PaperRow {
    const char* task;
    double update_gain, after_gain;  // percent saved by sharing
  };
  const PaperRow paper[] = {{"eight-puzzle", 20, 30}, {"strips", 25, 20}};

  TextTable table({"task", "update tasks shared", "update tasks unshared",
                   "update gain %", "paper %", "after-match tasks shared",
                   "after-match tasks unshared", "after gain %", "paper %"});
  for (const PaperRow& row : paper) {
    const Task task = make_task(row.task);
    const Counts shared = run_mode(task, true);
    const Counts unshared = run_mode(task, false);
    const double update_gain =
        unshared.update_tasks > 0
            ? 100.0 * (1.0 - static_cast<double>(shared.update_tasks) /
                                 static_cast<double>(unshared.update_tasks))
            : 0;
    const double after_gain =
        unshared.after_tasks > 0
            ? 100.0 * (1.0 - static_cast<double>(shared.after_tasks) /
                                 static_cast<double>(unshared.after_tasks))
            : 0;
    table.add_row({row.task, std::to_string(shared.update_tasks),
                   std::to_string(unshared.update_tasks),
                   TextTable::num(update_gain, 1),
                   TextTable::num(row.update_gain, 0),
                   std::to_string(shared.after_tasks),
                   std::to_string(unshared.after_tasks),
                   TextTable::num(after_gain, 1),
                   TextTable::num(row.after_gain, 0)});
  }
  table.print();
  std::printf("\nExpected shape: sharing saves a substantial fraction of the "
              "update work and of the\nafter-chunking match (gains in the "
              "tens of percent, not single digits).\n");
  return 0;
}
