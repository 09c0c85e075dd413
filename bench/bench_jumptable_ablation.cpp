// Jumptable overhead (§5.1): "The overhead of the jumptable during match in
// the three programs has been measured to be about 1-3%, much less than the
// 20-30% loss due to an unshared network."
//
// Our jumptable is one extra indirection per successor dispatch. We count
// the indirections taken during each task's match and convert them to time
// with a per-indirection cost consistent with the cost model's scale, then
// report the overhead as a percentage of total match time.
#include "harness.h"

using namespace psme;
using namespace psme::bench;

int main() {
  print_header("Jumptable ablation (§5.1)",
               "Jumptable overhead during match");

  // Per-indirection cost in virtual µs: an indirect jump plus a table load
  // on the NS32032 (a few instructions at 0.75 MIPS).
  const double indirection_us = 6.0;

  TextTable table({"task", "match tasks", "jumptable indirections",
                   "overhead %", "paper %"});
  CostModel cm;
  for (const auto& name : task_names()) {
    Task task = make_task(name);
    SoarOptions opts;
    opts.learning = false;
    opts.max_decisions = task.max_decisions;
    opts.engine = recorded();
    SoarKernel kernel(opts);
    kernel.load_productions(task.productions);
    task.init(kernel);
    const uint64_t before = kernel.engine().match_counters().indirections;
    const auto stats = kernel.run();
    const uint64_t indirections =
        kernel.engine().match_counters().indirections - before;
    double serial = 0;
    uint64_t tasks = 0;
    for (const auto& t : stats.traces) {
      serial += cm.serial_us(t);
      tasks += t.task_count();
    }
    const double overhead =
        serial > 0 ? 100.0 * indirection_us * static_cast<double>(indirections) /
                         (serial + indirection_us * static_cast<double>(indirections))
                   : 0;
    table.add_row({name, std::to_string(tasks), std::to_string(indirections),
                   TextTable::num(overhead, 2), "1-3"});
  }
  table.print();
  std::printf("\nExpected shape: low single digits — far below the 20-30%% "
              "loss an unshared network costs\n(see bench_sharing_ablation).\n");
  return 0;
}
