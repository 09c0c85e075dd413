// network_lint: static Rete-network verifier + production cost linter CLI.
//
//   network_lint                          # all registry tasks
//   network_lint eight-puzzle strips      # specific tasks
//   network_lint --file my_rules.soar     # any production source file
//   network_lint --json reports/          # also write <dir>/LINT_<name>.json
//   network_lint --budget-us 5e5 --budget-depth 12 --strict-budget
//   network_lint --cue "(block ^name <b>) (block ^on <b>)" eight-puzzle
//   network_lint --profile PROF_eight-puzzle.json eight-puzzle
//
// For every network: loads the productions into a fresh engine, runs the
// structural verifier (src/analysis/verify.h), runs the cost linter
// (src/analysis/cost_lint.h), prints the human table, and optionally writes
// the machine-readable JSON report (src/analysis/report_json.h — the format
// CI archives and tests golden-file).
//
// --cue installs the given positive CEs as a TRANSIENT query production
// (src/query) before linting, so its row in the cost table prices what one
// query against that network costs per wme change — then removes it and
// re-verifies, proving the add/remove cycle leaves the network clean.
//
// --profile joins a measured profile (the "profile" JSON object the runtime
// match profiler emits — eight_puzzle_demo --profile-json, bench harness
// runs) against the static cost table: for every production the linter
// priced, the correlation table shows measured activations and microseconds
// next to the static worst-case bound, flags HOT rows (measured exceeds the
// static bound — the linter under-modeled this production) and COLD rows
// (measured under 1e-4 of the bound while matched — the bound is too loose
// to rank by). With --json, also writes <dir>/CORR_<name>.json. The profile
// must come from the SAME production set; rows are joined by name.
//
// Exit codes: 0 all clean; 1 verifier violations (or, with --strict-budget,
// productions over budget; or, with --strict-profile, hot/cold correlation
// flags); 2 usage/IO error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cost_lint.h"
#include "analysis/profile_report.h"
#include "analysis/report_json.h"
#include "analysis/verify.h"
#include "engine/engine.h"
#include "query/query.h"
#include "tasks/registry.h"

namespace {

struct Options {
  std::vector<std::string> tasks;       // registry names
  std::vector<std::string> files;       // production source files
  std::string json_dir;                 // empty: no JSON output
  std::string cue;                      // empty: no transient query priced
  std::string profile_path;             // empty: no measured correlation
  psme::analysis::CostBudget budget;
  double hot_ratio = 1.0;    // measured/static above this → HOT
  double cold_ratio = 1e-4;  // measured/static below this (matched) → COLD
  bool strict_budget = false;
  bool strict_profile = false;
  bool quiet = false;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [tasks...] [--file <src>] [--json <dir>] [--budget-us N]\n"
      "       [--budget-depth N] [--wme-bound N] [--strict-budget] [--quiet]\n"
      "       [--cue \"<positive CEs>\"] [--profile <prof.json>]\n"
      "       [--hot-ratio R] [--cold-ratio R] [--strict-profile]\n"
      "tasks: ",
      argv0);
  for (const auto& name : psme::task_names()) {
    std::fprintf(stderr, "%s ", name.c_str());
  }
  std::fprintf(stderr, "(default: all)\n");
  return 2;
}

/// Lints one named production set. Returns 0 clean / 1 dirty / 2 error.
/// `prof` is the parsed --profile file, or nullptr when not given.
int lint_one(const std::string& name, const std::string& src,
             const Options& opt, const psme::analysis::ParsedProfile* prof) {
  psme::Engine engine;
  try {
    engine.load(src);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "network_lint: %s: load failed: %s\n", name.c_str(),
                 e.what());
    return 2;
  }

  // A --cue becomes a transient query production: present in the records
  // while we verify and lint (so the table prices it), removed afterwards.
  psme::QuerySession query(engine);
  if (!opt.cue.empty()) {
    try {
      query.begin(opt.cue);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "network_lint: %s: bad --cue: %s\n", name.c_str(),
                   e.what());
      return 2;
    }
  }

  const psme::analysis::VerifyReport verify = engine.verify_network();
  const psme::analysis::LintReport lint = psme::analysis::lint_costs(
      engine.net(), engine.all_records(), {}, opt.budget);

  if (!opt.quiet) {
    const auto census = engine.net().census();
    std::printf("==== %s: %zu productions, %u nodes, max depth %u, "
                "max fan-out %u ====\n",
                name.c_str(), engine.productions().size(), census.total(),
                verify.max_depth, verify.max_fan_out);
    lint.print_table();
  }
  if (!verify.ok()) {
    std::fprintf(stderr, "network_lint: %s: %s", name.c_str(),
                 verify.to_string().c_str());
  }
  if (lint.flagged != 0) {
    std::fprintf(stderr, "network_lint: %s: %u production(s) over budget\n",
                 name.c_str(), lint.flagged);
  }

  if (!opt.json_dir.empty()) {
    const std::string json =
        psme::analysis::report_json(name, engine.net(), verify, lint);
    const std::string path = opt.json_dir + "/LINT_" + name + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "network_lint: cannot write %s\n", path.c_str());
      return 2;
    }
    out << json;
    if (!opt.quiet) std::printf("wrote %s\n", path.c_str());
  }

  // Static-vs-measured correlation: join the profile's per-production
  // measured cost against the cost table just computed. Rows join by
  // production name, so a profile taken on a different production set
  // simply correlates zero rows (reported, and an error under
  // --strict-profile — an empty join means the profile is stale).
  uint32_t corr_flagged = 0;
  if (prof != nullptr) {
    const psme::analysis::CorrelationReport corr = psme::analysis::correlate(
        lint, *prof, opt.hot_ratio, opt.cold_ratio);
    corr_flagged = corr.flagged;
    if (!opt.quiet) {
      std::printf("---- measured profile: %s (network \"%s\", "
                  "%llu activations) ----\n",
                  opt.profile_path.c_str(), prof->network.c_str(),
                  static_cast<unsigned long long>(prof->total_activations));
      corr.print_table();
    }
    if (corr.correlated == 0) {
      std::fprintf(stderr,
                   "network_lint: %s: profile correlated ZERO productions "
                   "(profile network \"%s\" — wrong production set?)\n",
                   name.c_str(), prof->network.c_str());
    }
    if (corr.flagged != 0) {
      std::fprintf(stderr,
                   "network_lint: %s: %u production(s) with anomalous "
                   "measured/static cost ratio\n",
                   name.c_str(), corr.flagged);
    }
    if (!opt.json_dir.empty()) {
      const std::string json =
          psme::analysis::correlation_json(name, corr);
      const std::string path = opt.json_dir + "/CORR_" + name + ".json";
      std::ofstream out(path, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "network_lint: cannot write %s\n", path.c_str());
        return 2;
      }
      out << json;
      if (!opt.quiet) std::printf("wrote %s\n", path.c_str());
    }
    if (opt.strict_profile && corr.correlated == 0) return 1;
  }

  // Tear the transient query back out and prove the removal left no
  // residue — the CLI face of the removal oracle.
  if (query.active()) {
    const auto rm = query.end();
    const psme::analysis::VerifyReport after = engine.verify_network();
    if (!opt.quiet) {
      std::printf(
          "cue removed: %zu node(s), %zu jumptable ref(s) unspliced; "
          "network %s\n",
          rm.nodes_removed, rm.refs_unspliced,
          after.ok() ? "clean" : "DIRTY");
    }
    if (!after.ok()) {
      std::fprintf(stderr, "network_lint: %s: residue after cue removal: %s",
                   name.c_str(), after.to_string().c_str());
      return 1;
    }
  }

  if (!verify.ok()) return 1;
  if (opt.strict_budget && lint.flagged != 0) return 1;
  if (opt.strict_profile && corr_flagged != 0) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "network_lint: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--file") {
      opt.files.emplace_back(value());
    } else if (arg == "--json") {
      opt.json_dir = value();
    } else if (arg == "--budget-us") {
      opt.budget.max_cost_us = std::strtod(value(), nullptr);
    } else if (arg == "--budget-depth") {
      opt.budget.max_depth =
          static_cast<uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--wme-bound") {
      opt.budget.wme_bound =
          static_cast<uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--cue") {
      opt.cue = value();
    } else if (arg == "--profile") {
      opt.profile_path = value();
    } else if (arg == "--hot-ratio") {
      opt.hot_ratio = std::strtod(value(), nullptr);
    } else if (arg == "--cold-ratio") {
      opt.cold_ratio = std::strtod(value(), nullptr);
    } else if (arg == "--strict-budget") {
      opt.strict_budget = true;
    } else if (arg == "--strict-profile") {
      opt.strict_profile = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "network_lint: unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      opt.tasks.push_back(arg);
    }
  }
  if (opt.tasks.empty() && opt.files.empty()) opt.tasks = psme::task_names();

  // Parse the measured profile once; every linted network correlates
  // against it (name-joined, so only the matching set gets non-empty rows).
  psme::analysis::ParsedProfile prof;
  if (!opt.profile_path.empty()) {
    std::ifstream in(opt.profile_path);
    if (!in) {
      std::fprintf(stderr, "network_lint: cannot read %s\n",
                   opt.profile_path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    prof = psme::analysis::parse_profile_json(ss.str());
    if (!prof.ok) {
      std::fprintf(stderr, "network_lint: %s: %s\n", opt.profile_path.c_str(),
                   prof.error.c_str());
      return 2;
    }
  }
  const psme::analysis::ParsedProfile* profp =
      opt.profile_path.empty() ? nullptr : &prof;

  int worst = 0;
  for (const std::string& name : opt.tasks) {
    std::string src;
    try {
      src = psme::make_task(name).productions;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "network_lint: %s\n", e.what());
      return 2;
    }
    worst = std::max(worst, lint_one(name, src, opt, profp));
  }
  for (const std::string& path : opt.files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "network_lint: cannot read %s\n", path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    // Label from the basename, extension stripped.
    std::string label = path.substr(path.find_last_of('/') + 1);
    const size_t dot = label.find_last_of('.');
    if (dot != std::string::npos) label.resize(dot);
    worst = std::max(worst, lint_one(label, ss.str(), opt, profp));
  }
  return worst;
}
