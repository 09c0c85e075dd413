#include "analysis/report_json.h"

#include "obs/json.h"

namespace psme::analysis {

using obs::append_escaped;
using obs::append_num;

std::string report_json(const std::string& name, const Network& net,
                        const VerifyReport& verify, const LintReport& lint) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"network\": ";
  append_escaped(out, name);
  out += ",\n  \"nodes\": ";
  append_num(out, static_cast<uint64_t>(net.node_count()));
  out += ",\n  \"productions\": ";
  append_num(out, static_cast<uint64_t>(lint.productions.size()));

  out += ",\n  \"verify\": {\n    \"ok\": ";
  out += verify.ok() ? "true" : "false";
  out += ",\n    \"max_depth\": ";
  append_num(out, static_cast<uint64_t>(verify.max_depth));
  out += ",\n    \"max_fan_out\": ";
  append_num(out, static_cast<uint64_t>(verify.max_fan_out));
  // lock_ranks_checked is deliberately NOT serialized: it depends on the
  // build configuration (PSME_LOCKDEP), and the report must stay
  // byte-identical across build types for the golden-file test.
  out += ",\n    \"violations\": [";
  for (size_t i = 0; i < verify.violations.size(); ++i) {
    const Violation& v = verify.violations[i];
    out += i == 0 ? "\n" : ",\n";
    out += "      {\"check\": ";
    append_escaped(out, check_name(v.check));
    out += ", \"node\": ";
    if (v.node == UINT32_MAX) {
      out += "null";
    } else {
      append_num(out, static_cast<uint64_t>(v.node));
    }
    out += ", \"message\": ";
    append_escaped(out, v.message);
    out += "}";
  }
  if (!verify.violations.empty()) out += "\n    ";
  out += "]\n  }";

  out += ",\n  \"lint\": {\n    \"budget\": {\"max_cost_us\": ";
  append_num(out, lint.budget.max_cost_us);
  out += ", \"max_depth\": ";
  append_num(out, static_cast<uint64_t>(lint.budget.max_depth));
  out += ", \"wme_bound\": ";
  append_num(out, static_cast<uint64_t>(lint.budget.wme_bound));
  out += ", \"token_cap\": ";
  append_num(out, lint.budget.token_cap);
  out += "},\n    \"flagged\": ";
  append_num(out, static_cast<uint64_t>(lint.flagged));
  out += ",\n    \"productions\": [";
  for (size_t i = 0; i < lint.productions.size(); ++i) {
    const ProductionCost& pc = lint.productions[i];
    out += i == 0 ? "\n" : ",\n";
    out += "      {\"name\": ";
    append_escaped(out, pc.name);
    out += ", \"nodes\": ";
    append_num(out, static_cast<uint64_t>(pc.nodes));
    out += ", \"two_input\": ";
    append_num(out, static_cast<uint64_t>(pc.two_input_nodes));
    out += ", \"shared\": ";
    append_num(out, static_cast<uint64_t>(pc.shared_nodes));
    out += ", \"chain_depth\": ";
    append_num(out, static_cast<uint64_t>(pc.chain_depth));
    out += ", \"chain_cost_us\": ";
    append_num(out, pc.chain_cost_us);
    out += ", \"worst_case_cost_us\": ";
    append_num(out, pc.worst_case_cost_us);
    out += ", \"flags\": [";
    for (size_t k = 0; k < pc.flags.size(); ++k) {
      if (k != 0) out += ", ";
      append_escaped(out, pc.flags[k]);
    }
    out += "]}";
  }
  if (!lint.productions.empty()) out += "\n    ";
  out += "]\n  }\n}\n";
  return out;
}

}  // namespace psme::analysis
