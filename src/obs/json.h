// JSON text helpers for the hand-written reports (the analysis reports and
// the flight recorder): a quoted, escaped string, an integer, and a double
// at two decimals. The formats are fixed, so output is byte-identical across
// compilers and build types.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace psme::obs {

inline void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

inline void append_num(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  out += buf;
}

inline void append_num(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

}  // namespace psme::obs
