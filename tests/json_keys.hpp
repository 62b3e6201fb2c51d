// Top-level keys of an ape.obs.v1 snapshot, in document order — lets the
// export tests pin the exact section set, so a gated section cannot start
// appearing in default exports unnoticed.
#pragma once

#include <string>
#include <vector>

namespace ape::test {

// A scanner for the exporter's own output, not a general JSON parser:
// strings may carry escapes, values nest objects and arrays.
inline std::vector<std::string> top_level_keys(const std::string& json) {
  std::vector<std::string> keys;
  int depth = 0;
  bool expect_key = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      std::size_t end = i + 1;
      while (end < json.size() && json[end] != '"') end += json[end] == '\\' ? 2 : 1;
      if (expect_key) keys.push_back(json.substr(i + 1, end - i - 1));
      expect_key = false;
      i = end;
    } else if (c == '{' || c == '[') {
      ++depth;
      expect_key = c == '{' && depth == 1;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == ',') {
      expect_key = depth == 1;
    }
  }
  return keys;
}

// The sections every default export carries, in order.
inline std::vector<std::string> core_sections() {
  return {"schema", "meta", "counters", "gauges", "histograms"};
}

inline std::vector<std::string> core_sections_plus(const std::string& extra) {
  std::vector<std::string> keys = core_sections();
  keys.push_back(extra);
  return keys;
}

}  // namespace ape::test
