// Helpers shared by the golden-reference tests (CkptGolden, RunGolden):
// a stable digest and a reader for the sectioned files in tests/golden/.
//
// A golden file holds `# comment` lines and `[heading]` sections of
// reference lines. A test computes its lines, compares them with one
// section and, on mismatch, prints the computed lines so a justified
// update is a copy-paste (with the reason recorded in CHANGES.md).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace sirius::golden {

inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The non-comment lines under `[heading]` in the golden file.
inline std::vector<std::string> golden_section(const std::string& path,
                                               const std::string& heading) {
  std::ifstream in(path);
  std::vector<std::string> out;
  bool inside = false;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == '[') {
      inside = line == "[" + heading + "]";
      continue;
    }
    if (inside) out.push_back(line);
  }
  return out;
}

// Expects `got` to equal the `[heading]` section of `path`; on mismatch
// the failure message carries every computed line.
inline void expect_section(const std::vector<std::string>& got,
                           const std::string& path, const std::string& heading,
                           const std::string& what) {
  const std::vector<std::string> want = golden_section(path, heading);
  std::string computed;
  for (const std::string& line : got) computed += line + "\n";
  EXPECT_EQ(got, want) << what << " differ from the [" << heading
                       << "] section of " << path << "; computed:\n"
                       << computed;
}

}  // namespace sirius::golden
