// Scratch file paths for tests. ctest runs every test case as its own
// process and runs them in parallel, and two build trees may run their
// suites at once, so a fixed file name under ::testing::TempDir() lets
// one case overwrite another's file mid-test. These paths carry the
// running test's full name and the process id.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace np::test {

namespace detail {
/// Unique names would pile up under TempDir() run after run, so every
/// path handed out is removed (with the ".tmp" sibling an atomic
/// snapshot write leaves behind on failure) when the process exits.
struct TempFiles {
  std::vector<std::string> paths;
  ~TempFiles() {
    for (const std::string& path : paths) {
      std::remove(path.c_str());
      std::remove((path + ".tmp").c_str());
    }
  }
};

inline TempFiles& temp_files() {
  static TempFiles files;
  return files;
}
}  // namespace detail

/// TempDir() + "<Suite>.<Test>.<pid>.<name>"; the '/' in the names of
/// parameterized instances becomes '_'.
inline std::string temp_path(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr
                         ? std::string("no_test")
                         : std::string(info->test_suite_name()) + "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');
  std::string path =
      ::testing::TempDir() + test + "." + std::to_string(::getpid()) + "." + name;
  detail::temp_files().paths.push_back(path);
  return path;
}

}  // namespace np::test
