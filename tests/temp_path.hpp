#pragma once

// Per-test unique temporary file names.
//
// gtest_discover_tests runs every TEST as its own process and `ctest -j`
// runs those processes concurrently, so a fixed file name under TempDir()
// is shared by every test (and every concurrent ctest run) that uses it:
// one test truncates or unlinks the file while another reads it. These
// helpers build the name from the running test's suite and name plus the
// process id, so no two live tests ever share a file.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace rr::testing {

/// A bare file name (no directory) unique to the running test and process,
/// ending in `name`.
inline std::string unique_temp_name(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = info == nullptr ? std::string("no-test")
                                    : std::string(info->test_suite_name()) +
                                          "." + info->name();
  for (char& c : tag) {
    if (c == '/') c = '_';  // parameterized suites and tests contain '/'
  }
  return "rr-" + tag + "-" + std::to_string(::getpid()) + "-" + name;
}

/// unique_temp_name(name) inside gtest's temporary directory.
inline std::string unique_temp_path(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + unique_temp_name(name);
}

}  // namespace rr::testing
