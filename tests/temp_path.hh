/**
 * @file
 * Per-test temporary file paths.
 *
 * ctest runs every test case as its own process, in parallel, and
 * several test binaries or builds may run at once, so a fixed file name
 * collides. testTempPath() places a file under ::testing::TempDir()
 * (honours TEST_TMPDIR) and prefixes it with the running test's full
 * name and the process id, so no two concurrent cases share a file.
 */

#ifndef FLEXSNOOP_TESTS_TEMP_PATH_HH
#define FLEXSNOOP_TESTS_TEMP_PATH_HH

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace flexsnoop
{

/** Temporary path for @p name, unique to the running test and process. */
inline std::string
testTempPath(const std::string &name)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string test = info ? std::string(info->test_suite_name()) + "." +
                                  info->name()
                            : std::string("no_test");
    // Parameterized names carry '/' ("Suite/Test.Case/Param").
    for (char &c : test) {
        if (c == '/')
            c = '_';
    }
    std::string dir = ::testing::TempDir();
    if (!dir.empty() && dir.back() != '/')
        dir += '/';
    return dir + "flexsnoop_" + test + "_" + std::to_string(::getpid()) +
           "_" + name;
}

} // namespace flexsnoop

#endif // FLEXSNOOP_TESTS_TEMP_PATH_HH
