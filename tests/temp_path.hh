/**
 * @file
 * Per-test scratch file paths. Test binaries run concurrently under
 * `ctest -j`, so a fixed file name lets one test read, truncate or
 * delete another's file; these paths carry the process id and the
 * running test's full name instead.
 */

#ifndef GT_TESTS_TEMP_PATH_HH
#define GT_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace gt::test
{

/** A path under gtest's TempDir() unique to this process and the
 * running test, ending in @p suffix. */
inline std::string
uniqueTempPath(const std::string &suffix)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "gt-" +
           std::to_string((long)::getpid()) + "-" +
           info->test_suite_name() + "." + info->name() + suffix;
}

} // namespace gt::test

#endif // GT_TESTS_TEMP_PATH_HH
