#ifndef LLB_TESTS_TEST_UTIL_H_
#define LLB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "db/database.h"
#include "sim/oracle.h"

#define ASSERT_OK(expr)                                     \
  do {                                                      \
    ::llb::Status _s = (expr);                              \
    ASSERT_TRUE(_s.ok()) << _s.ToString();                  \
  } while (0)

#define EXPECT_OK(expr)                                     \
  do {                                                      \
    ::llb::Status _s = (expr);                              \
    EXPECT_TRUE(_s.ok()) << _s.ToString();                  \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                     \
  auto LLB_ASSIGN_OR_RETURN_NAME(_r, __LINE__) = (expr);    \
  ASSERT_TRUE(LLB_ASSIGN_OR_RETURN_NAME(_r, __LINE__).ok()) \
      << LLB_ASSIGN_OR_RETURN_NAME(_r, __LINE__).status().ToString(); \
  lhs = std::move(LLB_ASSIGN_OR_RETURN_NAME(_r, __LINE__)).value()

namespace llb {

/// `prefix` followed by the decimal digits of `n`. Built with += because
/// GCC 12 at -O3 reports a -Wrestrict false positive on
/// `"lit" + std::to_string(n)`, whose operator+ inlines an insert at 0.
inline std::string Numbered(const char* prefix, int64_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

}  // namespace llb

// Oracle helpers (BuildOracle / DiffStores) live in sim/oracle.h so the
// benchmarks can use them without a gtest dependency.

#endif  // LLB_TESTS_TEST_UTIL_H_
