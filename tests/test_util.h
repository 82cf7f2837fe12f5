#ifndef LLB_TESTS_TEST_UTIL_H_
#define LLB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/database.h"
#include "sim/oracle.h"
#include "wal/log_record.h"

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

/// Decodes a log file front to back with the log's frame walker: the
/// records of the valid frames, up to the first torn or corrupt one.
inline std::vector<LogRecord> ReadLogFile(const std::shared_ptr<File>& file) {
  std::vector<LogRecord> records;
  Result<uint64_t> size = file->Size();
  EXPECT_TRUE(size.ok()) << size.status().ToString();
  if (!size.ok()) return records;
  std::string contents;
  EXPECT_OK(file->ReadAt(0, *size, &contents));
  LogFrameReader frames{Slice(contents)};
  LogFrame frame;
  while (frames.Next(&frame)) {
    LogRecord rec;
    EXPECT_OK(frame.Decode(&rec));
    EXPECT_EQ(rec.lsn, frame.lsn);
    EXPECT_EQ(rec.op_code, frame.op_code);
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace llb

// Oracle helpers (BuildOracle / DiffStores) live in sim/oracle.h so the
// benchmarks can use them without a gtest dependency.

#endif  // LLB_TESTS_TEST_UTIL_H_
