#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/coding.h"
#include "io/faulty_env.h"
#include "io/latency_env.h"
#include "io/mem_env.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"
#include "wal/log_writer.h"

namespace llb {
namespace {

LogRecord SampleRecord(Lsn lsn) {
  LogRecord rec;
  rec.lsn = lsn;
  rec.op_code = kOpBtreeInsert;
  rec.readset = {PageId{0, 1}, PageId{0, 2}};
  rec.writeset = {PageId{0, 2}};
  rec.payload = "payload-bytes";
  return rec;
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord rec = SampleRecord(42);
  std::string buf;
  rec.EncodeTo(&buf);

  LogFrame frame;
  ASSERT_OK(LogFrame::Parse(Slice(buf), &frame));
  EXPECT_EQ(frame.lsn, 42u);
  EXPECT_EQ(frame.op_code, kOpBtreeInsert);
  EXPECT_EQ(frame.bytes.size(), buf.size());
  LogRecord out;
  ASSERT_OK(frame.Decode(&out));
  EXPECT_EQ(out.lsn, 42u);
  EXPECT_EQ(out.op_code, kOpBtreeInsert);
  EXPECT_EQ(out.readset, rec.readset);
  EXPECT_EQ(out.writeset, rec.writeset);
  EXPECT_EQ(out.payload, "payload-bytes");
}

TEST(LogRecordTest, EmptySetsAndPayload) {
  LogRecord rec;
  rec.lsn = 1;
  rec.op_code = kOpCheckpoint;
  std::string buf;
  rec.EncodeTo(&buf);
  LogFrame frame;
  ASSERT_OK(LogFrame::Parse(Slice(buf), &frame));
  LogRecord out;
  ASSERT_OK(frame.Decode(&out));
  EXPECT_TRUE(out.readset.empty());
  EXPECT_TRUE(out.writeset.empty());
  EXPECT_TRUE(out.payload.empty());
}

TEST(LogRecordTest, TruncatedTailReportsEndOfLog) {
  LogRecord rec = SampleRecord(1);
  std::string buf;
  rec.EncodeTo(&buf);
  buf.resize(buf.size() - 3);
  LogFrame frame;
  EXPECT_TRUE(LogFrame::Parse(Slice(buf), &frame).IsNotFound());
}

TEST(LogRecordTest, CorruptBodyReportsCorruption) {
  LogRecord rec = SampleRecord(1);
  std::string buf;
  rec.EncodeTo(&buf);
  buf[10] ^= 0x7F;
  LogFrame frame;
  EXPECT_TRUE(LogFrame::Parse(Slice(buf), &frame).IsCorruption());
}

TEST(LogRecordTest, ClassificationHelpers) {
  LogRecord rec;
  rec.op_code = kOpIdentityWrite;
  EXPECT_TRUE(rec.IsIdentityWrite());
  EXPECT_TRUE(rec.IsBlindWrite());
  rec.op_code = kOpPhysicalWrite;
  EXPECT_FALSE(rec.IsIdentityWrite());
  EXPECT_TRUE(rec.IsBlindWrite());
  rec.op_code = kOpCheckpoint;
  EXPECT_TRUE(rec.IsCheckpoint());
}

TEST(LogWriterReaderTest, WriteForceRead) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("log", true));
  LogWriter writer(file);
  for (Lsn i = 1; i <= 5; ++i) ASSERT_OK(writer.Add(SampleRecord(i)));
  ASSERT_OK(writer.Force());

  Lsn expected = 1;
  for (const LogRecord& rec : ReadLogFile(file)) {
    EXPECT_EQ(rec.lsn, expected++);
  }
  EXPECT_EQ(expected, 6u);
}

TEST(LogWriterReaderTest, UnforcedRecordsInvisibleAfterCrash) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("log", true));
  LogWriter writer(file);
  ASSERT_OK(writer.Add(SampleRecord(1)));
  ASSERT_OK(writer.Force());
  ASSERT_OK(writer.Add(SampleRecord(2)));
  // no Force for record 2
  env.CrashAndRestart();

  EXPECT_EQ(ReadLogFile(file).size(), 1u);
}

TEST(LogWriterReaderTest, ReaderStopsCleanlyAtTornTail) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("log", true));
  LogWriter writer(file);
  ASSERT_OK(writer.Add(SampleRecord(1)));
  ASSERT_OK(writer.Force());
  ASSERT_OK_AND_ASSIGN(uint64_t valid, file->Size());
  // Simulate a torn append: raw garbage after the valid record.
  ASSERT_OK(file->Append(Slice("\x40\x00\x00\x00garbage")));
  EXPECT_EQ(ReadLogFile(file).size(), 1u);

  // The walker reports where and why it stopped.
  std::string contents;
  ASSERT_OK_AND_ASSIGN(uint64_t size, file->Size());
  ASSERT_OK(file->ReadAt(0, size, &contents));
  LogFrameReader frames{Slice(contents)};
  LogFrame frame;
  int count = 0;
  while (frames.Next(&frame)) ++count;
  EXPECT_EQ(count, 1);
  EXPECT_EQ(frames.offset(), valid);
  EXPECT_TRUE(frames.status().IsNotFound());
}

TEST(LogManagerTest, AssignsDenseLsns) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  LogRecord a = SampleRecord(0), b = SampleRecord(0);
  EXPECT_EQ(log->Append(&a), 1u);
  EXPECT_EQ(log->Append(&b), 2u);
  EXPECT_EQ(log->next_lsn(), 3u);
}

TEST(LogManagerTest, ReopenContinuesLsnSequence) {
  MemEnv env;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                         LogManager::Open(&env, "log"));
    LogRecord a = SampleRecord(0);
    log->Append(&a);
    ASSERT_OK(log->Force());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  EXPECT_EQ(log->next_lsn(), 2u);
}

TEST(LogManagerTest, ScanFiltersByStartLsn) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  for (int i = 0; i < 5; ++i) {
    LogRecord rec = SampleRecord(0);
    log->Append(&rec);
  }
  ASSERT_OK(log->Force());
  std::vector<Lsn> seen;
  ASSERT_OK(log->Scan(3, [&](const LogRecord& rec) {
    seen.push_back(rec.lsn);
    return Status::OK();
  }));
  EXPECT_EQ(seen, (std::vector<Lsn>{3, 4, 5}));
}

TEST(LogManagerTest, DurableLsnAdvancesOnForce) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  LogRecord rec = SampleRecord(0);
  log->Append(&rec);
  EXPECT_LT(log->durable_lsn(), 1u);
  ASSERT_OK(log->Force());
  EXPECT_EQ(log->durable_lsn(), 1u);
}

TEST(LogManagerTest, StatsTrackIdentityRecords) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  LogRecord normal = SampleRecord(0);
  log->Append(&normal);
  LogRecord identity;
  identity.op_code = kOpIdentityWrite;
  identity.writeset = {PageId{0, 1}};
  identity.payload = std::string(kPageSize, 'x');
  log->Append(&identity);
  LogStats stats = log->stats();
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.identity_records, 1u);
  EXPECT_GT(stats.identity_bytes, kPageSize);
  EXPECT_GT(stats.bytes, stats.identity_bytes);
  // The byte counts are the framed bytes the force writes.
  ASSERT_OK(log->Force());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("log", false));
  ASSERT_OK_AND_ASSIGN(uint64_t size, file->Size());
  EXPECT_EQ(stats.bytes, size);
}

// Records forced after reopening a log with a torn tail land right after
// the last valid frame, so the next open still sees them all.
TEST(LogManagerTest, OpenCutsATornTailSoLaterForcesStayVisible) {
  MemEnv env;
  auto force = [](LogManager* log, int records) {
    for (int i = 0; i < records; ++i) {
      LogRecord rec = SampleRecord(0);
      log->Append(&rec);
    }
    return log->Force();
  };
  auto scan = [](const LogManager& log) {
    std::vector<Lsn> seen;
    EXPECT_OK(log.Scan(1, [&](const LogRecord& rec) {
      seen.push_back(rec.lsn);
      return Status::OK();
    }));
    return seen;
  };
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                         LogManager::Open(&env, "log"));
    ASSERT_OK(force(log.get(), 3));
  }
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file,
                         env.OpenFile("log", false));
    ASSERT_OK(file->Append(Slice(std::string(12, '\xAB'))));
  }
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                         LogManager::Open(&env, "log"));
    EXPECT_EQ(log->next_lsn(), 4u);
    ASSERT_OK(force(log.get(), 2));
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  EXPECT_EQ(scan(*log), (std::vector<Lsn>{1, 2, 3, 4, 5}));
  EXPECT_EQ(log->next_lsn(), 6u);
}

// A force whose append lands but whose sync fails hands its bytes to the
// next successful seal: the observer sees dense segments whose first_lsn
// names their first frame, and a standby ingests every one of them.
TEST(LogManagerTest, FailedSyncBytesReachTheNextSeal) {
  for (uint32_t channels : {1u, 2u}) {
    SCOPED_TRACE("channels " + std::to_string(channels));
    MemEnv base;
    FaultyEnv env(&base);
    LogManagerOptions options;
    options.channels = channels;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                         LogManager::Open(&env, "log", options));
    std::vector<SealedSegment> segments;
    log->SetSealObserver(
        [&](const SealedSegment& seg) { segments.push_back(seg); });
    auto append = [&](int records) {
      for (int i = 0; i < records; ++i) {
        LogRecord rec = SampleRecord(0);
        log->Append(&rec);
      }
    };
    append(2);
    ASSERT_OK(log->Force());
    ScriptedFaultPolicy policy(
        {{FaultOp::kSync, "log", 1, FaultAction::kFail}});
    env.SetPolicy(&policy);
    append(2);
    EXPECT_FALSE(log->Force().ok());
    env.SetPolicy(nullptr);
    EXPECT_EQ(policy.fired(), 1u);
    EXPECT_EQ(log->durable_lsn(), 2u);
    append(1);
    ASSERT_OK(log->Force());
    EXPECT_EQ(log->durable_lsn(), 5u);

    ASSERT_EQ(segments.size(), 2u);
    Lsn expect = 1;
    for (const SealedSegment& seg : segments) {
      EXPECT_EQ(seg.first_lsn, expect);
      LogFrameReader frames{Slice(seg.bytes)};
      LogFrame frame;
      while (frames.Next(&frame)) EXPECT_EQ(frame.lsn, expect++);
      EXPECT_EQ(seg.last_lsn, expect - 1);
    }
    EXPECT_EQ(expect, 6u);

    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> standby,
                         LogManager::Open(&base, "standby"));
    for (const SealedSegment& seg : segments) {
      ASSERT_OK(standby->AppendSealed(seg, nullptr));
    }
    ASSERT_OK(standby->Force());
    EXPECT_EQ(standby->durable_lsn(), 5u);
  }
}

TEST(LogManagerTest, ScanAbortsOnCallbackError) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  for (int i = 0; i < 3; ++i) {
    LogRecord rec = SampleRecord(0);
    log->Append(&rec);
  }
  ASSERT_OK(log->Force());
  int calls = 0;
  Status s = log->Scan(1, [&](const LogRecord&) {
    ++calls;
    return Status::Internal("stop");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 1);
}

// --- Scan through the log index -------------------------------------------

/// A record whose payload names its LSN, so a scan's output can be checked
/// record by record. ~1.5 KB, so a few dozen seals span several strides.
LogRecord Numbered1k(Lsn lsn) {
  LogRecord rec;
  rec.op_code = kOpBtreeInsert;
  rec.writeset = {PageId{0, static_cast<uint32_t>(lsn % 64)}};
  rec.payload = Numbered("record-", static_cast<int64_t>(lsn));
  rec.payload.resize(1500, '.');
  return rec;
}

/// Appends `seals` forces of 1 + i % 7 records each; returns the first LSN
/// of every seal.
std::vector<Lsn> AppendSeals(LogManager* log, int seals) {
  std::vector<Lsn> firsts;
  for (int i = 0; i < seals; ++i) {
    for (int r = 0; r < 1 + i % 7; ++r) {
      LogRecord rec = Numbered1k(log->next_lsn());
      Lsn lsn = log->Append(&rec);
      if (r == 0) firsts.push_back(lsn);
    }
    EXPECT_OK(log->Force());
  }
  return firsts;
}

std::vector<Lsn> ScanLsns(const LogManager& log, Lsn start) {
  std::vector<Lsn> seen;
  EXPECT_OK(log.Scan(start, [&](const LogRecord& rec) {
    EXPECT_EQ(rec.payload, Numbered1k(rec.lsn).payload) << "lsn " << rec.lsn;
    seen.push_back(rec.lsn);
    return Status::OK();
  }));
  return seen;
}

std::vector<Lsn> Range(Lsn first, Lsn last) {
  std::vector<Lsn> out;
  for (Lsn lsn = first; lsn <= last; ++lsn) out.push_back(lsn);
  return out;
}

enum class LogShape { kLive, kReopen, kTruncatePrefix, kStandby, kTornTail };

constexpr LogShape kLogShapes[] = {LogShape::kLive, LogShape::kReopen,
                                   LogShape::kTruncatePrefix,
                                   LogShape::kStandby, LogShape::kTornTail};

std::string ShapeName(LogShape shape) {
  const char* const names[] = {"Live", "Reopen", "TruncatePrefix", "Standby",
                               "TornTail"};
  return names[static_cast<int>(shape)];
}

class LogScanTest
    : public ::testing::TestWithParam<std::tuple<LogShape, uint32_t>> {};

// Scan(start) returns exactly the records with lsn >= start, in order,
// whichever way the index was built, for every kind of start position.
TEST_P(LogScanTest, ReturnsExactlyTheRecordsFromStart) {
  const auto [shape, channels] = GetParam();
  MemEnv env;
  LogManagerOptions options;
  options.channels = channels;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log", options));
  std::vector<SealedSegment> segments;
  if (shape == LogShape::kStandby) {
    log->SetSealObserver(
        [&](const SealedSegment& seg) { segments.push_back(seg); });
  }
  std::vector<Lsn> seals = AppendSeals(log.get(), 40);
  ASSERT_GE(seals.size(), 20u);
  Lsn first = 1;
  Lsn last = log->durable_lsn();
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("log", false));
  ASSERT_OK_AND_ASSIGN(uint64_t size, file->Size());
  ASSERT_GT(size, 4 * LogIndex::kStride);

  switch (shape) {
    case LogShape::kLive:
      break;
    case LogShape::kReopen: {
      log.reset();
      ASSERT_OK_AND_ASSIGN(log, LogManager::Open(&env, "log", options));
      break;
    }
    case LogShape::kTruncatePrefix:
      // Cut inside a seal, a few strides into the log.
      first = seals[seals.size() / 2] + 1;
      ASSERT_OK(log->TruncatePrefix(first));
      break;
    case LogShape::kStandby: {
      ASSERT_OK_AND_ASSIGN(log, LogManager::Open(&env, "standby", options));
      for (const SealedSegment& seg : segments) {
        ASSERT_OK(log->AppendSealed(seg, nullptr));
        ASSERT_OK(log->Force());
      }
      ASSERT_EQ(log->durable_lsn(), last);
      break;
    }
    case LogShape::kTornTail: {
      // Garbage past the last index entry: a CRC-broken whole frame, then
      // a frame header promising more bytes than follow.
      log.reset();
      {
        std::string torn;
        Numbered1k(last + 1).EncodeTo(&torn);
        torn[12] ^= 0x5A;
        ASSERT_OK(file->Append(Slice(torn)));
        std::string header;
        PutFixed32(&header, 4000);
        PutFixed32(&header, 0);
        ASSERT_OK(file->Append(Slice(header)));
      }
      ASSERT_OK_AND_ASSIGN(log, LogManager::Open(&env, "log", options));
      EXPECT_EQ(log->next_lsn(), last + 1);
      break;
    }
  }

  EXPECT_EQ(log->first_lsn(), first);
  const Lsn mid = seals[seals.size() * 3 / 4];  // a seal boundary
  ASSERT_GT(mid, first + 1);
  for (Lsn start : {Lsn{0}, first - 1, first, mid, mid + 2, last - 1, last}) {
    EXPECT_EQ(ScanLsns(*log, start), Range(std::max(start, first), last))
        << ShapeName(shape) << " start " << start;
  }
  for (Lsn start : {last + 1, last + 1000}) {
    EXPECT_TRUE(ScanLsns(*log, start).empty()) << "start " << start;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LogScanTest,
    ::testing::Combine(::testing::ValuesIn(kLogShapes),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<LogScanTest::ParamType>& info) {
      return ShapeName(std::get<0>(info.param)) + "_" +
             Numbered("Channels", std::get<1>(info.param));
    });

// The gain itself: a scan near the tail reads the tail, not the file.
TEST(LogScanBytesTest, ScanNearTailReadsUnderATenthOfTheLog) {
  MemEnv base;
  LatencyEnv env(&base, LatencyProfile{});
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                         LogManager::Open(&env, "log"));
    AppendSeals(log.get(), 200);
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, base.OpenFile("log", false));
  ASSERT_OK_AND_ASSIGN(uint64_t size, file->Size());
  // Indexed by Open's walk, then by seals of new records.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  for (int round = 0; round < 2; ++round) {
    const Lsn last = log->durable_lsn();
    const uint64_t before = env.stats().bytes;
    EXPECT_EQ(ScanLsns(*log, last - 3), Range(last - 3, last));
    const uint64_t read = env.stats().bytes - before;
    EXPECT_LT(read, size / 10) << "round " << round << ": read " << read
                               << " of " << size << " bytes";
    AppendSeals(log.get(), 20);
  }
}

// A truncation of the tail leaves an index and checkpoint start that
// match a fresh open of what remains.
TEST(LogManagerTest, TruncateAfterCutsTheTailAndRebuildsTheIndex) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  AppendSeals(log.get(), 30);
  LogRecord ckpt1;
  ckpt1.op_code = kOpCheckpoint;
  PutFixed64(&ckpt1.payload, 5);
  const Lsn cut = log->Append(&ckpt1);
  AppendSeals(log.get(), 30);
  LogRecord ckpt2;
  ckpt2.op_code = kOpCheckpoint;
  PutFixed64(&ckpt2.payload, cut + 3);
  log->Append(&ckpt2);
  ASSERT_OK(log->Force());
  EXPECT_EQ(log->checkpoint_redo_start(), cut + 3);

  ASSERT_OK(log->TruncateAfter(cut));
  EXPECT_EQ(log->checkpoint_redo_start(), 5u);
  EXPECT_EQ(log->durable_lsn(), cut);
  EXPECT_EQ(log->next_lsn(), cut + 1);
  std::vector<Lsn> seen;
  ASSERT_OK(log->Scan(cut - 2, [&](const LogRecord& rec) {
    seen.push_back(rec.lsn);
    return Status::OK();
  }));
  EXPECT_EQ(seen, Range(cut - 2, cut));

  log.reset();
  ASSERT_OK_AND_ASSIGN(log, LogManager::Open(&env, "log"));
  EXPECT_EQ(log->checkpoint_redo_start(), 5u);
  EXPECT_EQ(log->next_lsn(), cut + 1);
}

}  // namespace
}  // namespace llb
