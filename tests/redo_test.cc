#include <gtest/gtest.h>

#include <memory>

#include "common/coding.h"
#include "filestore/file_ops.h"
#include "io/mem_env.h"
#include "ops/op_registry.h"
#include "ops/operation.h"
#include "recovery/checkpoint.h"
#include "recovery/redo.h"
#include "tests/test_util.h"

namespace llb {
namespace {

PageId P(uint32_t page) { return PageId{0, page}; }

PageImage ValuePage(const std::string& content) {
  PageImage page;
  page.SetPayload(Slice(content));
  page.set_type(PageType::kRaw);
  return page;
}

class RedoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterFileOps(&registry_);
    auto log = LogManager::Open(&env_, "log");
    ASSERT_TRUE(log.ok());
    log_ = std::move(log).value();
    auto store = PageStore::Open(&env_, "stable", 1);
    ASSERT_TRUE(store.ok());
    stable_ = std::move(store).value();
  }

  Lsn Append(LogRecord rec) {
    Lsn lsn = log_->Append(&rec);
    EXPECT_TRUE(log_->Force().ok());
    return lsn;
  }

  std::string PagePrefix(const PageId& id, size_t n) {
    PageImage page;
    EXPECT_TRUE(stable_->ReadPage(id, &page).ok());
    return page.payload().ToString().substr(0, n);
  }

  MemEnv env_;
  OpRegistry registry_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<PageStore> stable_;
};

TEST_F(RedoTest, ReplaysPhysicalWrite) {
  Append(MakePhysicalWrite(P(1), ValuePage("hello")));
  ASSERT_OK_AND_ASSIGN(RedoReport report,
                       RunRedo(*log_, registry_, stable_.get(), 1));
  EXPECT_EQ(report.ops_replayed, 1u);
  EXPECT_EQ(PagePrefix(P(1), 5), "hello");
}

TEST_F(RedoTest, SkipsAlreadyInstalledOps) {
  PageImage v = ValuePage("hello");
  Lsn lsn = Append(MakePhysicalWrite(P(1), v));
  v.set_lsn(lsn);
  ASSERT_OK(stable_->WritePage(P(1), v));  // already flushed
  ASSERT_OK_AND_ASSIGN(RedoReport report,
                       RunRedo(*log_, registry_, stable_.get(), 1));
  EXPECT_EQ(report.ops_replayed, 0u);
}

TEST_F(RedoTest, IsIdempotent) {
  Append(MakePhysicalWrite(P(1), ValuePage("once")));
  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), 1).status());
  ASSERT_OK_AND_ASSIGN(RedoReport second,
                       RunRedo(*log_, registry_, stable_.get(), 1));
  EXPECT_EQ(second.ops_replayed, 0u);
  EXPECT_EQ(second.pages_written, 0u);
}

TEST_F(RedoTest, ReplaysLogicalOpFromReadSet) {
  Append(MakePhysicalWrite(P(1), ValuePage("source")));
  Append(MakeFileCopy({P(1)}, {P(2)}));
  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), 1).status());
  EXPECT_EQ(PagePrefix(P(2), 6), "source");
}

TEST_F(RedoTest, LogicalOpChainReplaysInOrder) {
  Append(MakePhysicalWrite(P(1), ValuePage("abc")));
  Append(MakeFileCopy({P(1)}, {P(2)}));
  Append(MakeFileCopy({P(2)}, {P(3)}));
  Append(MakePhysicalWrite(P(1), ValuePage("xyz")));  // overwrite source
  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), 1).status());
  // The copies must have seen the OLD value of page 1.
  EXPECT_EQ(PagePrefix(P(2), 3), "abc");
  EXPECT_EQ(PagePrefix(P(3), 3), "abc");
  EXPECT_EQ(PagePrefix(P(1), 3), "xyz");
}

TEST_F(RedoTest, PerTargetTestSkipsNewerPages) {
  // Copy writes pages 2 and 3; page 3 was already flushed with the op's
  // LSN, page 2 was not: only page 2 is (re)written.
  Append(MakePhysicalWrite(P(1), ValuePage("v")));
  LogRecord copy = MakeFileCopy({P(1), P(1)}, {P(2), P(3)});
  Lsn lsn = log_->Append(&copy);
  ASSERT_OK(log_->Force());
  PageImage already = ValuePage("already-there");
  already.set_lsn(lsn);
  ASSERT_OK(stable_->WritePage(P(3), already));

  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), 1).status());
  EXPECT_EQ(PagePrefix(P(2), 1), "v");
  EXPECT_EQ(PagePrefix(P(3), 7), "already");  // untouched: LSN said newer
}

TEST_F(RedoTest, IdentityWriteSeedsPage) {
  // An op whose effect exists only on the log via an identity write:
  // install-without-flush. The op itself must NOT be replayed.
  Append(MakePhysicalWrite(P(1), ValuePage("in")));
  LogRecord copy = MakeFileCopy({P(1)}, {P(2)});
  Append(copy);
  // Identity write captures page 2's post-copy value.
  PageImage post;
  post.SetPayload(Slice("in"));
  post.set_type(PageType::kFile);
  Lsn wip_lsn = Append(MakeIdentityWrite(P(2), post));
  // Source page 1 then moves on AND is flushed (installed) — if the copy
  // were replayed it would read the wrong source.
  PageImage newer = ValuePage("overwritten");
  Lsn ow_lsn = Append(MakePhysicalWrite(P(1), newer));
  newer.set_lsn(ow_lsn);
  ASSERT_OK(stable_->WritePage(P(1), newer));

  ASSERT_OK_AND_ASSIGN(RedoReport report,
                       RunRedo(*log_, registry_, stable_.get(), 1));
  EXPECT_GE(report.pages_seeded, 1u);
  EXPECT_EQ(PagePrefix(P(2), 2), "in");  // from the identity value
  PageImage page;
  ASSERT_OK(stable_->ReadPage(P(2), &page));
  EXPECT_EQ(page.lsn(), wip_lsn);
}

TEST_F(RedoTest, LastIdentityValueWins) {
  PageImage v1 = ValuePage("first");
  PageImage v2 = ValuePage("second");
  Append(MakeIdentityWrite(P(5), v1));
  Append(MakeIdentityWrite(P(5), v2));
  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), 1).status());
  EXPECT_EQ(PagePrefix(P(5), 6), "second");
}

TEST_F(RedoTest, OpsAfterSeedApplyOnTop) {
  PageImage v = ValuePage("seeded");
  Append(MakeIdentityWrite(P(1), v));
  Append(MakeFileCopy({P(1)}, {P(2)}));
  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), 1).status());
  EXPECT_EQ(PagePrefix(P(2), 6), "seeded");
}

TEST_F(RedoTest, StartLsnSkipsEarlierRecords) {
  Append(MakePhysicalWrite(P(1), ValuePage("old")));
  Lsn second = Append(MakePhysicalWrite(P(2), ValuePage("new")));
  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), second).status());
  PageImage page;
  ASSERT_OK(stable_->ReadPage(P(1), &page));
  EXPECT_TRUE(page.IsZero());  // record before start ignored
  EXPECT_EQ(PagePrefix(P(2), 3), "new");
}

TEST_F(RedoTest, CheckpointRecordsAreSkipped) {
  LogRecord ckpt;
  ckpt.op_code = kOpCheckpoint;
  PutFixed64(&ckpt.payload, 1);
  Append(ckpt);
  ASSERT_OK_AND_ASSIGN(RedoReport report,
                       RunRedo(*log_, registry_, stable_.get(), 1));
  EXPECT_EQ(report.ops_replayed, 0u);
}

TEST_F(RedoTest, FindCrashRedoStartUsesLastCheckpoint) {
  ASSERT_OK_AND_ASSIGN(Lsn none, FindCrashRedoStart(*log_));
  EXPECT_EQ(none, 1u);
  LogRecord c1;
  c1.op_code = kOpCheckpoint;
  PutFixed64(&c1.payload, 7);
  Append(c1);
  LogRecord c2;
  c2.op_code = kOpCheckpoint;
  PutFixed64(&c2.payload, 12);
  Append(c2);
  ASSERT_OK_AND_ASSIGN(Lsn start, FindCrashRedoStart(*log_));
  EXPECT_EQ(start, 12u);

  // Appended but not forced: not durable, so not reported.
  LogRecord c3;
  c3.op_code = kOpCheckpoint;
  PutFixed64(&c3.payload, 20);
  log_->Append(&c3);
  ASSERT_OK_AND_ASSIGN(start, FindCrashRedoStart(*log_));
  EXPECT_EQ(start, 12u);

  // A crash loses the unforced checkpoint; the reopened log reports the
  // last durable one.
  log_.reset();
  env_.CrashAndRestart();
  ASSERT_OK_AND_ASSIGN(log_, LogManager::Open(&env_, "log"));
  ASSERT_OK_AND_ASSIGN(start, FindCrashRedoStart(*log_));
  EXPECT_EQ(start, 12u);

  LogRecord c4;
  c4.op_code = kOpCheckpoint;
  PutFixed64(&c4.payload, 30);
  Append(c4);
  ASSERT_OK_AND_ASSIGN(start, FindCrashRedoStart(*log_));
  EXPECT_EQ(start, 30u);
  log_.reset();
  env_.CrashAndRestart();
  ASSERT_OK_AND_ASSIGN(log_, LogManager::Open(&env_, "log"));
  ASSERT_OK_AND_ASSIGN(start, FindCrashRedoStart(*log_));
  EXPECT_EQ(start, 30u);
}

// With channels, a checkpoint becomes durable at the group commit that
// seals its epoch.
TEST_F(RedoTest, FindCrashRedoStartWaitsForTheGroupCommit) {
  LogManagerOptions options;
  options.channels = 4;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env_, "grouped", options));
  LogRecord ckpt;
  ckpt.op_code = kOpCheckpoint;
  PutFixed64(&ckpt.payload, 9);
  Epoch epoch = kInvalidEpoch;
  log->Append(&ckpt, &epoch);
  ASSERT_OK_AND_ASSIGN(Lsn start, FindCrashRedoStart(*log));
  EXPECT_EQ(start, 1u);
  ASSERT_OK(log->WaitEpochDurable(epoch));
  ASSERT_OK_AND_ASSIGN(start, FindCrashRedoStart(*log));
  EXPECT_EQ(start, 9u);
}

TEST_F(RedoTest, EmptyLogIsANoOp) {
  ASSERT_OK_AND_ASSIGN(RedoReport report,
                       RunRedo(*log_, registry_, stable_.get(), 1));
  EXPECT_EQ(report.records_scanned, 0u);
  EXPECT_EQ(report.pages_written, 0u);
}

}  // namespace
}  // namespace llb
