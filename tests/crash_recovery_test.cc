#include <gtest/gtest.h>

#include <memory>

#include "apprec/app_recovery.h"
#include "btree/btree.h"
#include "filestore/filestore.h"
#include "io/fault_env.h"
#include "sim/harness.h"
#include "sim/workload.h"
#include "tests/test_util.h"

namespace llb {
namespace {

/// After any crash + recovery, the stable database must equal the state
/// obtained by replaying the entire durable log from scratch (the
/// recovery oracle). These tests sweep crash points across workloads.

DbOptions SmallDb(WriteGraphKind graph, BackupPolicy policy) {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 512;
  options.cache_pages = 32;
  options.graph = graph;
  options.backup_policy = policy;
  return options;
}

Status VerifyAgainstOracle(TestEngine* engine, const std::string& tag) {
  std::unique_ptr<PageStore> oracle;
  LLB_RETURN_IF_ERROR(testutil::BuildOracle(
      engine->env(), *engine->db()->log(), *engine->db()->registry(),
      "oracle_" + tag, engine->db()->options().partitions, &oracle));
  std::string diff = testutil::DiffStores(
      *engine->db()->stable(), *oracle,
      engine->db()->options().partitions,
      engine->db()->options().pages_per_partition);
  if (!diff.empty()) {
    return Status::Internal("recovered state differs from oracle at page " +
                            diff);
  }
  return Status::OK();
}

/// Runs `workload` against a fresh engine with a crash scheduled at
/// durable event k, recovers, and oracle-verifies. Returns the total
/// durable events of a full (uncrashed) run when k == 0.
template <typename WorkloadFn>
uint64_t RunWithCrashAt(WorkloadFn workload, const DbOptions& options,
                        uint64_t k, const std::string& tag) {
  auto engine_or = TestEngine::Create(options);
  EXPECT_TRUE(engine_or.ok());
  std::unique_ptr<TestEngine> engine = std::move(engine_or).value();

  std::unique_ptr<FaultInjector> injector;
  if (k == 0) {
    injector = std::make_unique<RecordingInjector>();
  } else {
    injector = std::make_unique<CrashAtEventInjector>(k);
  }
  engine->env()->SetFaultInjector(injector.get());

  // Run the workload; IO errors are the scheduled crash firing.
  Status s = workload(engine.get());
  if (k == 0) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    uint64_t total = static_cast<RecordingInjector*>(injector.get())->count();
    engine->env()->SetFaultInjector(nullptr);
    return total;
  }
  // Crash, recover, verify.
  Status rs = engine->CrashAndRecover();
  EXPECT_TRUE(rs.ok()) << "crash point " << k << ": " << rs.ToString();
  Status vs = VerifyAgainstOracle(engine.get(),
                                  tag + "_k" + std::to_string(k));
  EXPECT_TRUE(vs.ok()) << "crash point " << k << ": " << vs.ToString();
  return 0;
}

template <typename WorkloadFn>
void SweepCrashPoints(WorkloadFn workload, const DbOptions& options,
                      const std::string& tag, uint64_t max_points = 48) {
  uint64_t total = RunWithCrashAt(workload, options, 0, tag);
  ASSERT_GT(total, 0u);
  uint64_t step = total / max_points + 1;
  for (uint64_t k = 1; k <= total; k += step) {
    RunWithCrashAt(workload, options, k, tag);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashRecoveryTest, BtreeWorkloadSweep) {
  auto workload = [](TestEngine* engine) -> Status {
    BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
    LLB_RETURN_IF_ERROR(tree.Create());
    for (int64_t k = 0; k < 220; ++k) {
      LLB_RETURN_IF_ERROR(tree.Insert((k * 37) % 1009, Numbered("v", k)));
      if (k % 40 == 13) LLB_RETURN_IF_ERROR(engine->db()->FlushAll());
      if (k % 50 == 27) LLB_RETURN_IF_ERROR(engine->db()->Checkpoint());
    }
    return engine->db()->FlushAll();
  };
  SweepCrashPoints(workload, SmallDb(WriteGraphKind::kTree,
                                     BackupPolicy::kTree),
                   "btree");
}

TEST(CrashRecoveryTest, FileStoreGeneralOpsSweep) {
  auto workload = [](TestEngine* engine) -> Status {
    FileStore files(engine->db(), 0, 0, /*pages_per_file=*/2,
                    /*num_files=*/12);
    std::vector<int64_t> base{5, 3, 8, 1, 9, 2};
    LLB_RETURN_IF_ERROR(files.WriteValues(0, base));
    for (int i = 0; i < 30; ++i) {
      LLB_RETURN_IF_ERROR(files.Copy(i % 4, 4 + (i % 5)));
      LLB_RETURN_IF_ERROR(files.Transform(i % 4, i));
      if (i % 5 == 2) {
        LLB_RETURN_IF_ERROR(files.SortInto(4 + (i % 5), 10));
      }
      if (i % 7 == 3) LLB_RETURN_IF_ERROR(engine->db()->FlushAll());
    }
    return engine->db()->FlushAll();
  };
  SweepCrashPoints(workload, SmallDb(WriteGraphKind::kGeneral,
                                     BackupPolicy::kGeneral),
                   "filestore");
}

TEST(CrashRecoveryTest, AppRecoveryWorkloadSweep) {
  auto workload = [](TestEngine* engine) -> Status {
    AppRecovery apps(engine->db(), 0, /*msg_base=*/0, /*num_msgs=*/32,
                     /*app_base=*/400, /*num_apps=*/4);
    for (uint32_t a = 0; a < 4; ++a) LLB_RETURN_IF_ERROR(apps.InitApp(a));
    for (int i = 0; i < 60; ++i) {
      uint32_t app = i % 4;
      LLB_RETURN_IF_ERROR(apps.WriteMessage(i % 32, i * 31));
      LLB_RETURN_IF_ERROR(apps.Read(app, i % 32));
      LLB_RETURN_IF_ERROR(apps.Exec(app, i));
      if (i % 9 == 4) LLB_RETURN_IF_ERROR(engine->db()->FlushAll());
    }
    return engine->db()->FlushAll();
  };
  SweepCrashPoints(workload, SmallDb(WriteGraphKind::kTree,
                                     BackupPolicy::kTree),
                   "apprec");
}

TEST(CrashRecoveryTest, RecoveryIsIdempotentAcrossRepeatedCrashes) {
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<TestEngine> engine,
      TestEngine::Create(SmallDb(WriteGraphKind::kTree, BackupPolicy::kTree)));
  BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
  ASSERT_OK(tree.Create());
  for (int64_t k = 0; k < 150; ++k) {
    ASSERT_OK(tree.Insert(k, Numbered("v", k)));
  }
  ASSERT_OK(engine->db()->ForceLog());
  for (int round = 0; round < 3; ++round) {
    ASSERT_OK(engine->CrashAndRecover());
    ASSERT_OK(VerifyAgainstOracle(engine.get(),
                                  "idem" + std::to_string(round)));
  }
  BTree reopened(engine->db(), 0, 0, SplitLogging::kLogical);
  for (int64_t k = 0; k < 150; ++k) {
    ASSERT_OK(reopened.Get(k).status());
  }
}

TEST(CrashRecoveryTest, UnforcedTailIsLostButConsistent) {
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<TestEngine> engine,
      TestEngine::Create(SmallDb(WriteGraphKind::kTree, BackupPolicy::kTree)));
  BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
  ASSERT_OK(tree.Create());
  ASSERT_OK(tree.Insert(1, Slice("durable")));
  ASSERT_OK(engine->db()->ForceLog());
  ASSERT_OK(tree.Insert(2, Slice("volatile")));  // never forced
  ASSERT_OK(engine->CrashAndRecover());
  BTree reopened(engine->db(), 0, 0, SplitLogging::kLogical);
  ASSERT_OK(reopened.Get(1).status());
  EXPECT_TRUE(reopened.Get(2).status().IsNotFound());
  ASSERT_OK(VerifyAgainstOracle(engine.get(), "tail"));
}

TEST(CrashRecoveryTest, CheckpointBoundsRedoWork) {
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<TestEngine> engine,
      TestEngine::Create(SmallDb(WriteGraphKind::kTree, BackupPolicy::kTree)));
  BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
  ASSERT_OK(tree.Create());
  for (int64_t k = 0; k < 100; ++k) ASSERT_OK(tree.Insert(k, Slice("v")));
  ASSERT_OK(engine->db()->FlushAll());
  ASSERT_OK(engine->db()->Checkpoint());
  Lsn ckpt_start = engine->db()->cache()->RedoStartLsn();
  for (int64_t k = 100; k < 120; ++k) ASSERT_OK(tree.Insert(k, Slice("v")));
  ASSERT_OK(engine->db()->ForceLog());
  ASSERT_OK(engine->CrashAndRecover());
  // Correctness (not just performance): state matches oracle.
  ASSERT_OK(VerifyAgainstOracle(engine.get(), "ckpt"));
  EXPECT_GT(ckpt_start, 1u);
}

}  // namespace
}  // namespace llb
