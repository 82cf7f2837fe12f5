#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "apprec/app_recovery.h"
#include "btree/btree.h"
#include "filestore/filestore.h"
#include "recovery/media_recovery.h"
#include "sim/harness.h"
#include "sim/workload.h"
#include "tests/test_util.h"

namespace llb {
namespace {

TEST(IntegrationTest, MultiplePartitionsHostDifferentDomains) {
  DbOptions options;
  options.partitions = 3;
  options.pages_per_partition = 1024;
  options.cache_pages = 128;
  options.graph = WriteGraphKind::kGeneral;  // covers all op classes
  options.backup_policy = BackupPolicy::kGeneral;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(options));

  BTree tree(engine->db(), /*partition=*/0, 0, SplitLogging::kLogical);
  FileStore files(engine->db(), /*partition=*/1, 0, 2, 16);
  AppRecovery apps(engine->db(), /*partition=*/2, 0, 64, 900, 4);

  ASSERT_OK(tree.Create());
  ASSERT_OK(apps.InitApp(0));
  for (int i = 0; i < 400; ++i) {
    ASSERT_OK(tree.Insert(i, Numbered("t", i)));
    if (i % 10 == 0) {
      ASSERT_OK(files.WriteValues(i % 16, {i, i + 1, i + 2}));
    }
    if (i % 8 == 0) {
      ASSERT_OK(apps.WriteMessage(i % 64, i));
      ASSERT_OK(apps.Read(0, i % 64));
    }
  }
  ASSERT_OK(files.Copy(0, 10));
  ASSERT_OK(engine->db()->FlushAll());
  ASSERT_OK(engine->CrashAndRecover());

  BTree tree2(engine->db(), 0, 0, SplitLogging::kLogical);
  ASSERT_OK(tree2.CheckInvariants().status());
  FileStore files2(engine->db(), 1, 0, 2, 16);
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> copy, files2.ReadValues(10));
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> orig, files2.ReadValues(0));
  EXPECT_EQ(copy, orig);
  AppRecovery apps2(engine->db(), 2, 0, 64, 900, 4);
  ASSERT_OK_AND_ASSIGN(uint64_t ops, apps2.AppOpCount(0));
  EXPECT_EQ(ops, 50u);
}

TEST(IntegrationTest, ParallelPartitionBackupWhileUpdating) {
  DbOptions options;
  options.partitions = 2;
  options.pages_per_partition = 512;
  options.cache_pages = 64;
  options.graph = WriteGraphKind::kTree;
  options.backup_policy = BackupPolicy::kTree;
  options.parallel_backup = true;
  options.backup_steps = 8;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(options));

  BTree tree_a(engine->db(), 0, 0, SplitLogging::kLogical);
  BTree tree_b(engine->db(), 1, 0, SplitLogging::kLogical);
  ASSERT_OK(tree_a.Create());
  ASSERT_OK(tree_b.Create());
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(tree_a.Insert(i, Slice("a")));
    ASSERT_OK(tree_b.Insert(i, Slice("b")));
  }
  ASSERT_OK(engine->db()->FlushAll());

  // Updates race the backup from another thread.
  std::atomic<bool> stop{false};
  std::atomic<int> next{200};
  Status updater_status;
  std::thread updater([&]() {
    while (!stop.load()) {
      int k = next.fetch_add(1);
      if (k >= 2000) break;
      Status sa = tree_a.Insert(k, Slice("a2"));
      Status sb = tree_b.Insert(k, Slice("b2"));
      if (!sa.ok() || !sb.ok()) {
        updater_status = sa.ok() ? sb : sa;
        return;
      }
    }
  });
  ASSERT_OK_AND_ASSIGN(BackupManifest manifest,
                       engine->db()->TakeBackup("par_bk"));
  stop.store(true);
  updater.join();
  ASSERT_OK(updater_status);
  EXPECT_TRUE(manifest.complete);
  ASSERT_OK(engine->db()->ForceLog());

  // Media-recover from the backup taken under concurrency.
  ASSERT_OK(engine->Shutdown());
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<PageStore> stable,
        PageStore::Open(engine->env(), Database::StableName("db"), 2));
    ASSERT_OK(stable->WipePartition(0));
    ASSERT_OK(stable->WipePartition(1));
  }
  OpRegistry registry;
  RegisterAllOps(&registry);
  ASSERT_OK(RestoreFromBackup(engine->env(), Database::StableName("db"),
                              Database::LogName("db"), "par_bk", registry)
                .status());
  ASSERT_OK(engine->Reopen());
  BTree check_a(engine->db(), 0, 0, SplitLogging::kLogical);
  BTree check_b(engine->db(), 1, 0, SplitLogging::kLogical);
  ASSERT_OK(check_a.CheckInvariants().status());
  ASSERT_OK(check_b.CheckInvariants().status());
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(check_a.Get(i).status());
    ASSERT_OK(check_b.Get(i).status());
  }
}

TEST(IntegrationTest, CachePressureDuringBackup) {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 600;
  options.cache_pages = 16;  // heavy eviction pressure
  options.graph = WriteGraphKind::kTree;
  options.backup_policy = BackupPolicy::kTree;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(options));
  BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
  ASSERT_OK(tree.Create());

  int64_t key = 0;
  BackupJobOptions job;
  job.steps = 6;
  job.mid_step = [&](PartitionId, uint32_t) -> Status {
    for (int i = 0; i < 150; ++i, ++key) {
      LLB_RETURN_IF_ERROR(tree.Insert((key * 17) % 4001, Slice("v")));
    }
    return Status::OK();  // evictions flush under the hood
  };
  ASSERT_OK(engine->db()->TakeBackupWithOptions("bk", job).status());
  EXPECT_GT(engine->db()->GatherStats().cache.evictions, 0u);
  ASSERT_OK(engine->db()->ForceLog());

  ASSERT_OK(engine->Shutdown());
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<PageStore> stable,
        PageStore::Open(engine->env(), Database::StableName("db"), 1));
    ASSERT_OK(stable->WipePartition(0));
  }
  OpRegistry registry;
  RegisterAllOps(&registry);
  ASSERT_OK(RestoreFromBackup(engine->env(), Database::StableName("db"),
                              Database::LogName("db"), "bk", registry)
                .status());
  ASSERT_OK(engine->Reopen());
  BTree recovered(engine->db(), 0, 0, SplitLogging::kLogical);
  ASSERT_OK(recovered.CheckInvariants().status());
}

TEST(IntegrationTest, TreeDriverRunsUnderTreePolicy) {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 256;
  options.cache_pages = 64;
  options.graph = WriteGraphKind::kTree;
  options.backup_policy = BackupPolicy::kTree;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(options));
  TreeUniformDriver driver(engine->db(), 0, 256, /*seed=*/42);
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(driver.Step());
  }
  ASSERT_OK(engine->db()->FlushAll());
  ASSERT_OK(engine->CrashAndRecover());
}

TEST(IntegrationTest, GeneralDriverRunsUnderGeneralPolicy) {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 128;
  options.cache_pages = 64;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(options));
  GeneralUniformDriver driver(engine->db(), 0, 128, /*seed=*/42);
  // Seed one file so copies have content.
  FileStore files(engine->db(), 0, 0, 1, 128);
  ASSERT_OK(files.WriteValues(0, {1, 2, 3}));
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(driver.Step());
  }
  ASSERT_OK(engine->db()->FlushAll());
  ASSERT_OK(engine->CrashAndRecover());
}

TEST(IntegrationTest, StatsAreCoherent) {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 256;
  options.cache_pages = 64;
  options.graph = WriteGraphKind::kTree;
  options.backup_policy = BackupPolicy::kTree;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(options));
  BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
  ASSERT_OK(tree.Create());
  for (int i = 0; i < 500; ++i) ASSERT_OK(tree.Insert(i, Slice("v")));
  ASSERT_OK(engine->db()->FlushAll());
  ASSERT_OK(engine->db()->TakeBackup("bk").status());

  DbStats stats = engine->db()->GatherStats();
  EXPECT_GT(stats.cache.ops_applied, 500u);
  EXPECT_GT(stats.cache.pages_flushed, 0u);
  EXPECT_GT(stats.log.records, stats.cache.ops_applied - 1);
  EXPECT_EQ(stats.backups_taken, 1u);
  EXPECT_EQ(stats.backup_pages_copied, 256u);
  EXPECT_GE(stats.cache.decisions_logged, stats.cache.identity_writes == 0
                                              ? 0u
                                              : stats.cache.identity_writes);
  EXPECT_LE(stats.ExtraLoggingProbability(), 1.0);
  EXPECT_FALSE(stats.ToString().empty());
}

}  // namespace
}  // namespace llb
