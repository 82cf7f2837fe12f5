// Model-based random testing: the B-tree against a std::map reference
// model under mixed insert/replace/delete workloads, interleaved with
// flushes, checkpoints, crash recoveries, and on-line backups followed by
// full media recovery — the strongest end-to-end check in the suite.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "btree/btree.h"
#include "common/random.h"
#include "recovery/media_recovery.h"
#include "sim/harness.h"
#include "tests/test_util.h"

namespace llb {
namespace {

DbOptions ModelDbOptions() {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 2048;
  options.cache_pages = 64;
  options.graph = WriteGraphKind::kTree;
  options.backup_policy = BackupPolicy::kTree;
  options.backup_steps = 4;
  return options;
}

class BtreeModelTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void CompareWholeTree(BTree* tree,
                        const std::map<int64_t, std::string>& model) {
    ASSERT_OK_AND_ASSIGN(uint64_t count, tree->Count());
    ASSERT_EQ(count, model.size());
    std::vector<std::pair<int64_t, std::string>> scanned;
    ASSERT_OK(tree->Scan(INT64_MIN + 1, INT64_MAX, &scanned));
    ASSERT_EQ(scanned.size(), model.size());
    auto it = model.begin();
    for (size_t i = 0; i < scanned.size(); ++i, ++it) {
      ASSERT_EQ(scanned[i].first, it->first);
      ASSERT_EQ(scanned[i].second, it->second);
    }
    if (!model.empty()) {
      ASSERT_OK_AND_ASSIGN(int64_t min_key, tree->MinKey());
      ASSERT_OK_AND_ASSIGN(int64_t max_key, tree->MaxKey());
      EXPECT_EQ(min_key, model.begin()->first);
      EXPECT_EQ(max_key, model.rbegin()->first);
    }
    ASSERT_OK(tree->CheckInvariants().status());
  }
};

TEST_P(BtreeModelTest, MixedWorkloadMatchesReferenceModel) {
  Random rng(GetParam());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(ModelDbOptions()));
  auto tree = std::make_unique<BTree>(engine->db(), 0, 0,
                                      SplitLogging::kLogical);
  ASSERT_OK(tree->Create());
  std::map<int64_t, std::string> model;

  const int kSteps = 900;
  for (int step = 0; step < kSteps; ++step) {
    double dice = rng.NextDouble();
    int64_t key = static_cast<int64_t>(rng.Uniform(1200));
    if (dice < 0.6) {
      std::string value = Numbered("v", rng.Uniform(100000));
      ASSERT_OK(tree->Insert(key, value));
      model[key] = value;
    } else if (dice < 0.8) {
      Status s = tree->Delete(key);
      if (model.count(key)) {
        ASSERT_OK(s);
        model.erase(key);
      } else {
        ASSERT_TRUE(s.IsNotFound());
      }
    } else if (dice < 0.9) {
      auto value = tree->Get(key);
      if (model.count(key)) {
        ASSERT_TRUE(value.ok());
        ASSERT_EQ(*value, model[key]);
      } else {
        ASSERT_TRUE(value.status().IsNotFound());
      }
    } else if (dice < 0.94) {
      ASSERT_OK(engine->db()->FlushAll());
    } else if (dice < 0.97) {
      ASSERT_OK(engine->db()->Checkpoint());
    } else {
      // Crash everything volatile and recover; the durable log has every
      // op (FlushAll/Checkpoint force it periodically) — but ops since
      // the last force are legitimately lost, so force first to keep the
      // model aligned.
      ASSERT_OK(engine->db()->ForceLog());
      tree.reset();
      ASSERT_OK(engine->CrashAndRecover());
      tree = std::make_unique<BTree>(engine->db(), 0, 0,
                                     SplitLogging::kLogical);
    }
  }
  CompareWholeTree(tree.get(), model);

  // On-line backup with more mutations mid-sweep, then media recovery.
  BackupJobOptions job;
  job.steps = 4;
  job.mid_step = [&](PartitionId, uint32_t) -> Status {
    for (int i = 0; i < 25; ++i) {
      int64_t key = static_cast<int64_t>(rng.Uniform(1200));
      if (rng.Bernoulli(0.7)) {
        std::string value = Numbered("m", rng.Uniform(100000));
        LLB_RETURN_IF_ERROR(tree->Insert(key, value));
        model[key] = value;
      } else if (model.count(key)) {
        LLB_RETURN_IF_ERROR(tree->Delete(key));
        model.erase(key);
      }
    }
    return engine->db()->FlushAll();
  };
  ASSERT_OK(engine->db()->TakeBackupWithOptions("bk", job).status());
  ASSERT_OK(engine->db()->ForceLog());

  tree.reset();
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
  CompareWholeTree(&recovered, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BtreeModelTest,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005,
                                           6006, 7007, 8008));

}  // namespace
}  // namespace llb
