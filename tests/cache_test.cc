#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <set>

#include "cache/cache_manager.h"
#include "common/random.h"
#include "filestore/file_ops.h"
#include "io/mem_env.h"
#include "ops/operation.h"
#include "recovery/general_write_graph.h"
#include "recovery/tree_write_graph.h"
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

class CacheTest : public ::testing::Test {
 protected:
  void Init(BackupPolicy policy, bool tree_graph = false,
            size_t capacity = 64, uint32_t log_channels = 1) {
    RegisterFileOps(&registry_);
    LogManagerOptions log_options;
    log_options.channels = log_channels;
    auto log = LogManager::Open(&env_, "log", log_options);
    ASSERT_TRUE(log.ok());
    log_ = std::move(log).value();
    auto store = PageStore::Open(&env_, "stable", 1);
    ASSERT_TRUE(store.ok());
    stable_ = std::move(store).value();
    coordinator_ = std::make_unique<BackupCoordinator>(1);
    CacheOptions options;
    options.capacity_pages = capacity;
    options.policy = policy;
    std::unique_ptr<WriteGraph> graph;
    if (tree_graph) {
      graph = std::make_unique<TreeWriteGraph>();
    } else {
      graph = std::make_unique<GeneralWriteGraph>();
    }
    cache_ = std::make_unique<CacheManager>(
        stable_.get(), log_.get(), &registry_, std::move(graph),
        coordinator_.get(), &tracker_, options);
  }

  void SetFences(BackupPos done, BackupPos pending) {
    BackupProgress* progress = coordinator_->Get(0);
    std::unique_lock<std::shared_mutex> latch(progress->latch());
    progress->SetPendingFence(pending);
    if (done != 0) {
      // Emulate a completed step: D advances to P then P moves on.
      BackupPos p = progress->pending_fence();
      progress->SetPendingFence(done);
      progress->SetDoneFence();
      progress->SetPendingFence(p);
    }
  }

  Status WritePageOp(uint32_t page, const std::string& content) {
    LogRecord rec = MakePhysicalWrite(P(page), ValuePage(content));
    return cache_->ExecuteOp(&rec);
  }

  Status CopyOp(uint32_t src, uint32_t dst) {
    LogRecord rec = MakeFileCopy({P(src)}, {P(dst)});
    return cache_->ExecuteOp(&rec);
  }

  MemEnv env_;
  OpRegistry registry_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<PageStore> stable_;
  std::unique_ptr<BackupCoordinator> coordinator_;
  IncrementalTracker tracker_;
  std::unique_ptr<CacheManager> cache_;
};

TEST_F(CacheTest, ExecuteAndReadBack) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "hello"));
  PageImage page;
  ASSERT_OK(cache_->ReadPage(P(1), &page));
  EXPECT_EQ(page.payload().ToString().substr(0, 5), "hello");
  EXPECT_TRUE(cache_->IsDirty(P(1)));
  EXPECT_EQ(page.lsn(), 1u);
}

TEST_F(CacheTest, OpsAssignMonotoneLsns) {
  Init(BackupPolicy::kGeneral);
  LogRecord a = MakePhysicalWrite(P(1), ValuePage("a"));
  LogRecord b = MakePhysicalWrite(P(2), ValuePage("b"));
  ASSERT_OK(cache_->ExecuteOp(&a));
  ASSERT_OK(cache_->ExecuteOp(&b));
  EXPECT_LT(a.lsn, b.lsn);
}

TEST_F(CacheTest, RejectsCrossPartitionOps) {
  Init(BackupPolicy::kGeneral);
  LogRecord rec = MakeFileCopy({PageId{0, 1}}, {PageId{1, 2}});
  EXPECT_FALSE(cache_->ExecuteOp(&rec).ok());
}

TEST_F(CacheTest, RejectsWriteFreeOps) {
  Init(BackupPolicy::kGeneral);
  LogRecord rec;
  rec.op_code = kOpFileCopy;
  rec.readset = {P(1)};
  EXPECT_FALSE(cache_->ExecuteOp(&rec).ok());
}

TEST_F(CacheTest, FlushMakesPageCleanAndStable) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "persist me"));
  ASSERT_OK(cache_->FlushPage(P(1)));
  EXPECT_FALSE(cache_->IsDirty(P(1)));
  PageImage page;
  ASSERT_OK(stable_->ReadPage(P(1), &page));
  EXPECT_EQ(page.payload().ToString().substr(0, 10), "persist me");
}

TEST_F(CacheTest, FlushForcesWalFirst) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "walled"));
  EXPECT_LT(log_->durable_lsn(), 1u);
  ASSERT_OK(cache_->FlushPage(P(1)));
  EXPECT_GE(log_->durable_lsn(), 1u);
}

TEST_F(CacheTest, FlushRespectsWriteGraphOrder) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "src"));
  ASSERT_OK(cache_->FlushPage(P(1)));
  ASSERT_OK(CopyOp(1, 2));       // reads 1 writes 2
  ASSERT_OK(WritePageOp(1, "overwrite"));  // writer of 1: reader -> writer
  // Flushing page 1 must install the copy's node (page 2) first.
  ASSERT_OK(cache_->FlushPage(P(1)));
  EXPECT_FALSE(cache_->IsDirty(P(2)));
  PageImage page;
  ASSERT_OK(stable_->ReadPage(P(2), &page));
  EXPECT_EQ(page.payload().ToString().substr(0, 3), "src");
}

TEST_F(CacheTest, FlushAllCleansEverything) {
  Init(BackupPolicy::kGeneral);
  for (uint32_t i = 1; i <= 10; ++i) {
    ASSERT_OK(WritePageOp(i, Numbered("x", i)));
  }
  ASSERT_OK(cache_->FlushAll());
  for (uint32_t i = 1; i <= 10; ++i) EXPECT_FALSE(cache_->IsDirty(P(i)));
  EXPECT_EQ(cache_->RedoStartLsn(), log_->next_lsn());
}

TEST_F(CacheTest, EvictionFlushesDirtyVictims) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/8);
  for (uint32_t i = 1; i <= 32; ++i) {
    ASSERT_OK(WritePageOp(i, Numbered("v", i)));
  }
  EXPECT_LE(cache_->CachedPageCount(), 8u);
  // Every page readable with its own value (read-through after evict).
  for (uint32_t i = 1; i <= 32; ++i) {
    PageImage page;
    ASSERT_OK(cache_->ReadPage(P(i), &page));
    EXPECT_EQ(page.payload().ToString().substr(0, 1 + (i >= 10 ? 2 : 1)),
              Numbered("v", i));
  }
  EXPECT_GT(cache_->stats().evictions, 0u);
}

TEST_F(CacheTest, NoIdentityWritesWhenBackupInactive) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "quiet"));
  ASSERT_OK(cache_->FlushPage(P(1)));
  EXPECT_EQ(cache_->stats().identity_writes, 0u);
  EXPECT_EQ(cache_->stats().decisions, 0u);
}

TEST_F(CacheTest, GeneralPolicyLogsDoneAndDoubtRegions) {
  Init(BackupPolicy::kGeneral);
  // Fences: done < 10, doubt [10, 20), pend >= 20.
  SetFences(/*done=*/10, /*pending=*/20);
  ASSERT_OK(WritePageOp(5, "done-region"));
  ASSERT_OK(WritePageOp(15, "doubt-region"));
  ASSERT_OK(WritePageOp(25, "pend-region"));
  ASSERT_OK(cache_->FlushPage(P(5)));
  ASSERT_OK(cache_->FlushPage(P(15)));
  ASSERT_OK(cache_->FlushPage(P(25)));
  CacheStats stats = cache_->stats();
  EXPECT_EQ(stats.decisions, 3u);
  EXPECT_EQ(stats.decisions_logged, 2u);  // done + doubt
  EXPECT_EQ(stats.identity_writes, 2u);
  EXPECT_EQ(stats.region_done, 1u);
  EXPECT_EQ(stats.region_doubt, 1u);
  EXPECT_EQ(stats.region_pend, 1u);
  EXPECT_EQ(log_->stats().identity_records, 2u);
}

TEST_F(CacheTest, NaivePolicyNeverLogs) {
  Init(BackupPolicy::kNaive);
  SetFences(10, 20);
  ASSERT_OK(WritePageOp(5, "done-region"));
  ASSERT_OK(cache_->FlushPage(P(5)));
  EXPECT_EQ(cache_->stats().identity_writes, 0u);
}

TEST_F(CacheTest, IdentityWrittenPageIsStillFlushedAndClean) {
  Init(BackupPolicy::kGeneral);
  SetFences(10, 20);
  ASSERT_OK(WritePageOp(5, "logged+flushed"));
  ASSERT_OK(cache_->FlushPage(P(5)));
  EXPECT_FALSE(cache_->IsDirty(P(5)));
  PageImage page;
  ASSERT_OK(stable_->ReadPage(P(5), &page));
  EXPECT_EQ(page.payload().ToString().substr(0, 6), "logged");
  // The stable page carries the identity write's LSN.
  EXPECT_EQ(page.lsn(), log_->durable_lsn());
}

TEST_F(CacheTest, TreePolicyCaseAnalysis) {
  Init(BackupPolicy::kTree, /*tree_graph=*/true);
  SetFences(/*done=*/10, /*pending=*/20);

  // Case Pend(X): plain flush.
  ASSERT_OK(WritePageOp(25, "pend"));
  ASSERT_OK(cache_->FlushPage(P(25)));
  // Case no successors, Done(X): plain flush.
  ASSERT_OK(WritePageOp(5, "done-nosucc"));
  ASSERT_OK(cache_->FlushPage(P(5)));
  CacheStats stats = cache_->stats();
  EXPECT_EQ(stats.identity_writes, 0u);
  EXPECT_EQ(stats.tree_plain_pend_x, 1u);
  EXPECT_EQ(stats.tree_plain_done_succ, 1u);

  // Case Done(X) & !Done(S(X)): Iw/oF. Copy 25 -> 6 gives 6 the
  // successor 25 (pending); 6 is in Done.
  ASSERT_OK(CopyOp(25, 6));
  ASSERT_OK(cache_->FlushPage(P(6)));
  stats = cache_->stats();
  EXPECT_EQ(stats.tree_iwof_done_x, 1u);
  EXPECT_EQ(stats.identity_writes, 1u);

  // Case Doubt(X) & Pend(S(X)): Iw/oF.
  ASSERT_OK(CopyOp(25, 15));
  ASSERT_OK(cache_->FlushPage(P(15)));
  stats = cache_->stats();
  EXPECT_EQ(stats.tree_iwof_pend_succ, 1u);

  // Case Doubt & Doubt without violation (#succ < #X... dagger holds when
  // successor position is below X): copy 11 -> 16 (succ 11 in doubt,
  // X=16 in doubt, 16 > 11 so no violation): plain flush.
  ASSERT_OK(WritePageOp(11, "doubt-src"));
  ASSERT_OK(cache_->FlushPage(P(11)));
  ASSERT_OK(CopyOp(11, 16));
  ASSERT_OK(cache_->FlushPage(P(16)));
  stats = cache_->stats();
  EXPECT_EQ(stats.tree_plain_doubt_ok, 1u);

  // Case Doubt & Doubt with violation (X=12 below its successor 17):
  ASSERT_OK(WritePageOp(17, "doubt-src2"));
  ASSERT_OK(cache_->FlushPage(P(17)));
  ASSERT_OK(CopyOp(17, 12));
  ASSERT_OK(cache_->FlushPage(P(12)));
  stats = cache_->stats();
  EXPECT_EQ(stats.tree_iwof_doubt_viol, 1u);
}

TEST_F(CacheTest, CheckpointWritesRecord) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "x"));
  ASSERT_OK(cache_->Checkpoint());
  int checkpoints = 0;
  ASSERT_OK(log_->Scan(1, [&](const LogRecord& rec) {
    if (rec.IsCheckpoint()) ++checkpoints;
    return Status::OK();
  }));
  EXPECT_EQ(checkpoints, 1);
}

TEST_F(CacheTest, RedoStartReflectsOldestDirtyOp) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "a"));  // lsn 1
  ASSERT_OK(WritePageOp(2, "b"));  // lsn 2
  EXPECT_EQ(cache_->RedoStartLsn(), 1u);
  ASSERT_OK(cache_->FlushPage(P(1)));
  EXPECT_EQ(cache_->RedoStartLsn(), 2u);
}

TEST_F(CacheTest, TrackerSeesFlushes) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(3, "tracked"));
  ASSERT_OK(cache_->FlushPage(P(3)));
  auto changed = tracker_.SnapshotAndClear();
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], P(3));
}

TEST_F(CacheTest, MultiPageLogicalOpFlushesAtomicSet) {
  Init(BackupPolicy::kGeneral);
  // Transform writes pages 1..3 in one op: they form one node and must
  // flush together.
  ASSERT_OK(WritePageOp(1, "a"));
  ASSERT_OK(WritePageOp(2, "b"));
  ASSERT_OK(WritePageOp(3, "c"));
  ASSERT_OK(cache_->FlushAll());
  LogRecord rec = MakeFileTransform({P(1), P(2), P(3)}, 42);
  ASSERT_OK(cache_->ExecuteOp(&rec));
  ASSERT_OK(cache_->FlushPage(P(2)));
  EXPECT_FALSE(cache_->IsDirty(P(1)));
  EXPECT_FALSE(cache_->IsDirty(P(3)));
}

// --- Eviction order against a reference model -----------------------------

/// The victim rule on one recency list (front = most recently touched):
/// evict the coldest unpinned clean page, else install the coldest
/// unpinned dirty page's node and evict it. Every page a cache access or
/// an install reaches is touched. Single-page nodes only, so an install
/// touches and cleans exactly the page it was asked for.
class EvictionModel {
 public:
  EvictionModel(size_t capacity, bool overlapped)
      : capacity_(capacity), overlapped_(overlapped) {}

  /// A cache lookup: a hit touches the page, a miss makes room first.
  void Access(uint32_t page) {
    auto it = std::find(lru_.begin(), lru_.end(), page);
    if (it != lru_.end()) {
      lru_.splice(lru_.begin(), lru_, it);
      return;
    }
    ++misses_;
    EnsureRoom();
    lru_.push_front(page);
  }

  void Dirty(uint32_t page) { dirty_.insert(page); }
  void Pin(uint32_t page) { ++pins_[page]; }
  void Unpin(uint32_t page) { --pins_[page]; }

  void Flush(uint32_t page) {
    if (dirty_.count(page) == 0) return;
    Access(page);
    dirty_.erase(page);
  }

  void FlushAll() {
    while (!dirty_.empty()) {
      auto coldest = std::find_if(lru_.rbegin(), lru_.rend(), [&](uint32_t p) {
        return dirty_.count(p) != 0;
      });
      Flush(*coldest);
    }
  }

  bool cached(uint32_t page) const {
    return std::find(lru_.begin(), lru_.end(), page) != lru_.end();
  }
  bool dirty(uint32_t page) const { return dirty_.count(page) != 0; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

 private:
  void EnsureRoom() {
    while (lru_.size() >= capacity_) {
      auto coldest = [&](bool want_dirty) {
        return std::find_if(lru_.rbegin(), lru_.rend(), [&](uint32_t p) {
          return (!overlapped_ || pins_[p] == 0) && dirty(p) == want_dirty;
        });
      };
      auto victim = coldest(false);
      if (victim == lru_.rend()) {
        victim = coldest(true);
        if (victim == lru_.rend()) return;  // everything pinned
        const uint32_t page = *victim;
        Flush(page);
        if (overlapped_) continue;  // re-derive: the flush touched it
        victim = std::find(lru_.rbegin(), lru_.rend(), page);
      }
      lru_.erase(std::next(victim).base());
      ++evictions_;
    }
  }

  const size_t capacity_;
  const bool overlapped_;
  std::list<uint32_t> lru_;
  std::set<uint32_t> dirty_;
  std::map<uint32_t, int> pins_;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

class CacheEvictionOrderTest : public CacheTest,
                               public ::testing::WithParamInterface<uint32_t> {
};

// A deterministic mix of reads, blind writes, copies from read-only pages,
// FlushPage and FlushAll at capacity 8 evicts exactly the pages the model
// does, step by step, and keeps every frame in the list its flag names.
TEST_P(CacheEvictionOrderTest, MatchesTheReferenceModel) {
  const uint32_t channels = GetParam();
  const bool overlapped = channels > 1;
  constexpr size_t kCapacity = 8;
  constexpr uint32_t kWritable = 14;  // pages 0..13; 14..17 are only read
  constexpr uint32_t kPages = 18;
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, kCapacity, channels);
  EvictionModel model(kCapacity, overlapped);
  Random rng(20001);
  for (int step = 0; step < 1500; ++step) {
    const uint64_t pick = rng.Uniform(100);
    if (pick < 35) {
      const uint32_t page = static_cast<uint32_t>(rng.Uniform(kPages));
      PageImage image;
      ASSERT_OK(cache_->ReadPage(P(page), &image));
      model.Access(page);
    } else if (pick < 70) {
      const uint32_t page = static_cast<uint32_t>(rng.Uniform(kWritable));
      ASSERT_OK(WritePageOp(page, Numbered("w", step)));
      model.Access(page);  // overlapped: pre-fault; classic: commit
      if (overlapped) model.Access(page);  // commit
      model.Dirty(page);
    } else if (pick < 82) {
      const uint32_t src =
          kWritable + static_cast<uint32_t>(rng.Uniform(kPages - kWritable));
      const uint32_t dst = static_cast<uint32_t>(rng.Uniform(kWritable));
      ASSERT_OK(CopyOp(src, dst));
      if (overlapped) {
        // Pre-fault and pin both pages, then apply and commit on hits.
        model.Access(src);
        model.Pin(src);
        model.Access(dst);
        model.Pin(dst);
      }
      model.Access(src);  // apply reads the source
      model.Access(dst);  // commit
      model.Dirty(dst);
      if (overlapped) {
        model.Unpin(src);
        model.Unpin(dst);
      }
    } else if (pick < 97) {
      const uint32_t page = static_cast<uint32_t>(rng.Uniform(kWritable));
      ASSERT_OK(cache_->FlushPage(P(page)));
      model.Flush(page);
    } else {
      ASSERT_OK(cache_->FlushAll());
      model.FlushAll();
    }
    const Status lists = cache_->CheckFrameLists();
    ASSERT_TRUE(lists.ok()) << "step " << step << ": " << lists.ToString();
    for (uint32_t page = 0; page < kPages; ++page) {
      ASSERT_EQ(cache_->IsCached(P(page)), model.cached(page))
          << "step " << step << " page " << page;
      ASSERT_EQ(cache_->IsDirty(P(page)), model.dirty(page))
          << "step " << step << " page " << page;
    }
    const CacheStats stats = cache_->stats();
    ASSERT_EQ(stats.misses, model.misses()) << "step " << step;
    ASSERT_EQ(stats.evictions, model.evictions()) << "step " << step;
  }
  EXPECT_GT(model.evictions(), 300u);
}

// FlushAll installs every dirty write-graph node exactly once, reader
// nodes before the writers they precede, and leaves nothing dirty.
TEST_P(CacheEvictionOrderTest, FlushAllInstallsEachDirtyUnitOnce) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/64,
       GetParam());
  for (uint32_t i = 1; i <= 12; ++i) {
    ASSERT_OK(WritePageOp(i, Numbered("x", i)));
  }
  ASSERT_OK(cache_->FlushPage(P(2)));
  for (uint32_t i = 1; i <= 6; ++i) ASSERT_OK(CopyOp(i, 20 + i));
  for (uint32_t i = 1; i <= 6; ++i) {
    ASSERT_OK(WritePageOp(i, Numbered("y", i)));  // reader -> writer edges
  }
  LogRecord transform = MakeFileTransform({P(30), P(31), P(32)}, 7);
  ASSERT_OK(cache_->ExecuteOp(&transform));
  ASSERT_OK(cache_->CheckFrameLists());

  const size_t nodes = cache_->GraphStats().nodes;
  ASSERT_GT(nodes, 10u);
  const uint64_t installs = cache_->stats().node_installs;
  ASSERT_OK(cache_->FlushAll());
  EXPECT_EQ(cache_->stats().node_installs - installs, nodes);
  EXPECT_EQ(cache_->GraphStats().nodes, 0u);
  ASSERT_OK(cache_->CheckFrameLists());
  for (uint32_t page = 0; page < 40; ++page) {
    EXPECT_FALSE(cache_->IsDirty(P(page))) << page;
  }
  PageImage page;
  ASSERT_OK(stable_->ReadPage(P(23), &page));
  EXPECT_EQ(page.payload().ToString().substr(0, 2), "x3");
}

INSTANTIATE_TEST_SUITE_P(LogChannels, CacheEvictionOrderTest,
                         ::testing::Values(1u, 2u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "Channels" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace llb
