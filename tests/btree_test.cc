#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "btree/btree.h"
#include "btree/btree_node.h"
#include "sim/harness.h"
#include "tests/test_util.h"

namespace llb {
namespace {

DbOptions TreeDbOptions() {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 4096;
  options.cache_pages = 128;
  options.graph = WriteGraphKind::kTree;
  options.backup_policy = BackupPolicy::kTree;
  return options;
}

class BtreeNodeTest : public ::testing::Test {};

TEST_F(BtreeNodeTest, LeafInsertKeepsSortedOrder) {
  PageImage page;
  btree_node::InitLeaf(&page, 0);
  EXPECT_TRUE(btree_node::LeafInsert(&page, 30, Slice("c")));
  EXPECT_TRUE(btree_node::LeafInsert(&page, 10, Slice("a")));
  EXPECT_TRUE(btree_node::LeafInsert(&page, 20, Slice("b")));
  ASSERT_EQ(btree_node::Count(page), 3u);
  EXPECT_EQ(btree_node::LeafKeyAt(page, 0), 10);
  EXPECT_EQ(btree_node::LeafKeyAt(page, 1), 20);
  EXPECT_EQ(btree_node::LeafKeyAt(page, 2), 30);
  EXPECT_EQ(btree_node::LeafValueAt(page, 1), "b");
}

TEST_F(BtreeNodeTest, LeafInsertReplacesExistingKey) {
  PageImage page;
  btree_node::InitLeaf(&page, 0);
  btree_node::LeafInsert(&page, 5, Slice("old"));
  btree_node::LeafInsert(&page, 5, Slice("new"));
  EXPECT_EQ(btree_node::Count(page), 1u);
  EXPECT_EQ(btree_node::LeafValueAt(page, 0), "new");
}

TEST_F(BtreeNodeTest, LeafFullRejectsInsert) {
  PageImage page;
  btree_node::InitLeaf(&page, 0);
  for (size_t i = 0; i < btree_node::kLeafCapacity; ++i) {
    ASSERT_TRUE(btree_node::LeafInsert(&page, static_cast<int64_t>(i),
                                       Slice("v")));
  }
  EXPECT_FALSE(btree_node::LeafInsert(&page, 99999, Slice("v")));
}

TEST_F(BtreeNodeTest, LeafRemove) {
  PageImage page;
  btree_node::InitLeaf(&page, 0);
  btree_node::LeafInsert(&page, 1, Slice("a"));
  btree_node::LeafInsert(&page, 2, Slice("b"));
  EXPECT_TRUE(btree_node::LeafRemove(&page, 1));
  EXPECT_FALSE(btree_node::LeafRemove(&page, 1));
  EXPECT_EQ(btree_node::Count(page), 1u);
}

TEST_F(BtreeNodeTest, LeafSplitHelpersPartitionBySplitKey) {
  PageImage page;
  btree_node::InitLeaf(&page, 77);
  for (int64_t k = 1; k <= 10; ++k) {
    btree_node::LeafInsert(&page, k, Slice("v"));
  }
  PageImage high;
  btree_node::InitLeaf(&high, btree_node::Link(page));
  btree_node::LeafCopyHigh(page, &high, 5);
  btree_node::LeafTruncateHigh(&page, 5);
  EXPECT_EQ(btree_node::Count(page), 5u);
  EXPECT_EQ(btree_node::Count(high), 5u);
  EXPECT_EQ(btree_node::LeafKeyAt(high, 0), 6);
  EXPECT_EQ(btree_node::Link(high), 77u);
}

TEST_F(BtreeNodeTest, InnerDescendRouting) {
  PageImage page;
  btree_node::InitInner(&page, 100);  // keys <= 10 go left
  btree_node::InnerInsert(&page, 10, 200);
  btree_node::InnerInsert(&page, 20, 300);
  EXPECT_EQ(btree_node::InnerDescend(page, 5), 100u);
  EXPECT_EQ(btree_node::InnerDescend(page, 10), 100u);
  EXPECT_EQ(btree_node::InnerDescend(page, 11), 200u);
  EXPECT_EQ(btree_node::InnerDescend(page, 20), 200u);
  EXPECT_EQ(btree_node::InnerDescend(page, 21), 300u);
}

TEST_F(BtreeNodeTest, InnerSplitPromotesSeparator) {
  PageImage page;
  btree_node::InitInner(&page, 1);
  for (int64_t k = 10; k <= 50; k += 10) {
    btree_node::InnerInsert(&page, k, static_cast<uint32_t>(k));
  }
  PageImage high;
  btree_node::InitInner(&high, 0);
  btree_node::InnerCopyHigh(page, &high, 30);
  btree_node::InnerTruncateHigh(&page, 30);
  // 30 promoted: left keeps {10,20}, right gets {40,50} with leftmost=30's
  // child.
  EXPECT_EQ(btree_node::Count(page), 2u);
  EXPECT_EQ(btree_node::Count(high), 2u);
  EXPECT_EQ(btree_node::Link(high), 30u);
  EXPECT_EQ(btree_node::InnerKeyAt(high, 0), 40);
}

class BtreeTest : public ::testing::TestWithParam<SplitLogging> {
 protected:
  void SetUp() override {
    auto engine = TestEngine::Create(TreeDbOptions());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
    tree_ = std::make_unique<BTree>(engine_->db(), 0, /*meta_page=*/0,
                                    GetParam());
    ASSERT_OK(tree_->Create());
  }

  std::unique_ptr<TestEngine> engine_;
  std::unique_ptr<BTree> tree_;
};

TEST_P(BtreeTest, InsertAndGet) {
  ASSERT_OK(tree_->Insert(42, Slice("answer")));
  ASSERT_OK_AND_ASSIGN(std::string value, tree_->Get(42));
  EXPECT_EQ(value, "answer");
  EXPECT_TRUE(tree_->Get(43).status().IsNotFound());
}

TEST_P(BtreeTest, InsertReplaces) {
  ASSERT_OK(tree_->Insert(1, Slice("old")));
  ASSERT_OK(tree_->Insert(1, Slice("new")));
  ASSERT_OK_AND_ASSIGN(std::string value, tree_->Get(1));
  EXPECT_EQ(value, "new");
}

TEST_P(BtreeTest, DeleteRemoves) {
  ASSERT_OK(tree_->Insert(7, Slice("x")));
  ASSERT_OK(tree_->Delete(7));
  EXPECT_TRUE(tree_->Get(7).status().IsNotFound());
  EXPECT_TRUE(tree_->Delete(7).IsNotFound());
}

TEST_P(BtreeTest, ManyInsertsSplitAndStayConsistent) {
  std::map<int64_t, std::string> expected;
  for (int64_t k = 0; k < 1000; ++k) {
    int64_t key = (k * 7919) % 10007;  // scrambled order
    std::string value = Numbered("v", key);
    ASSERT_OK(tree_->Insert(key, value));
    expected[key] = value;
  }
  EXPECT_GT(tree_->stats().splits, 0u);

  ASSERT_OK_AND_ASSIGN(BtreeCheckReport report, tree_->CheckInvariants());
  EXPECT_EQ(report.records, expected.size());
  EXPECT_GT(report.leaves, 1u);

  for (const auto& [key, value] : expected) {
    ASSERT_OK_AND_ASSIGN(std::string got, tree_->Get(key));
    EXPECT_EQ(got, value);
  }
}

TEST_P(BtreeTest, ScanReturnsSortedRange) {
  for (int64_t k = 0; k < 500; ++k) {
    ASSERT_OK(tree_->Insert(k * 2, Numbered("e", k)));
  }
  std::vector<std::pair<int64_t, std::string>> out;
  ASSERT_OK(tree_->Scan(100, 120, &out));
  ASSERT_EQ(out.size(), 11u);
  EXPECT_EQ(out.front().first, 100);
  EXPECT_EQ(out.back().first, 120);
}

TEST_P(BtreeTest, SequentialInsertsGrowHeight) {
  for (int64_t k = 0; k < 5000; ++k) {
    ASSERT_OK(tree_->Insert(k, Slice("v")));
  }
  ASSERT_OK_AND_ASSIGN(BtreeCheckReport report, tree_->CheckInvariants());
  EXPECT_EQ(report.records, 5000u);
  EXPECT_GE(report.height, 2u);
  EXPECT_GT(tree_->stats().root_splits, 0u);
}

TEST_P(BtreeTest, SurvivesCrashAndRecovery) {
  for (int64_t k = 0; k < 300; ++k) {
    ASSERT_OK(tree_->Insert(k, Numbered("v", k)));
  }
  ASSERT_OK(engine_->db()->FlushAll());
  ASSERT_OK(engine_->CrashAndRecover());
  BTree reopened(engine_->db(), 0, 0, GetParam());
  for (int64_t k = 0; k < 300; ++k) {
    ASSERT_OK_AND_ASSIGN(std::string value, reopened.Get(k));
    EXPECT_EQ(value, Numbered("v", k));
  }
  ASSERT_OK(reopened.CheckInvariants().status());
}

INSTANTIATE_TEST_SUITE_P(SplitModes, BtreeTest,
                         ::testing::Values(SplitLogging::kLogical,
                                           SplitLogging::kPageOriented),
                         [](const auto& info) {
                           return info.param == SplitLogging::kLogical
                                      ? "Logical"
                                      : "PageOriented";
                         });

TEST(BtreeLoggingEconomyTest, LogicalSplitsLogFarFewerBytes) {
  // The paper's core motivation (1.1): MovRec logs operand ids + key;
  // the page-oriented alternative logs the new page's contents.
  uint64_t bytes[2];
  int i = 0;
  for (SplitLogging mode :
       {SplitLogging::kLogical, SplitLogging::kPageOriented}) {
    DbOptions options = TreeDbOptions();
    // Page-oriented split logging is not a tree operation; use the
    // general graph there for a fair, correct configuration.
    if (mode == SplitLogging::kPageOriented) {
      options.graph = WriteGraphKind::kGeneral;
      options.backup_policy = BackupPolicy::kGeneral;
    }
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                         TestEngine::Create(options));
    BTree tree(engine->db(), 0, 0, mode);
    ASSERT_OK(tree.Create());
    for (int64_t k = 0; k < 2000; ++k) {
      ASSERT_OK(tree.Insert(k, Slice("same-size-value")));
    }
    EXPECT_GT(tree.stats().splits, 10u);
    bytes[i++] = engine->db()->GatherStats().log.bytes;
  }
  // Logical split logging must be substantially cheaper.
  EXPECT_LT(bytes[0], bytes[1] * 3 / 4);
}

TEST(BtreeMiscTest, GetOnUninitializedTreeFails) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(TreeDbOptions()));
  BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
  EXPECT_FALSE(tree.Get(1).ok());
}

TEST(BtreeMiscTest, ValueTooLargeRejected) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(TreeDbOptions()));
  BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
  ASSERT_OK(tree.Create());
  std::string big(btree_node::kMaxValueSize + 1, 'x');
  EXPECT_FALSE(tree.Insert(1, Slice(big)).ok());
}

}  // namespace
}  // namespace llb
