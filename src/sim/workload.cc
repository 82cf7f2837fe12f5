#include "sim/workload.h"

#include <algorithm>

namespace llb {

GeneralUniformDriver::GeneralUniformDriver(Database* db, PartitionId partition,
                                           uint32_t num_pages, uint64_t seed)
    : db_(db),
      files_(db, partition, /*base_page=*/0, /*pages_per_file=*/1,
             /*num_files=*/num_pages),
      rng_(seed),
      num_pages_(num_pages) {}

Status GeneralUniformDriver::Step() {
  uint32_t src = static_cast<uint32_t>(rng_.Uniform(num_pages_));
  uint32_t dst = static_cast<uint32_t>(rng_.Uniform(num_pages_));
  if (dst == src) dst = (dst + 1) % num_pages_;
  LLB_RETURN_IF_ERROR(files_.Copy(src, dst));
  return db_->FlushPage(files_.PagesOf(dst)[0]);
}

TreeUniformDriver::TreeUniformDriver(Database* db, PartitionId partition,
                                     uint32_t num_pages, uint64_t seed)
    : db_(db),
      files_(db, partition, /*base_page=*/0, /*pages_per_file=*/1,
             /*num_files=*/num_pages),
      rng_(seed),
      num_pages_(num_pages) {
  fresh_.reserve(num_pages);
  for (uint32_t i = 0; i < num_pages; ++i) fresh_.push_back(i);
  // Fisher-Yates shuffle so fresh pages appear at uniform positions.
  for (uint32_t i = num_pages; i > 1; --i) {
    std::swap(fresh_[i - 1],
              fresh_[static_cast<uint32_t>(rng_.Uniform(i))]);
  }
  // Seed a handful of source pages so the first copies read real data.
  size_t seeds = std::min<uint32_t>(4, num_pages / 2);
  for (size_t i = 0; i < seeds && fresh_cursor_ < fresh_.size(); ++i) {
    written_.push_back(fresh_[fresh_cursor_++]);
  }
}

Status TreeUniformDriver::Step() {
  if (fresh_cursor_ >= fresh_.size()) {
    return Status::FailedPrecondition("tree driver out of fresh pages");
  }
  if (written_.empty()) {
    return Status::FailedPrecondition("tree driver has no source pages");
  }
  // Initialize the seeded sources lazily (physical writes).
  if (!sources_initialized_) {
    for (uint32_t page : written_) {
      std::vector<int64_t> values{static_cast<int64_t>(page), 17, 42};
      LLB_RETURN_IF_ERROR(files_.WriteValues(page, values));
      LLB_RETURN_IF_ERROR(db_->FlushPage(files_.PagesOf(page)[0]));
    }
    sources_initialized_ = true;
  }

  uint32_t y = written_[rng_.Uniform(written_.size())];
  uint32_t x = fresh_[fresh_cursor_++];

  // W_L(Y, X): logical write-new, then flush the new object.
  LLB_RETURN_IF_ERROR(files_.Copy(y, x));
  LLB_RETURN_IF_ERROR(db_->FlushPage(files_.PagesOf(x)[0]));

  // Page-oriented update of Y, then flush it.
  LLB_RETURN_IF_ERROR(files_.Transform(y, rng_.Next()));
  LLB_RETURN_IF_ERROR(db_->FlushPage(files_.PagesOf(y)[0]));

  written_.push_back(x);
  return Status::OK();
}

Status BtreeInsertDriver::Step() {
  int64_t key = static_cast<int64_t>(rng_.Uniform(key_space_));
  // Not "v" + std::to_string(key): GCC 12 at -O3 flags that with a
  // -Wrestrict false positive.
  std::string value = "v";
  value += std::to_string(key);
  LLB_RETURN_IF_ERROR(tree_->Insert(key, value));
  ++inserted_;
  return Status::OK();
}

}  // namespace llb
