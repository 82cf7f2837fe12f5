#include "cache/cache_manager.h"

#include <algorithm>

#include "common/coding.h"
#include "ops/operation.h"

namespace llb {

CacheManager::CacheManager(PageStore* stable, LogManager* log,
                           const OpRegistry* registry,
                           std::unique_ptr<WriteGraph> graph,
                           BackupCoordinator* coordinator,
                           IncrementalTracker* tracker, CacheOptions options)
    : stable_(stable),
      log_(log),
      registry_(registry),
      graph_(std::move(graph)),
      coordinator_(coordinator),
      tracker_(tracker),
      options_(options) {}

void CacheManager::Touch(Frame& frame) {
  frame.tick = ++clock_;
  std::list<Frame*>& list = ListOf(frame);
  list.splice(list.begin(), list, frame.pos);
}

void CacheManager::SetDirty(Frame& frame) {
  if (frame.dirty) return;
  frame.dirty = true;
  // Operations dirty the page they just touched: its slot is at the front.
  auto at = dirty_.begin();
  while (at != dirty_.end() && (*at)->tick > frame.tick) ++at;
  dirty_.splice(at, clean_, frame.pos);
}

void CacheManager::SetClean(const std::vector<Frame*>& frames) {
  std::list<Frame*> batch;
  for (Frame* frame : frames) {
    if (!frame->dirty) continue;
    frame->dirty = false;
    batch.splice(batch.end(), dirty_, frame->pos);
  }
  // An install touches every page it writes, so the batch lands at or
  // near the front of clean_ and the merge stops early.
  auto hotter = [](const Frame* a, const Frame* b) {
    return a->tick > b->tick;
  };
  batch.sort(hotter);
  clean_.merge(batch, hotter);
}

void CacheManager::Evict(Frame& frame) {
  const PageId id = frame.id;
  ListOf(frame).erase(frame.pos);
  frames_.erase(id);
  ++stats_.evictions;
}

void CacheManager::SetPageFaultHandler(
    std::function<Status(const PageId&)> handler) {
  std::lock_guard<std::mutex> lock(mu_);
  page_fault_handler_ = std::move(handler);
}

Status CacheManager::GetFrame(std::unique_lock<std::mutex>& lk,
                              const PageId& id, Frame** frame) {
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    ++stats_.hits;
    Touch(it->second);
    *frame = &it->second;
    return Status::OK();
  }
  ++stats_.misses;
  // Restoring mode: restore the page on demand before reading it from S.
  // The handler persists its restored-bitmap before returning, so the
  // value read below is durably the media-recovery state.
  if (page_fault_handler_) {
    LLB_RETURN_IF_ERROR(page_fault_handler_(id));
  }
  LLB_RETURN_IF_ERROR(EnsureRoom(lk));
  Frame f;
  LLB_RETURN_IF_ERROR(stable_->ReadPage(id, &f.image));
  f.id = id;
  auto [pos, inserted] = frames_.emplace(id, std::move(f));
  *frame = &pos->second;
  if (!inserted) {
    // Another thread faulted the page in while eviction had mu_ released.
    Touch(pos->second);
    return Status::OK();
  }
  pos->second.tick = ++clock_;
  clean_.push_front(&pos->second);
  pos->second.pos = clean_.begin();
  return Status::OK();
}

Status CacheManager::EnsureRoom(std::unique_lock<std::mutex>& lk) {
  if (!Overlapped()) {
    while (frames_.size() >= options_.capacity_pages && !frames_.empty()) {
      // Prefer the least-recently-used clean page.
      if (!clean_.empty()) {
        Evict(*clean_.back());
        continue;
      }
      // All dirty: install the coldest page's node, then evict it.
      const PageId victim = dirty_.back()->id;
      LLB_RETURN_IF_ERROR(FlushPageLocked(lk, victim));
      Evict(frames_.at(victim));
    }
    return Status::OK();
  }

  // Overlapped mode: flushing a dirty victim can release the mutex, so
  // every round re-derives its facts, pinned frames are skipped, and a
  // fully-pinned cache tolerates a transient overrun instead of
  // deadlocking.
  auto coldest_unpinned = [](const std::list<Frame*>& list) -> Frame* {
    for (auto it = list.rbegin(); it != list.rend(); ++it) {
      if ((*it)->pins == 0) return *it;
    }
    return nullptr;
  };
  while (frames_.size() >= options_.capacity_pages) {
    if (Frame* victim = coldest_unpinned(clean_)) {
      Evict(*victim);
      continue;
    }
    Frame* victim = coldest_unpinned(dirty_);
    if (victim == nullptr) return Status::OK();  // everything pinned
    if (in_apply_) return Status::OK();  // never release mu_ mid-apply
    // The cache changes while the flush has mu_ released: re-derive
    // everything next round.
    const PageId id = victim->id;
    LLB_RETURN_IF_ERROR(FlushPageLocked(lk, id));
  }
  return Status::OK();
}

Status CacheManager::ReadPage(const PageId& id, PageImage* out) {
  std::unique_lock<std::mutex> lock(mu_);
  Frame* frame = nullptr;
  LLB_RETURN_IF_ERROR(GetFrame(lock, id, &frame));
  *out = frame->image;
  return Status::OK();
}

/// Context for normal execution: reads come from the cache; writes are
/// staged and committed only if the whole operation succeeds.
class CacheManager::CacheOpContext : public OpContext {
 public:
  CacheOpContext(CacheManager* cm, std::unique_lock<std::mutex>* lk)
      : cm_(cm), lk_(lk) {}

  Status Read(const PageId& id, PageImage* out) override {
    auto sit = staged_.find(id);
    if (sit != staged_.end()) {
      *out = sit->second;
      return Status::OK();
    }
    Frame* frame = nullptr;
    LLB_RETURN_IF_ERROR(cm_->GetFrame(*lk_, id, &frame));
    *out = frame->image;
    return Status::OK();
  }

  Status Write(const PageId& id, const PageImage& image) override {
    staged_[id] = image;
    return Status::OK();
  }

  std::unordered_map<PageId, PageImage, PageIdHash>& staged() {
    return staged_;
  }

 private:
  CacheManager* const cm_;
  std::unique_lock<std::mutex>* const lk_;
  std::unordered_map<PageId, PageImage, PageIdHash> staged_;
};

Status CacheManager::ExecuteOp(LogRecord* rec) {
  std::unique_lock<std::mutex> lock(mu_);

  // Enforce the single-partition rule (paper 3.4 tracks backup progress
  // per partition; we preclude cross-partition operations so that flush
  // ordering never spans partitions — see DESIGN.md).
  PartitionId partition = 0;
  bool first = true;
  for (const std::vector<PageId>* set : {&rec->readset, &rec->writeset}) {
    for (const PageId& id : *set) {
      if (first) {
        partition = id.partition;
        first = false;
      } else if (id.partition != partition) {
        return Status::InvalidArgument(
            "operation spans partitions: " + id.ToString());
      }
    }
  }
  if (rec->writeset.empty()) {
    return Status::InvalidArgument("operation writes nothing");
  }

  const bool overlapped = Overlapped();
  std::vector<PageId> pinned;
  auto unpin = [&] {
    for (const PageId& id : pinned) {
      auto it = frames_.find(id);
      if (it != frames_.end() && it->second.pins > 0) --it->second.pins;
    }
    pinned.clear();
  };

  if (overlapped) {
    // Pre-fault and pin the declared pages so apply never misses with
    // the mutex released (faulting can evict, and overlapped eviction
    // unlocks mu_ — which would break the op's linearizability). Then
    // wait until no writeset page is part of an in-flight install: its
    // image is the frozen snapshot being written to S.
    for (;;) {
      for (const std::vector<PageId>* set : {&rec->readset, &rec->writeset}) {
        for (const PageId& id : *set) {
          Frame* frame = nullptr;
          Status s = GetFrame(lock, id, &frame);
          if (!s.ok()) {
            unpin();
            return s;
          }
          ++frame->pins;
          pinned.push_back(id);
        }
      }
      bool conflict = false;
      for (const PageId& id : rec->writeset) {
        if (installing_pages_.count(id) != 0) {
          conflict = true;
          break;
        }
      }
      if (!conflict) break;
      unpin();
      ++stats_.install_waits;
      install_cv_.wait(lock);
    }
  }

  CacheOpContext ctx(this, &lock);
  in_apply_ = overlapped;
  Status applied = registry_->Apply(ctx, *rec);
  in_apply_ = false;
  if (!applied.ok()) {
    unpin();
    return applied;
  }

  // Every writeset member must have been staged; no extras allowed.
  if (ctx.staged().size() != rec->writeset.size()) {
    unpin();
    return Status::Internal("apply wrote a different page set than declared");
  }
  for (const PageId& id : rec->writeset) {
    if (!ctx.staged().count(id)) {
      unpin();
      return Status::Internal("apply missed declared target " + id.ToString());
    }
  }

  // Restoring mode: fault in every writeset page BEFORE the record is
  // appended. Read pages faulted during Apply; blind-write targets did
  // not, and a concurrent Force could seal the record durably before the
  // page's restore/bit became durable — after a crash the fault path
  // would then overwrite the redone value with the backup state.
  // (Overlapped mode pre-faulted the whole writeset above.)
  if (page_fault_handler_ && !overlapped) {
    for (const PageId& id : rec->writeset) {
      Frame* frame = nullptr;
      LLB_RETURN_IF_ERROR(GetFrame(lock, id, &frame));
    }
  }

  Lsn lsn = log_->Append(rec);

  for (auto& [id, image] : ctx.staged()) {
    Frame* frame = nullptr;
    Status s = GetFrame(lock, id, &frame);
    if (!s.ok()) {
      unpin();
      return s;
    }
    frame->image = image;
    frame->image.set_lsn(lsn);
    SetDirty(*frame);
  }
  graph_->OnOperation(*rec);
  ++stats_.ops_applied;
  unpin();
  return Status::OK();
}

void CacheManager::DecideBackupLogging(const InstallUnit& unit,
                                       const BackupProgress& progress,
                                       std::vector<PageId>* to_log) {
  if (!progress.active() || options_.policy == BackupPolicy::kNaive) return;

  if (options_.policy == BackupPolicy::kGeneral) {
    // Paper 3.5: Done(X) or Doubt(X) => Iw/oF; Pend(X) => plain flush.
    // ("Of course, we can flush pending objects to S, and log only the
    // non-pending objects.")
    for (const PageId& x : unit.vars) {
      BackupRegion region = progress.Classify(BackupPositionOf(x));
      ++stats_.decisions;
      switch (region) {
        case BackupRegion::kDone:
          ++stats_.region_done;
          break;
        case BackupRegion::kDoubt:
          ++stats_.region_doubt;
          break;
        case BackupRegion::kPend:
          ++stats_.region_pend;
          break;
      }
      if (region != BackupRegion::kPend) {
        to_log->push_back(x);
        ++stats_.decisions_logged;
      }
    }
    return;
  }

  // Tree policy (paper 4.2, Figure 4). Tree nodes have a single var.
  for (const PageId& x : unit.vars) {
    BackupRegion rx = progress.Classify(BackupPositionOf(x));
    ++stats_.decisions;
    if (unit.has_successors) ++stats_.decisions_succ;
    switch (rx) {
      case BackupRegion::kDone:
        ++stats_.region_done;
        break;
      case BackupRegion::kDoubt:
        ++stats_.region_doubt;
        break;
      case BackupRegion::kPend:
        ++stats_.region_pend;
        break;
    }

    bool log_it = false;
    if (rx == BackupRegion::kPend) {
      ++stats_.tree_plain_pend_x;  // Pend(X): will reach B
    } else if (!unit.has_successors) {
      ++stats_.tree_plain_done_succ;  // S(X) empty: nothing to order against
    } else {
      BackupRegion rs = progress.Classify(unit.max_successor_pos);
      if (rs == BackupRegion::kDone) {
        ++stats_.tree_plain_done_succ;  // Done(S(X)): no successor reaches B
      } else if (rx == BackupRegion::kDone) {
        log_it = true;  // Done(X) & !Done(S(X))
        ++stats_.tree_iwof_done_x;
      } else if (rs == BackupRegion::kPend) {
        log_it = true;  // Doubt(X) & Pend(S(X))
        ++stats_.tree_iwof_pend_succ;
      } else if (unit.violation) {
        log_it = true;  // Doubt & Doubt, dagger fails
        ++stats_.tree_iwof_doubt_viol;
      } else {
        ++stats_.tree_plain_doubt_ok;  // Doubt & Doubt, dagger holds
      }
    }
    if (log_it) {
      to_log->push_back(x);
      ++stats_.decisions_logged;
      if (unit.has_successors) ++stats_.decisions_succ_logged;
    }
  }
}

Status CacheManager::InstallUnitLocked(std::unique_lock<std::mutex>& lk,
                                       const InstallUnit& unit) {
  if (unit.vars.empty()) {
    graph_->MarkInstalled(unit.node_id);
    return Status::OK();
  }
  PartitionId partition = unit.vars[0].partition;
  for (const PageId& x : unit.vars) {
    if (x.partition != partition) {
      return Status::Internal("install unit spans partitions");
    }
  }

  BackupProgress* progress =
      coordinator_ != nullptr ? coordinator_->Get(partition) : nullptr;

  // Hold the backup latch (share mode) across decide + log + flush so the
  // fences cannot move mid-install (paper 3.4, Synchronization).
  std::shared_lock<std::shared_mutex> latch;
  if (progress != nullptr) {
    latch = std::shared_lock<std::shared_mutex>(progress->latch());
  }

  std::vector<PageId> to_log;
  if (progress != nullptr) DecideBackupLogging(unit, *progress, &to_log);

  // Iw/oF: identity-write the chosen pages — their values go to the media
  // recovery log, installing their operations in B without relying on the
  // sweep (paper 3.2).
  for (const PageId& x : to_log) {
    Frame* frame = nullptr;
    LLB_RETURN_IF_ERROR(GetFrame(lk, x, &frame));
    LogRecord wip = MakeIdentityWrite(x, frame->image);
    Lsn lsn = log_->Append(&wip);
    graph_->OnIdentityWrite(x, lsn);
    frame->image.set_lsn(lsn);
    ++stats_.identity_writes;
  }

  // WAL: the operations being installed (and the identity writes) must be
  // durable before their effects reach the stable database.
  LLB_RETURN_IF_ERROR(log_->Force());

  // Atomically flush vars(n). (The paper flushes identity-written pages
  // too before dropping them: "we both log and flush X".)
  std::vector<PageStore::Entry> batch;
  batch.reserve(unit.vars.size());
  for (const PageId& x : unit.vars) {
    Frame* frame = nullptr;
    LLB_RETURN_IF_ERROR(GetFrame(lk, x, &frame));
    batch.push_back(PageStore::Entry{x, frame->image});
  }
  LLB_RETURN_IF_ERROR(stable_->WriteBatchAtomic(batch));

  std::vector<Frame*> cleaned;
  cleaned.reserve(unit.vars.size());
  for (const PageId& x : unit.vars) {
    auto it = frames_.find(x);
    if (it != frames_.end()) cleaned.push_back(&it->second);
    if (tracker_ != nullptr) tracker_->OnPageFlushed(x);
  }
  SetClean(cleaned);
  graph_->MarkInstalled(unit.node_id);
  ++stats_.node_installs;
  stats_.pages_flushed += unit.vars.size();
  return Status::OK();
}

Status CacheManager::InstallPlanOverlapped(
    std::unique_lock<std::mutex>& lk, const std::vector<InstallUnit>& plan) {
  PartitionId partition = 0;
  bool have_partition = false;
  for (const InstallUnit& unit : plan) {
    for (const PageId& x : unit.vars) {
      if (!have_partition) {
        partition = x.partition;
        have_partition = true;
      } else if (x.partition != partition) {
        return Status::Internal("install plan spans partitions");
      }
    }
  }

  BackupProgress* progress = (coordinator_ != nullptr && have_partition)
                                 ? coordinator_->Get(partition)
                                 : nullptr;

  // The backup latch (share mode) is held from the Iw/oF decision until
  // the images land on S — phases 1 and 2 — so the fences cannot move in
  // between and the Done/Doubt/Pend classification stays valid at write
  // time. It is released BEFORE phase 3 retakes the cache mutex: the
  // protocol obligation ends with the S write, and a latch holder that
  // waited on the mutex could deadlock three ways with a mutex holder
  // entering phase 1 behind the backup job's queued exclusive fence
  // update (writer-preferring rwlock).
  std::shared_lock<std::shared_mutex> latch;
  if (progress != nullptr) {
    latch = std::shared_lock<std::shared_mutex>(progress->latch());
  }

  struct PendingInstall {
    uint64_t node_id = 0;
    std::vector<PageStore::Entry> batch;
  };
  std::vector<PendingInstall> pending;
  pending.reserve(plan.size());
  Epoch wait_epoch = kInvalidEpoch;

  auto clear_marks = [&] {
    for (const PendingInstall& pi : pending) {
      for (const PageStore::Entry& entry : pi.batch) {
        installing_pages_.erase(entry.id);
      }
      installing_nodes_.erase(pi.node_id);
      graph_->EndInstall(pi.node_id);
    }
    install_cv_.notify_all();
  };

  // Phase 1 (cache mutex held): decide + append Iw records + snapshot the
  // images to write + mark every unit installing. A planned node's vars
  // are dirty and therefore resident, so lookups must hit.
  for (const InstallUnit& unit : plan) {
    std::vector<PageId> to_log;
    if (progress != nullptr) DecideBackupLogging(unit, *progress, &to_log);

    for (const PageId& x : to_log) {
      auto it = frames_.find(x);
      if (it == frames_.end()) {
        clear_marks();
        return Status::Internal("installing page not resident: " +
                                x.ToString());
      }
      ++stats_.hits;
      Touch(it->second);
      Frame* frame = &it->second;
      LogRecord wip = MakeIdentityWrite(x, frame->image);
      Epoch epoch = kInvalidEpoch;
      Lsn lsn = log_->Append(&wip, &epoch);
      graph_->OnIdentityWrite(x, lsn);
      frame->image.set_lsn(lsn);
      ++stats_.identity_writes;
      wait_epoch = std::max(wait_epoch, epoch);
    }

    PendingInstall pi;
    pi.node_id = unit.node_id;
    pi.batch.reserve(unit.vars.size());
    for (const PageId& x : unit.vars) {
      auto it = frames_.find(x);
      if (it == frames_.end()) {
        clear_marks();
        return Status::Internal("installing page not resident: " +
                                x.ToString());
      }
      ++stats_.hits;
      Touch(it->second);
      pi.batch.push_back(PageStore::Entry{x, it->second.image});
    }
    for (const PageId& x : unit.vars) installing_pages_.insert(x);
    installing_nodes_.insert(unit.node_id);
    // Freeze the node's identity in the graph for the unlocked phase 2:
    // a cycle collapse merging it would make phase 3's MarkInstalled
    // retire operations whose pages were never part of this snapshot.
    graph_->BeginInstall(unit.node_id);
    pending.push_back(std::move(pi));
  }
  ++stats_.overlapped_installs;

  // Phase 2 (cache mutex released, backup latch still shared): wait for
  // the epoch watermark to cover the installed operations and their Iw
  // records — "the epoch containing the Iw record has been published" is
  // the commit point — then write the frozen images to S. Concurrent
  // installers piggyback on one group commit's single sync.
  lk.unlock();
  if (wait_epoch == kInvalidEpoch) wait_epoch = log_->CurrentEpoch();
  Status s = log_->WaitEpochDurable(wait_epoch);
  if (s.ok()) {
    for (const PendingInstall& pi : pending) {
      if (pi.batch.empty()) continue;
      s = stable_->WriteBatchAtomic(pi.batch);
      if (!s.ok()) break;
    }
  }
  // The fence obligation ends once the images are on S; phase 3 is pure
  // in-memory bookkeeping. Drop the latch BEFORE re-taking the cache
  // mutex: waiting on mu_ while holding the latch shared would deadlock
  // with a mu_ holder entering phase 1 behind the backup job's queued
  // exclusive fence update (writer-preferring rwlock).
  if (latch.owns_lock()) latch.unlock();
  lk.lock();

  // Phase 3 (cache mutex re-held): mark pages clean and nodes installed,
  // wake writers and planners that waited on these units.
  if (!s.ok()) {
    clear_marks();
    return s;
  }
  std::vector<Frame*> cleaned;
  for (const PendingInstall& pi : pending) {
    for (const PageStore::Entry& entry : pi.batch) {
      auto it = frames_.find(entry.id);
      if (it != frames_.end()) cleaned.push_back(&it->second);
      if (tracker_ != nullptr) tracker_->OnPageFlushed(entry.id);
      installing_pages_.erase(entry.id);
    }
    graph_->MarkInstalled(pi.node_id);
    installing_nodes_.erase(pi.node_id);
    graph_->EndInstall(pi.node_id);
    ++stats_.node_installs;
    stats_.pages_flushed += pi.batch.size();
  }
  SetClean(cleaned);
  install_cv_.notify_all();
  return Status::OK();
}

Status CacheManager::FlushPageLocked(std::unique_lock<std::mutex>& lk,
                                     const PageId& x) {
  if (!Overlapped()) {
    if (!graph_->IsTracked(x)) {
      auto it = frames_.find(x);
      if (it != frames_.end() && it->second.dirty) {
        return Status::Internal("dirty page not tracked by write graph: " +
                                x.ToString());
      }
      return Status::OK();
    }
    std::vector<InstallUnit> plan;
    LLB_RETURN_IF_ERROR(graph_->PlanInstall(x, &plan));
    for (const InstallUnit& unit : plan) {
      LLB_RETURN_IF_ERROR(InstallUnitLocked(lk, unit));
    }
    return Status::OK();
  }

  // Overlapped mode: a plan touching a node already mid-install waits for
  // it to finish (its pages come out clean), then re-plans — the graph
  // may have changed while waiting.
  for (;;) {
    if (!graph_->IsTracked(x)) {
      auto it = frames_.find(x);
      if (it != frames_.end() && it->second.dirty) {
        if (installing_pages_.count(x) != 0) {
          // Mid-install: phase 1 already logged the page's Iw (untracking
          // it) but phase 3 has not marked the frame clean yet. Wait for
          // the installer rather than treating the state as corruption.
          ++stats_.install_waits;
          install_cv_.wait(lk);
          continue;
        }
        return Status::Internal("dirty page not tracked by write graph: " +
                                x.ToString());
      }
      return Status::OK();
    }
    std::vector<InstallUnit> plan;
    LLB_RETURN_IF_ERROR(graph_->PlanInstall(x, &plan));
    bool busy = false;
    for (const InstallUnit& unit : plan) {
      if (installing_nodes_.count(unit.node_id) != 0) {
        busy = true;
        break;
      }
    }
    if (!busy) return InstallPlanOverlapped(lk, plan);
    ++stats_.install_waits;
    install_cv_.wait(lk);
  }
}

Status CacheManager::FlushPage(const PageId& x) {
  std::unique_lock<std::mutex> lock(mu_);
  return FlushPageLocked(lock, x);
}

Status CacheManager::FlushAll() {
  std::unique_lock<std::mutex> lock(mu_);
  // Install the coldest dirty page's node until no dirty page remains;
  // each install takes every page of its node off dirty_.
  while (!dirty_.empty()) {
    const PageId x = dirty_.back()->id;
    LLB_RETURN_IF_ERROR(FlushPageLocked(lock, x));
  }
  return log_->Force();
}

Status CacheManager::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  LogRecord rec;
  rec.op_code = kOpCheckpoint;
  PutFixed64(&rec.payload, graph_->RedoStartLsn(log_->next_lsn()));
  // Checkpoints have no page writes; give them an empty writeset by
  // bypassing ExecuteOp.
  log_->Append(&rec);
  return log_->Force();
}

Lsn CacheManager::RedoStartLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_->RedoStartLsn(log_->next_lsn());
}

Status CacheManager::DropCleanPages() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = clean_.begin(); it != clean_.end();) {
    Frame* frame = *it++;
    if (frame->pins == 0) {
      const PageId id = frame->id;
      clean_.erase(frame->pos);
      frames_.erase(id);
    }
  }
  return Status::OK();
}

CacheStats CacheManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

WriteGraphStats CacheManager::GraphStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_->GetStats();
}

void CacheManager::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = CacheStats{};
}

size_t CacheManager::CachedPageCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_.size();
}

bool CacheManager::IsDirty(const PageId& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(id);
  return it != frames_.end() && it->second.dirty;
}

bool CacheManager::IsCached(const PageId& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_.count(id) != 0;
}

Status CacheManager::CheckFrameLists() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (clean_.size() + dirty_.size() != frames_.size()) {
    return Status::Internal("recency lists do not cover the frames");
  }
  for (const std::list<Frame*>* list : {&clean_, &dirty_}) {
    const bool dirty = list == &dirty_;
    uint64_t newer = UINT64_MAX;
    for (auto it = list->begin(); it != list->end(); ++it) {
      const Frame* frame = *it;
      auto found = frames_.find(frame->id);
      if (found == frames_.end() || &found->second != frame ||
          frame->pos != it) {
        return Status::Internal("stale list entry for " + frame->id.ToString());
      }
      if (frame->dirty != dirty) {
        return Status::Internal("frame " + frame->id.ToString() +
                                " is in the wrong recency list");
      }
      if (frame->tick >= newer) {
        return Status::Internal("recency list out of touch order at " +
                                frame->id.ToString());
      }
      newer = frame->tick;
    }
  }
  return Status::OK();
}

}  // namespace llb
