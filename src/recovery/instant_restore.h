#ifndef LLB_RECOVERY_INSTANT_RESTORE_H_
#define LLB_RECOVERY_INSTANT_RESTORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "io/backup_codec.h"
#include "io/env.h"
#include "ops/op_registry.h"
#include "recovery/media_recovery.h"
#include "storage/page_store.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace llb {

struct InstantRestoreOptions {
  /// Pages per bulk device IO when seeding closures from backup carriers
  /// and when installing restored pages into S (the restore's K,
  /// mirroring RestoreOptions::batch_pages).
  uint32_t batch_pages = 32;
  /// Deep-queue asynchronous IO for the seed (carrier reads) and install
  /// (S writes) transfers, mirroring RestoreOptions::queue_depth (only
  /// effective with batch_pages > 1; <= 1 keeps the synchronous path).
  uint32_t queue_depth = 0;
  /// Soft cap on pages per background Step: the step's seed batch (its
  /// dependency closure may pull in a few more).
  uint32_t step_pages = 64;
};

/// Per-page record chains over a media-recovery slice, in CSR form: the
/// slice positions of the records writing the page with restored-bitmap
/// index i are records[begin[i] .. begin[i + 1]), ascending. Built once
/// from the immutable slice snapshot, so a closure walk reads only the
/// history of the pages it visits.
struct PageChains {
  uint32_t pages_per_partition = 0;
  std::vector<size_t> begin;    // total_pages + 1 offsets into records
  std::vector<size_t> records;  // slice positions, ascending per page

  /// Two counting passes over the slice. Corruption when a record names
  /// a page outside the partitions x pages_per_partition geometry: no
  /// backup covers it, and its index would alias another page's bit.
  static Result<PageChains> Build(const std::vector<LogRecord>& slice,
                                  uint32_t partitions,
                                  uint32_t pages_per_partition);

  uint64_t Index(const PageId& id) const {
    return uint64_t{id.partition} * pages_per_partition + id.page;
  }
};

/// What restoring one seed set does with the slice.
struct ClosurePlan {
  /// The influence closure, sorted: the least page set containing the
  /// seeds such that every record writing one of its pages has its whole
  /// readset and writeset inside it.
  std::vector<PageId> pages;
  /// Slice positions of the newest single-page identity write of each
  /// closure page that has one, in page order.
  std::vector<size_t> identity_seeds;
  /// Slice positions of the non-identity records writing closure pages,
  /// ascending (slice order).
  std::vector<size_t> replay;
};

/// Plans a closure restore by a worklist over the closure pages' chains:
/// each record on a visited page's chain adds its readset and writeset.
/// Every seed must lie inside the chains' geometry.
ClosurePlan PlanClosure(const std::vector<LogRecord>& slice,
                        const PageChains& chains,
                        const std::vector<PageId>& seeds);

/// Progress snapshot of an in-flight instant restore.
struct RestoreStatus {
  bool restoring = false;
  bool complete = false;
  uint64_t pages_total = 0;
  uint64_t pages_restored = 0;  // restored-bitmap population
  /// Pages restored by the on-demand fault path (including the
  /// dependency pages its closures pulled in).
  uint64_t pages_faulted = 0;
  /// Of pages_faulted, the extra dependency pages beyond the faulting
  /// pages themselves (closure overhead of logical operations).
  uint64_t closure_pages = 0;
  /// Pages restored by the background sweep.
  uint64_t sweep_pages = 0;
  uint64_t bitmap_saves = 0;
  /// Records in the media-recovery slice, and how many of them faults and
  /// steps have applied so far (identity seeds plus replayed operations;
  /// a record counts once per closure restore that applies it).
  uint64_t slice_records = 0;
  uint64_t records_replayed = 0;
  /// Log tail frozen at the first restoring open; the media-recovery
  /// slice replays through here, crash redo resumes after it.
  Lsn recovery_tail = kInvalidLsn;
  double fraction = 0.0;  // pages_restored / pages_total
  /// Estimated microseconds of background sweeping left, extrapolated
  /// from the sweep's cumulative per-page rate (0 until the first
  /// productive step).
  uint64_t eta_us = 0;
};

/// The single-page and background phases of media recovery: brings a
/// wiped stable database back page by page while transactions run.
///
/// Discipline (DESIGN.md section 5e):
///
///  * A persisted restored-bitmap (DurableCursor cell) records which
///    pages of S are durably restored. A set bit is a *promise* — the
///    page's media-recovery state is in S — so bits are set in memory
///    only after the page is durably installed, and persisted afterwards
///    (crash in between re-restores idempotently; the same Done/Doubt
///    discipline as the backup fence: conservative, never optimistic).
///  * `recovery_tail` is the durable log tail captured at the FIRST
///    restoring open and pinned in the bitmap cell before any new
///    transaction appends. Records at or below it form the
///    media-recovery slice; records above it are new work. Because a
///    page fault durably restores (and durably marks) every page a
///    transaction touches before the transaction's record can become
///    durable, every record above the tail touches only restored pages —
///    which is what makes plain crash redo from recovery_tail + 1 sound
///    over a half-restored store.
///  * A fault on page X cannot simply replay X's log records in
///    isolation: logical operations recompute their writes from readset
///    pages at historical states. Instead the restorer computes X's
///    *influence closure* (least fixpoint: any record writing a closure
///    page contributes its whole readset and writeset) by walking the
///    per-page record chains (PageChains), seeds the closure from the
///    newest backup carriers into a private in-memory scratch overlay,
///    replays the closure's records (identity-seeded, LSN-tested —
///    exactly RunRedoRange's semantics), and installs into S only the
///    closure pages whose bit is still clear (set pages may already be
///    newer than the slice state; they are never clobbered). Physical
///    and physiological operations have singleton closures, so the
///    common fault costs one carrier read plus the replay of that page's
///    own records; the worst case degrades to restoring a partition's
///    whole dependency web — never to wrong answers.
///
/// Thread-safety: RestoreOnFault runs under the cache mutex (as the
/// cache's page-fault handler) and takes the restorer mutex; Step takes
/// only the restorer mutex. Lock order is therefore cache -> restorer,
/// never reversed — the restorer never calls into the cache. A fault
/// that arrives while a background step holds the mutex raises
/// `faults_waiting_`, which the step's TransferOptions::pause hook
/// observes between runs, stopping the sweep early so the fault gets in.
/// A step also waits for the count to reach zero before it starts, so a
/// sweep loop cannot re-take the mutex ahead of the fault it yielded to.
class InstantRestorer {
 public:
  static Result<std::unique_ptr<InstantRestorer>> Open(
      Env* env, const std::string& bitmap_name, const std::string& backup_name,
      const OpRegistry& registry, PageStore* stable, LogManager* log,
      const InstantRestoreOptions& options = {});

  /// Decodes a persisted restored-bitmap cell into a progress snapshot
  /// without opening the restore (read-only; for status tooling). Fills
  /// *backup_name (when non-null) with the chain the restore is pinned
  /// to. NotFound when no restore is in progress.
  static Result<RestoreStatus> InspectBitmap(Env* env,
                                             const std::string& bitmap_name,
                                             std::string* backup_name);

  InstantRestorer(const InstantRestorer&) = delete;
  InstantRestorer& operator=(const InstantRestorer&) = delete;

  /// The prioritized single-page phase (cache page-fault handler): if
  /// `id` is not yet restored, restores its influence closure into S and
  /// persists the bitmap before returning. No-op for restored pages.
  Status RestoreOnFault(const PageId& id);

  /// The background phase: restores (up to) the next
  /// options.step_pages not-yet-restored pages plus their closure,
  /// yielding early if a fault is waiting. Returns the number of pages
  /// durably restored this step; 0 with complete() false means the step
  /// yielded before moving anything.
  Result<uint64_t> Step();

  /// Runs Step until every page is restored.
  Status Drain();

  /// Crash redo for work accepted during a previous restoring session:
  /// replays records after recovery_tail against S. Safe over a
  /// half-restored store (see class comment); call once after Open,
  /// before serving transactions.
  Status ResumeRedo();

  /// True once every page's bit is set.
  bool complete() const;

  /// Removes the bitmap cell. Call only when complete; idempotent.
  Status Finalize();

  Lsn recovery_tail() const { return recovery_tail_; }
  /// Geometry from the backup chain's base manifest (callers validate
  /// their own options against it).
  uint32_t partitions() const { return partitions_; }
  uint32_t pages_per_partition() const { return pages_per_partition_; }
  RestoreStatus status() const;

 private:
  InstantRestorer(Env* env, std::string bitmap_name, std::string backup_name,
                  const OpRegistry& registry, PageStore* stable,
                  LogManager* log, const InstantRestoreOptions& options,
                  RestoreChainPlan plan);

  Status Init();
  Status SaveBitmapLocked();

  bool TestBitLocked(const PageId& id) const {
    uint64_t pos = chains_.Index(id);
    return (bits_[pos >> 3] & (1u << (pos & 7))) != 0;
  }
  void SetBitLocked(const PageId& id);

  /// Closure computation + scratch-overlay replay + install of the
  /// not-yet-restored closure pages. `pause` (may be null) is threaded
  /// into the install pipeline. *installed receives the pages durably
  /// installed (also on pause / partial failure).
  Status RestoreClosureLocked(const std::vector<PageId>& seeds,
                              const std::function<bool()>& pause,
                              uint64_t* installed);

  Env* const env_;
  const std::string bitmap_name_;
  const std::string backup_name_;
  const OpRegistry& registry_;
  PageStore* const stable_;
  LogManager* const log_;
  const InstantRestoreOptions options_;

  RestoreChainPlan plan_;
  std::vector<std::unique_ptr<PageStore>> carriers_;  // one per chain member
  /// Decodes format-v2 frame pages on the carrier -> scratch seed path
  /// (v1 pages pass through untouched). Created in Init once the chain
  /// geometry is known.
  std::unique_ptr<codec::FrameDecoder> decoder_;
  uint32_t partitions_ = 0;
  uint32_t pages_per_partition_ = 0;
  uint64_t total_pages_ = 0;
  Lsn recovery_tail_ = kInvalidLsn;
  /// In-memory snapshot of the media-recovery slice
  /// [newest.start_lsn, recovery_tail], taken at Open before any new
  /// appends, and its per-page record chains. Closures and replays read
  /// these, never the live log.
  std::vector<LogRecord> slice_;
  PageChains chains_;

  /// Faults blocked on mu_ while a background step runs; the step's
  /// pause hook polls this to yield, and a step starts only once it is
  /// zero (signalled by faults_admitted_).
  std::atomic<uint32_t> faults_waiting_{0};

  mutable std::mutex mu_;
  std::condition_variable faults_admitted_;
  std::vector<uint8_t> bits_;
  uint64_t restored_count_ = 0;
  uint64_t faulted_pages_ = 0;
  uint64_t closure_extra_pages_ = 0;
  uint64_t sweep_pages_ = 0;
  uint64_t bitmap_saves_ = 0;
  uint64_t records_replayed_ = 0;
  uint64_t sweep_us_ = 0;
};

}  // namespace llb

#endif  // LLB_RECOVERY_INSTANT_RESTORE_H_
