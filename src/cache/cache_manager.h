#ifndef LLB_CACHE_CACHE_MANAGER_H_
#define LLB_CACHE_CACHE_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "backup/backup_progress.h"
#include "backup/incremental_tracker.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "ops/op_registry.h"
#include "recovery/write_graph.h"
#include "storage/page_store.h"
#include "wal/log_manager.h"

namespace llb {

/// How flushes coordinate with an active backup.
enum class BackupPolicy {
  /// No coordination — the conventional fuzzy dump. Correct only for
  /// page-oriented operations; with logical operations the backup can be
  /// unrecoverable (the paper's Figure 1 problem).
  kNaive,
  /// Paper section 3: Iw/oF (identity-write logging) for every flushed
  /// object that is not known to be Pending.
  kGeneral,
  /// Paper section 4: tree-operation case analysis over (#X, #S(X)),
  /// logging only in the shaded region of Figure 4.
  kTree,
};

struct CacheOptions {
  size_t capacity_pages = 1024;
  BackupPolicy policy = BackupPolicy::kGeneral;
};

/// Counters used by the test suite and by the benchmarks that regenerate
/// the paper's figures.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t ops_applied = 0;
  uint64_t node_installs = 0;
  uint64_t pages_flushed = 0;
  uint64_t identity_writes = 0;  // Iw/oF page loggings

  // Overlapped-install path (log channels > 1): installs that released
  // the cache mutex for their durability wait + stable write, and the
  // times an operation or flush had to wait for an in-flight install.
  uint64_t overlapped_installs = 0;
  uint64_t install_waits = 0;

  // Per-object flush decisions while a backup is active (Figure 5's
  // Prob{log} = decisions_logged / decisions).
  uint64_t decisions = 0;
  uint64_t decisions_logged = 0;
  // Restricted to objects with a nonempty successor set S(X) — matches
  // the section-5.2 model's "|S(X)| = 1" assumption (tree policy only).
  uint64_t decisions_succ = 0;
  uint64_t decisions_succ_logged = 0;

  // Region tallies of decided objects (Figure 3).
  uint64_t region_done = 0;
  uint64_t region_doubt = 0;
  uint64_t region_pend = 0;

  // Tree-policy case tallies (Figure 4's six regions).
  uint64_t tree_plain_pend_x = 0;        // Pend(X)
  uint64_t tree_plain_done_succ = 0;     // Done(S(X)) (or no successors)
  uint64_t tree_plain_doubt_ok = 0;      // Doubt&Doubt, dagger holds
  uint64_t tree_iwof_done_x = 0;         // Done(X) & !Done(S(X))
  uint64_t tree_iwof_pend_succ = 0;      // Doubt(X) & Pend(S(X))
  uint64_t tree_iwof_doubt_viol = 0;     // Doubt&Doubt, violation
};

/// The cache manager: a buffer pool whose flushing obeys the write graph,
/// extended with the paper's backup-aware flush path (section 3.5):
///
///   Done(X) / Doubt(X): install via Iw/oF — log an identity write of X
///     (putting its value on the media recovery log), then flush X to S.
///   Pend(X): just flush — the value will reach B when the sweep passes.
///
/// The whole per-node decision+log+flush sequence runs under the
/// partition's backup latch in share mode, so the fences cannot move
/// mid-flush.
///
/// Thread-safe; operations are serialized by an internal mutex. The
/// backup job runs concurrently, touching only the page stores and the
/// backup latches.
class CacheManager {
 public:
  CacheManager(PageStore* stable, LogManager* log, const OpRegistry* registry,
               std::unique_ptr<WriteGraph> graph,
               BackupCoordinator* coordinator, IncrementalTracker* tracker,
               CacheOptions options);

  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  /// Reads the current image of a page (through the cache).
  Status ReadPage(const PageId& id, PageImage* out);

  /// Installs (nullptr clears) the page-fault handler a restoring-mode
  /// database wires to its InstantRestorer: invoked on every cache miss,
  /// before the page is read from S, so a not-yet-restored page is
  /// restored on demand first. While a handler is installed, ExecuteOp
  /// additionally pre-faults each operation's writeset before logging it
  /// — a blind write's record must not become durable (a concurrent
  /// Force can seal it) before the page it overwrites is durably
  /// restored and marked, or a crash would let the fault path clobber
  /// the redone value. Takes the cache mutex: installation/removal
  /// excludes in-flight faults (lock order cache -> restorer).
  void SetPageFaultHandler(std::function<Status(const PageId&)> handler);

  /// Executes an operation: applies it to the cached pages via its
  /// registered apply function, assigns its LSN, logs it, and registers
  /// it with the write graph. On return *rec carries the assigned LSN.
  Status ExecuteOp(LogRecord* rec);

  /// Installs the node owning `x` (flushing predecessors first), making
  /// x clean. No-op if x is not dirty.
  Status FlushPage(const PageId& x);

  /// Installs every uninstalled node (in dependency order) and forces the
  /// log.
  Status FlushAll();

  /// Writes a fuzzy checkpoint record (no flushing).
  Status Checkpoint();

  /// Current redo-scan start point.
  Lsn RedoStartLsn() const;

  /// Drops every clean page; fails if dirty pages remain (test hook).
  Status DropCleanPages();

  CacheStats stats() const;
  void ResetStats();

  /// Write-graph counters under the cache mutex: the graph mutates inside
  /// ExecuteOp/flush (which hold mu_), so an unlocked GetStats from a
  /// monitoring thread would race.
  WriteGraphStats GraphStats() const;

  /// Unlocked reference; callers must not race with operations/flushes.
  const WriteGraph& graph() const { return *graph_; }
  size_t CachedPageCount() const;
  bool IsDirty(const PageId& id) const;
  bool IsCached(const PageId& id) const;

  /// Test hook: checks that every frame sits in exactly the recency list
  /// its dirty flag names, and that both lists are ordered by last touch.
  Status CheckFrameLists() const;

 private:
  struct Frame {
    PageImage image;
    PageId id;
    bool dirty = false;
    uint32_t pins = 0;  // pinned frames are never evicted
    uint64_t tick = 0;  // clock_ value of the last touch
    std::list<Frame*>::iterator pos;  // in dirty_ if dirty, else clean_
  };

  class CacheOpContext;

  /// True when the log has >1 channel: installs overlap their durability
  /// wait and stable write with other operations (the cache mutex is
  /// released for phase 2). With one channel every path is the classic
  /// fully-serialized one — byte-identical behavior.
  bool Overlapped() const { return log_->channels() > 1; }

  Status GetFrame(std::unique_lock<std::mutex>& lk, const PageId& id,
                  Frame** frame);
  Status EnsureRoom(std::unique_lock<std::mutex>& lk);
  Status InstallUnitLocked(std::unique_lock<std::mutex>& lk,
                           const InstallUnit& unit);
  Status FlushPageLocked(std::unique_lock<std::mutex>& lk, const PageId& x);
  /// Overlapped install of a whole plan: phase 1 under the cache mutex
  /// (decide + Iw appends + image snapshots + mark units installing),
  /// phase 2 with the mutex released but the partition backup latch still
  /// held in share mode (epoch-watermark wait + stable writes), phase 3
  /// re-acquired (mark clean/installed, wake waiters).
  Status InstallPlanOverlapped(std::unique_lock<std::mutex>& lk,
                               const std::vector<InstallUnit>& plan);

  std::list<Frame*>& ListOf(const Frame& frame) {
    return frame.dirty ? dirty_ : clean_;
  }
  /// Makes `frame` the most recent page of its list.
  void Touch(Frame& frame);
  /// The only writers of Frame::dirty: each moves the frame between the
  /// recency lists at its last-touch position. SetClean takes a batch and
  /// merges it into clean_ in one pass.
  void SetDirty(Frame& frame);
  void SetClean(const std::vector<Frame*>& frames);
  void Evict(Frame& frame);

  /// Decides which vars of the unit need Iw/oF logging given backup
  /// progress (called with the partition backup latch held in share
  /// mode). Appends the pages to identity-write to *to_log.
  void DecideBackupLogging(const InstallUnit& unit,
                           const BackupProgress& progress,
                           std::vector<PageId>* to_log);

  PageStore* const stable_;
  LogManager* const log_;
  const OpRegistry* const registry_;
  const std::unique_ptr<WriteGraph> graph_;
  BackupCoordinator* const coordinator_;  // may be null
  IncrementalTracker* const tracker_;     // may be null
  const CacheOptions options_;

  mutable std::mutex mu_;
  std::function<Status(const PageId&)> page_fault_handler_;
  std::unordered_map<PageId, Frame, PageIdHash> frames_;
  // Recency lists over frames_, front = most recently touched: a frame is
  // in dirty_ iff it is dirty. Eviction takes the coldest unpinned clean
  // frame, else the coldest unpinned dirty one, without scanning past the
  // dirty frames that collect at the cold end.
  std::list<Frame*> clean_;
  std::list<Frame*> dirty_;
  uint64_t clock_ = 0;
  CacheStats stats_;

  // Overlapped-install bookkeeping (log channels > 1). While a plan is
  // in phase 2 its nodes/pages are marked here: writes to a marked page
  // and installs of a marked node wait on install_cv_ (reads stay
  // allowed — the installing image is frozen). in_apply_ is set while an
  // operation's apply function runs so a nested cache miss never
  // releases the mutex mid-apply (eviction falls back to clean pages or
  // a transient capacity overrun).
  std::unordered_set<uint64_t> installing_nodes_;
  std::unordered_set<PageId, PageIdHash> installing_pages_;
  std::condition_variable install_cv_;
  bool in_apply_ = false;
};

}  // namespace llb

#endif  // LLB_CACHE_CACHE_MANAGER_H_
