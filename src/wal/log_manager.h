#ifndef LLB_WAL_LOG_MANAGER_H_
#define LLB_WAL_LOG_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "io/env.h"
#include "wal/log_channel.h"
#include "wal/log_record.h"
#include "wal/log_writer.h"

namespace llb {

/// Per-operation-class logging statistics, used by the benchmarks to
/// measure the extra logging the backup protocol induces (paper section 5).
struct LogStats {
  uint64_t records = 0;
  uint64_t identity_records = 0;  // W_IP records: the Iw/oF "extra logging"
  uint64_t bytes = 0;
  uint64_t identity_bytes = 0;
  uint64_t forces = 0;
  uint64_t group_commits = 0;  // epoch seals that wrote + synced channels
};

/// One sealed log segment: the contiguous run of framed records a single
/// successful Force() made durable. The log is one file, so a "segment"
/// is a byte range, not a separate file; seq numbers seals densely within
/// one LogManager session (they restart at 1 after reopen — cross-session
/// continuity is the ship cursor's job, keyed by LSN).
struct SealedSegment {
  uint64_t seq = 0;
  /// The group-commit epoch this seal published (kInvalidEpoch for seals
  /// that are not commit points, e.g. TruncatePrefix's internal force).
  /// Informational for observers; the shipping path keys on LSN only.
  Epoch epoch = kInvalidEpoch;
  Lsn first_lsn = kInvalidLsn;
  Lsn last_lsn = kInvalidLsn;
  std::string bytes;  // framed records, appendable to another log verbatim
};

/// Sparse in-memory LSN -> byte-offset index over the log file (DESIGN.md
/// §3, "Log index"). An entry (lsn, offset) means the record with that
/// LSN starts at byte `offset`. Entries ascend in both fields and sit at
/// least kStride bytes apart, so a scan seeks to within one stride of its
/// start LSN and the index holds one entry per stride of log.
class LogIndex {
 public:
  struct Entry {
    Lsn lsn = kInvalidLsn;
    uint64_t offset = 0;
  };

  static constexpr uint64_t kStride = 16 << 10;

  /// Records that `lsn` starts at byte `offset`, if that opens a new
  /// stride. Callers add in file order.
  void Add(Lsn lsn, uint64_t offset) {
    if (entries_.empty() || offset >= entries_.back().offset + kStride) {
      entries_.push_back(Entry{lsn, offset});
    }
  }

  /// The last entry with lsn <= `lsn`; {kInvalidLsn, 0} (the file start)
  /// when there is none.
  Entry Seek(Lsn lsn) const;

  /// The LSN of the record at byte 0, kInvalidLsn if none is indexed.
  Lsn FirstLsn() const {
    return !entries_.empty() && entries_.front().offset == 0
               ? entries_.front().lsn
               : kInvalidLsn;
  }

 private:
  std::vector<Entry> entries_;
};

/// Tuning knobs for the WAL append path.
struct LogManagerOptions {
  /// Number of per-thread log channels. 1 (the default) keeps the classic
  /// single-mutex append path — byte-identical log file, identical
  /// locking. >1 shards appends across channels; records become durable
  /// in (epoch, LSN) order at the next group commit.
  uint32_t channels = 1;
  /// When >0 (and channels > 1), a background advancer closes the open
  /// epoch and group-commits every interval; WaitEpochDurable() then
  /// blocks on the watermark instead of leading a commit itself. 0 means
  /// caller-driven: the first waiter leads the commit and concurrent
  /// waiters piggyback on its single sync.
  uint32_t group_commit_interval_us = 0;
};

/// Owns the recovery log: assigns LSNs, appends records, forces them
/// durable (WAL), and scans them for redo. The same log serves crash
/// recovery and media recovery ("maintaining the media recovery log is
/// conventional", paper section 1); media recovery simply scans from the
/// start point recorded when its backup began.
///
/// With channels > 1 the append path is sharded: each appender thread is
/// bound round-robin to a LogChannel and only contends on its channel's
/// mutex plus a tiny (lsn, epoch) issuance lock. A group commit closes
/// the open epoch E, drains every channel's records for epochs <= E,
/// merges them by LSN into the single log file (byte format unchanged),
/// syncs once, and publishes durable_epoch = E — the commit point. The
/// fence protocol's "identity write durable before flush to S" becomes
/// "the epoch containing the Iw record has been published".
class LogManager {
 public:
  /// Observes segment seals. Invoked after the seal is durable (the
  /// force's sync succeeded), under the log mutex: observers must be
  /// quick and must not call back into the LogManager (enqueue and
  /// return — the shipper's pattern).
  using SealObserver = std::function<void(const SealedSegment&)>;

  /// Opens (creating if needed) the log, scanning any existing durable
  /// records to find the next LSN to assign. A torn or corrupt tail is
  /// cut off, so new records follow the last valid one.
  static Result<std::unique_ptr<LogManager>> Open(
      Env* env, const std::string& name, LogManagerOptions options = {});

  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Assigns the next LSN to *record, buffers it, and returns the LSN.
  /// If epoch_out is non-null it receives the open epoch the record was
  /// issued in: the record is durable once durable_epoch() >= *epoch_out.
  Lsn Append(LogRecord* record, Epoch* epoch_out = nullptr);

  /// Makes all appended records durable. With channels > 1 this is a
  /// full group commit (closes the open epoch, drains every channel,
  /// publishes the watermark). If the seal covered records, the seal
  /// observer (if any) fires before Force returns.
  Status Force();

  /// Blocks until durable_epoch() >= epoch (i.e. every record issued in
  /// `epoch` is durable). Caller-driven mode: the first waiter leads a
  /// group commit under the commit lock and concurrent waiters piggyback
  /// on its one sync. Background mode: waits on the advancer's watermark.
  /// With channels == 1 this simply Force()s if the epoch is not yet
  /// published.
  Status WaitEpochDurable(Epoch epoch);

  /// The epoch any subsequent Append() would be issued in. Waiting for
  /// this epoch makes everything appended so far durable (epoch barrier).
  Epoch CurrentEpoch() const;

  /// Highest published (group-committed) epoch.
  Epoch durable_epoch() const {
    return durable_epoch_.load(std::memory_order_acquire);
  }

  uint32_t channels() const { return options_.channels; }

  /// Installs the seal observer (nullptr clears). Seals that happened
  /// before installation are not replayed — a late-attaching shipper
  /// catches up by Scan()ning from its durable cursor instead.
  void SetSealObserver(SealObserver observer);

  /// Atomically installs the seal observer and returns the durable LSN
  /// at the moment of installation, under the seal lock: every seal up
  /// to the returned LSN happened strictly before installation, every
  /// later seal fires the new observer. This closes the attach race a
  /// shipper would otherwise have between its catch-up scan and the
  /// observer install.
  Lsn InstallSealObserver(SealObserver observer);

  /// Appends an already-sealed segment replicated from a primary log,
  /// preserving its LSNs (standby side). The segment must be contiguous
  /// with this log: first_lsn == next_lsn(); its bytes are validated
  /// (framing, CRC, dense LSNs matching [first_lsn, last_lsn]). On
  /// success the decoded records are appended to *records_out (if non
  /// -null) and the segment is buffered — call Force() to make it
  /// durable before applying it to the standby's stable store (WAL rule).
  ///
  /// Epoch-stamped segments (epoch != kInvalidEpoch) additionally keep
  /// the media-recovery merge keyed by (epoch, LSN) sane:
  ///  - an empty segment (no bytes, first_lsn == kInvalidLsn) with a new
  ///    epoch just advances the ingested-epoch bookkeeping (an idle
  ///    channel epoch published with no records);
  ///  - replaying an epoch <= the last ingested one is an idempotent
  ///    no-op iff its records are already ingested (last_lsn < next_lsn),
  ///    and InvalidArgument otherwise (a stale epoch cannot introduce
  ///    unseen records).
  Status AppendSealed(const SealedSegment& segment,
                      std::vector<LogRecord>* records_out);

  /// Highest epoch accepted through AppendSealed (kInvalidEpoch if only
  /// unstamped segments were ingested).
  Epoch last_ingested_epoch() const;

  /// LSN that will be assigned to the next record.
  Lsn next_lsn() const;

  /// Highest LSN known durable (<= last appended).
  Lsn durable_lsn() const;

  /// LSN of the first record in the log file, kInvalidLsn when empty.
  /// Above 1 once TruncatePrefix discarded the head of the log.
  Lsn first_lsn() const;

  /// The crash-redo scan start recorded by the newest durable checkpoint
  /// record, or 1 when there is none. A checkpoint counts once the force
  /// that seals it succeeded, not when it is appended.
  Lsn checkpoint_redo_start() const;

  /// Scans durable records with lsn >= start_lsn in order, every one
  /// CRC-verified, stopping at a torn tail. Only the log from the index
  /// entry at or before start_lsn is read and decoded. The callback gets
  /// each record as an rvalue (it may move from it) and may return non-OK
  /// to abort the scan.
  Status Scan(Lsn start_lsn,
              const std::function<Status(LogRecord&&)>& fn) const;

  LogStats stats() const;

  /// Resets the identity-record counters (benchmarks sample deltas).
  void ResetStats();

  /// Physically discards all records with lsn < keep_from, rewriting the
  /// log file. Callers must ensure no recovery path still needs the
  /// prefix: keep_from must not exceed the crash-redo scan start NOR the
  /// start_lsn of any backup that may still be restored (identity-write
  /// records "permit the truncation of the log in the same way that
  /// flushing does", paper 3.2).
  Status TruncatePrefix(Lsn keep_from);

  /// Physically discards all records with lsn > last_kept, so crash
  /// recovery cannot replay a suffix a point-in-time restore excluded.
  /// The log must be idle, with nothing appended since the last force;
  /// LSNs then continue from the new tail.
  Status TruncateAfter(Lsn last_kept);

 private:
  /// What one CRC walk over a log file image finds. Only checkpoint
  /// frames are decoded.
  struct Layout {
    LogIndex index;
    Lsn last_lsn = kInvalidLsn;
    Lsn checkpoint_redo_start = 1;
    uint64_t valid_bytes = 0;  // length of the frames walked
  };

  /// Walks `image` from byte 0 up to a torn frame or the first record
  /// past `stop_after`.
  static Layout WalkLog(Slice image, Lsn stop_after);

  LogManager(Env* env, std::string name, std::shared_ptr<File> file,
             Layout layout, uint64_t file_end, LogManagerOptions options);

  /// Counts one record added to the writer buffer. mu_ held.
  void NoteAppendLocked(size_t encoded, bool identity,
                        Lsn checkpoint_redo_start);

  /// Forces the writer and, if records were sealed, fires the observer.
  /// mu_ held by caller. Does not touch stats_.forces (TruncatePrefix's
  /// internal force is not a logical WAL force).
  Status SealLocked(Epoch sealed_epoch);

  /// Closes the open epoch, drains every channel, merges by LSN into the
  /// writer, seals, and publishes the watermark. commit_mu_ held by the
  /// caller; takes issue_mu_, each channel mutex, and mu_ in turn (never
  /// nested with each other). On IO failure the drained bytes stay in
  /// the writer buffer and the watermark does not advance — the next
  /// commit retries them (classic LogWriter retry semantics).
  Status GroupCommitLocked();

  LogChannel& ChannelForThisThread();
  void AdvancerLoop();

  Env* const env_;
  const std::string name_;
  const LogManagerOptions options_;
  std::shared_ptr<File> file_;

  // Lock order: commit_mu_ -> { channel mu / issue_mu_ (never nested
  // with each other by the commit path; an appender holds its channel
  // mutex across issue_mu_) } -> mu_ -> issue_mu_. watermark_mu_ is a
  // leaf taken with nothing else held.
  mutable std::mutex mu_;
  LogWriter writer_;
  Lsn durable_lsn_;
  Lsn last_appended_ = kInvalidLsn;
  LogStats stats_;
  SealObserver seal_observer_;
  uint64_t seal_seq_ = 0;
  Lsn seal_first_lsn_ = kInvalidLsn;  // first LSN buffered since last seal
  // Bytes appended to the file by forces whose sync failed: the next
  // successful seal delivers them, so every segment starts at
  // seal_first_lsn_.
  std::string unsealed_;
  Epoch last_ingested_epoch_ = kInvalidEpoch;
  LogIndex index_;
  uint64_t file_end_;  // file bytes: where the next force appends
  Lsn checkpoint_redo_start_;
  Lsn unsealed_checkpoint_ = kInvalidLsn;  // appended, awaiting a force

  // (lsn, epoch) issuance — the only cross-channel append coordination.
  mutable std::mutex issue_mu_;
  Lsn next_lsn_;
  Epoch open_epoch_ = 1;

  // Group commit: serializes epoch closes; piggybacking waiters queue
  // on commit_mu_ and re-check the watermark once the leader publishes.
  std::mutex commit_mu_;
  std::vector<std::unique_ptr<LogChannel>> channels_;
  std::atomic<Epoch> durable_epoch_{kInvalidEpoch};

  // Watermark publication + background advancer.
  mutable std::mutex watermark_mu_;
  std::condition_variable watermark_cv_;
  Status advancer_error_;  // sticky until the next successful commit
  bool stop_advancer_ = false;
  std::thread advancer_;
};

}  // namespace llb

#endif  // LLB_WAL_LOG_MANAGER_H_
