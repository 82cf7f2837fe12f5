#ifndef LLB_SHIP_LOG_SHIPPER_H_
#define LLB_SHIP_LOG_SHIPPER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "io/env.h"
#include "ship/ship_channel.h"
#include "wal/log_manager.h"

namespace llb {

struct ShipperOptions {
  /// Send attempts per frame before Pump gives up (the frame stays queued
  /// for the next Pump; nothing is ever dropped).
  uint32_t max_retries = 5;
  /// Sleep between attempts, doubled per retry. 0 = no sleep, which keeps
  /// crash-sweep runs deterministic.
  uint32_t backoff_ms = 0;
};

struct ShipStats {
  uint64_t segments_sealed = 0;  // seals observed from the log
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t retries = 0;        // extra send attempts after a fault
  uint64_t send_failures = 0;  // Pump calls that gave up on a frame
  uint64_t resyncs = 0;        // catch-up frames built from a log scan
  Lsn last_shipped_lsn = 0;    // durably in the channel AND in the cursor
};

/// Streams sealed log segments from a primary's LogManager into a
/// ShipChannel, exactly once from the standby's point of view.
///
/// Invariants (see DESIGN.md "Log shipping"):
///   - No gaps: every LSN in (cursor, last sent] is in the channel before
///     the cursor advances past it. The cursor is saved (DurableCursor)
///     only AFTER the frames covering it were durably sent.
///   - Duplicates allowed: a crash between Send and cursor save re-ships
///     the overlap on restart (Attach re-syncs from the cursor by
///     scanning the log); the applier dedups by LSN.
///   - Only durable records ship: the seal observer fires after the seal's
///     sync succeeded, and Attach's catch-up scan stops at durable_lsn().
///
/// Threading: the seal observer enqueues under the shipper's own mutex
/// and returns (it runs under the log mutex). Pump() drains the queue and
/// may be called from any one thread — typically a torture script's
/// deterministic pump loop or a bench's shipping thread.
class LogShipper {
 public:
  /// `primary_name` scopes the durable cursor file ("<name>.shipcursor"
  /// in `env`); `log` is the primary's log; `channel` the transport.
  LogShipper(Env* env, std::string primary_name, LogManager* log,
             ShipChannel* channel, const ShipperOptions& options = {});
  ~LogShipper();

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  /// Loads the durable cursor (absent = ship from the beginning),
  /// installs the seal observer — atomically learning the durable LSN at
  /// the instant of installation (LogManager::InstallSealObserver swaps
  /// under the seal lock) — and builds a catch-up frame for the durable
  /// records past the cursor. Safe under concurrent Force(): a seal
  /// either lands before the install (covered by the catch-up scan) or
  /// after it (delivered to the observer); there is no window in
  /// between. Complete Attach before the first Pump.
  Status Attach();

  /// Uninstalls the seal observer. Called by the destructor; call it
  /// earlier if the LogManager outlives decisions about this shipper.
  void Detach();

  /// Drains queued segments into the channel with bounded retry, then
  /// durably advances the cursor. Each frame's seq is stamped at send
  /// time as cursor seq + 1, so seqs stay dense and in LSN order and the
  /// durable cursor seq never goes back. Returns non-OK when a frame
  /// exhausted its retries (frame stays queued; call Pump again) or the
  /// cursor save failed.
  Status Pump();

  /// Re-queues a catch-up frame covering [from_lsn, durable tail] built
  /// from a log scan: the NAK path for a frame that rotted in transit
  /// after the cursor already advanced past it (the applier observes the
  /// gap and asks for this range again). No-op when the log holds nothing
  /// durable at or past from_lsn.
  Status Resync(Lsn from_lsn);

  /// Queued segments not yet durably in the channel.
  size_t backlog() const;

  ShipStats stats() const;

  static std::string CursorName(const std::string& primary_name) {
    return primary_name + ".shipcursor";
  }

 private:
  Status SendWithRetry(const ShipFrame& frame);
  Status SaveCursor(uint64_t seq, Lsn lsn);

  Env* const env_;
  const std::string primary_name_;
  LogManager* const log_;
  ShipChannel* const channel_;
  const ShipperOptions options_;

  mutable std::mutex mu_;
  bool attached_ = false;
  std::deque<ShipFrame> outbox_;  // seqs unset until Pump sends them
  Lsn cursor_lsn_ = 0;            // durably shipped through here
  uint64_t cursor_seq_ = 0;       // highest seq covered by the cursor
  ShipStats stats_;
};

}  // namespace llb

#endif  // LLB_SHIP_LOG_SHIPPER_H_
