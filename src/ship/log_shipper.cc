#include "ship/log_shipper.h"

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "io/durable_cursor.h"

namespace llb {

LogShipper::LogShipper(Env* env, std::string primary_name, LogManager* log,
                       ShipChannel* channel, const ShipperOptions& options)
    : env_(env),
      primary_name_(std::move(primary_name)),
      log_(log),
      channel_(channel),
      options_(options) {}

LogShipper::~LogShipper() { Detach(); }

Status LogShipper::Attach() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (attached_) {
      return Status::FailedPrecondition("shipper already attached");
    }

    cursor_seq_ = 0;
    cursor_lsn_ = 0;
    // Frames left queued by a prior Detach were never durably sent, so the
    // cursor still covers them; the catch-up scan below re-ships that
    // ground.
    outbox_.clear();
    Result<std::string> payload =
        DurableCursor::Load(env_, CursorName(primary_name_));
    if (payload.ok()) {
      SliceReader reader{Slice(*payload)};
      uint64_t seq = 0;
      uint64_t lsn = 0;
      if (reader.ReadFixed64(&seq) && reader.ReadFixed64(&lsn) &&
          reader.remaining() == 0) {
        cursor_seq_ = seq;
        cursor_lsn_ = lsn;
      }
      // A malformed payload falls through to a from-scratch re-ship: safe,
      // because the applier dedups by LSN.
    } else if (!payload.status().IsNotFound() &&
               !payload.status().IsCorruption()) {
      return payload.status();
    }
    stats_.last_shipped_lsn = cursor_lsn_;
  }

  // Install the observer FIRST, atomically learning the durable LSN at
  // the moment of installation: every seal <= `durable` happened before
  // the observer existed (the catch-up scan below covers it), every seal
  // after fires the observer. A Force() concurrent with Attach is safe —
  // no seal can land in the gap between scan and install, because there
  // is no such gap anymore.
  //
  // Lock order is log mutex -> shipper mutex (the observer runs under the
  // log mutex and takes the shipper mutex), so the observer must be
  // installed while NOT holding the shipper mutex.
  Lsn durable = log_->InstallSealObserver([this](const SealedSegment& segment) {
    std::lock_guard<std::mutex> inner(mu_);
    ++stats_.segments_sealed;
    ShipFrame frame;
    frame.first_lsn = segment.first_lsn;
    frame.last_lsn = segment.last_lsn;
    frame.bytes = segment.bytes;
    outbox_.push_back(std::move(frame));
  });

  // Catch up: records sealed while no shipper was attached (or re-sealed
  // ground lost to a crash before the cursor advanced). Scanned outside
  // the shipper mutex; the log scan reads a durable snapshot. Concurrent
  // seals enqueue frames meanwhile — all strictly above `durable`, so the
  // ranges never overlap.
  std::string catchup;
  Lsn catchup_first = kInvalidLsn;
  Lsn catchup_last = kInvalidLsn;
  Lsn resume_from = cursor_lsn_ + 1;
  Status scanned = Status::OK();
  if (durable >= resume_from) {
    scanned = log_->Scan(resume_from, [&](const LogRecord& rec) {
      if (rec.lsn > durable) return Status::OK();
      if (catchup_first == kInvalidLsn) catchup_first = rec.lsn;
      catchup_last = rec.lsn;
      rec.EncodeTo(&catchup);
      return Status::OK();
    });
  }
  if (!scanned.ok()) {
    // Roll the install back; frames a racing seal already queued are
    // cleared by the next Attach.
    log_->SetSealObserver(nullptr);
    return scanned;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!catchup.empty()) {
      ShipFrame frame;
      frame.first_lsn = catchup_first;
      frame.last_lsn = catchup_last;
      frame.bytes = std::move(catchup);
      // Front of the outbox: observer frames that raced the scan carry
      // strictly higher LSNs, and Pump's cursor must never advance past
      // LSNs that are not yet in the channel.
      outbox_.push_front(std::move(frame));
      ++stats_.resyncs;
    }
    attached_ = true;
  }
  return Status::OK();
}

void LogShipper::Detach() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!attached_) return;
    attached_ = false;
  }
  // Same lock-order rule as Attach: drop the shipper mutex before taking
  // the log mutex. SetSealObserver still blocks until any in-flight seal
  // (and its observer call) drains, so no observer runs after this
  // returns; a seal that races the flip at worst queues one frame that
  // the next Attach clears and re-covers via its catch-up scan.
  log_->SetSealObserver(nullptr);
}

Status LogShipper::Resync(Lsn from_lsn) {
  Lsn durable = log_->durable_lsn();
  if (durable < from_lsn || from_lsn == kInvalidLsn) return Status::OK();
  std::string bytes;
  Lsn first = kInvalidLsn;
  Lsn last = kInvalidLsn;
  LLB_RETURN_IF_ERROR(log_->Scan(from_lsn, [&](const LogRecord& rec) {
    if (rec.lsn > durable) return Status::OK();
    if (first == kInvalidLsn) first = rec.lsn;
    last = rec.lsn;
    rec.EncodeTo(&bytes);
    return Status::OK();
  }));
  if (bytes.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  ShipFrame frame;
  frame.first_lsn = first;
  frame.last_lsn = last;
  frame.bytes = std::move(bytes);
  outbox_.push_back(std::move(frame));
  ++stats_.resyncs;
  return Status::OK();
}

Status LogShipper::SendWithRetry(const ShipFrame& frame) {
  Status last;
  for (uint32_t attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      if (options_.backoff_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.backoff_ms << (attempt - 1)));
      }
    }
    last = channel_->Send(frame);
    if (last.ok()) return last;
  }
  ++stats_.send_failures;
  return last;
}

Status LogShipper::SaveCursor(uint64_t seq, Lsn lsn) {
  {
    // A cursor that went back would let a later Attach reuse seqs the
    // applier has already consumed.
    std::lock_guard<std::mutex> lock(mu_);
    if (seq <= cursor_seq_) {
      return Status::FailedPrecondition("ship cursor seq regression");
    }
  }
  std::string payload;
  PutFixed64(&payload, seq);
  PutFixed64(&payload, lsn);
  return DurableCursor::Save(env_, CursorName(primary_name_), Slice(payload));
}

Status LogShipper::Pump() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!outbox_.empty()) {
    // Seqs are stamped here, at send time, so they follow the outbox
    // (LSN) order however the catch-up frame and observer frames raced
    // into it. A frame whose send or cursor save failed keeps its seq on
    // the next Pump; re-sending a seq overwrites. Sends run without the
    // mutex so the seal observer (under the log mutex) never waits on
    // channel IO.
    ShipFrame frame = outbox_.front();
    frame.seq = cursor_seq_ + 1;
    lock.unlock();
    Status s = SendWithRetry(frame);
    if (!s.ok()) return s;  // frame stays queued for the next Pump
    Status saved = SaveCursor(frame.seq, frame.last_lsn);
    if (!saved.ok()) return saved;
    lock.lock();
    outbox_.pop_front();
    cursor_seq_ = frame.seq;
    cursor_lsn_ = frame.last_lsn;
    ++stats_.frames_sent;
    stats_.bytes_sent += frame.bytes.size();
    stats_.last_shipped_lsn = frame.last_lsn;
  }
  return Status::OK();
}

size_t LogShipper::backlog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outbox_.size();
}

ShipStats LogShipper::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace llb
