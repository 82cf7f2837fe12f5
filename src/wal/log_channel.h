#ifndef LLB_WAL_LOG_CHANNEL_H_
#define LLB_WAL_LOG_CHANNEL_H_

#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "wal/log_record.h"

namespace llb {

/// One per-thread WAL append channel (the limestone `log_channel` shape).
/// Appenders encode records into the channel's staging queue under the
/// channel mutex — held across LSN/epoch issuance AND buffering, so that
/// once an epoch is closed, every record issued in it is either fully
/// buffered or its appender still holds the channel mutex. The group
/// commit drains each channel in turn and therefore never observes a
/// half-buffered epoch.
class LogChannel {
 public:
  /// One buffered record: its (epoch, LSN) key for the commit-time merge
  /// plus its already-framed bytes.
  struct Pending {
    Epoch epoch = kInvalidEpoch;
    Lsn lsn = kInvalidLsn;
    bool identity = false;
    Lsn checkpoint_redo_start = kInvalidLsn;  // see CheckpointRedoStart()
    std::string bytes;
  };

  std::mutex& mu() { return mu_; }

  /// Buffers an already-LSN-stamped record under `epoch`. mu_ held by
  /// the caller (the LogManager's append path).
  void AddLocked(Epoch epoch, const LogRecord& record) {
    Pending p;
    p.epoch = epoch;
    p.lsn = record.lsn;
    p.identity = record.IsIdentityWrite();
    p.checkpoint_redo_start = record.CheckpointRedoStart();
    record.EncodeTo(&p.bytes);
    pending_.push_back(std::move(p));
  }

  /// Moves every buffered record with epoch <= up_to into *out. Epochs
  /// are issued monotonically per channel, so the eligible records form
  /// a prefix of the queue. Takes mu_ internally; the caller (group
  /// commit) must NOT hold any other LogManager lock while calling.
  void Drain(Epoch up_to, std::vector<Pending>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    while (!pending_.empty() && pending_.front().epoch <= up_to) {
      out->push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
  }

 private:
  std::mutex mu_;
  std::deque<Pending> pending_;
};

}  // namespace llb

#endif  // LLB_WAL_LOG_CHANNEL_H_
