#include "wal/log_manager.h"

#include <algorithm>
#include <chrono>
#include <limits>

namespace llb {

namespace {

constexpr Lsn kMaxLsn = std::numeric_limits<Lsn>::max();

}  // namespace

LogIndex::Entry LogIndex::Seek(Lsn lsn) const {
  auto after = std::upper_bound(
      entries_.begin(), entries_.end(), lsn,
      [](Lsn value, const Entry& entry) { return value < entry.lsn; });
  return after == entries_.begin() ? Entry{} : *std::prev(after);
}

LogManager::Layout LogManager::WalkLog(Slice image, Lsn stop_after) {
  Layout layout;
  LogFrameReader frames(image);
  LogFrame frame;
  LogRecord checkpoint;
  while (frames.Next(&frame) && frame.lsn <= stop_after) {
    layout.index.Add(frame.lsn, frame.bytes.data() - image.data());
    layout.last_lsn = std::max(layout.last_lsn, frame.lsn);
    layout.valid_bytes = frames.offset();
    if (frame.op_code == kOpCheckpoint && frame.Decode(&checkpoint).ok() &&
        checkpoint.CheckpointRedoStart() != kInvalidLsn) {
      layout.checkpoint_redo_start = checkpoint.CheckpointRedoStart();
    }
  }
  return layout;
}

Result<std::unique_ptr<LogManager>> LogManager::Open(Env* env,
                                                     const std::string& name,
                                                     LogManagerOptions options) {
  if (options.channels == 0) options.channels = 1;
  LLB_ASSIGN_OR_RETURN(std::shared_ptr<File> file,
                       env->OpenFile(name, /*create=*/true));

  // One CRC walk over the durable frames finds the next LSN, the newest
  // checkpoint and the index entries; only checkpoints are decoded.
  LLB_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  std::string image;
  LLB_RETURN_IF_ERROR(file->ReadAt(0, size, &image));
  Layout layout = WalkLog(Slice(image), kMaxLsn);
  if (layout.valid_bytes < size) {
    // Cut a torn or corrupt tail: the next force appends right after the
    // last valid frame, where every later walk and scan can reach it.
    LLB_RETURN_IF_ERROR(file->Truncate(layout.valid_bytes));
    LLB_RETURN_IF_ERROR(file->Sync());
    size = layout.valid_bytes;
  }
  return std::unique_ptr<LogManager>(new LogManager(
      env, name, std::move(file), std::move(layout), size, options));
}

LogManager::LogManager(Env* env, std::string name, std::shared_ptr<File> file,
                       Layout layout, uint64_t file_end,
                       LogManagerOptions options)
    : env_(env),
      name_(std::move(name)),
      options_(options),
      file_(std::move(file)),
      writer_(file_),
      durable_lsn_(layout.last_lsn),
      index_(std::move(layout.index)),
      file_end_(file_end),
      checkpoint_redo_start_(layout.checkpoint_redo_start),
      next_lsn_(layout.last_lsn + 1) {
  if (options_.channels > 1) {
    channels_.reserve(options_.channels);
    for (uint32_t i = 0; i < options_.channels; ++i) {
      channels_.push_back(std::make_unique<LogChannel>());
    }
    if (options_.group_commit_interval_us > 0) {
      advancer_ = std::thread([this] { AdvancerLoop(); });
    }
  }
}

LogManager::~LogManager() {
  if (advancer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watermark_mu_);
      stop_advancer_ = true;
    }
    watermark_cv_.notify_all();
    advancer_.join();
  }
}

LogChannel& LogManager::ChannelForThisThread() {
  // Threads bind to channels round-robin at first append; the binding is
  // process-wide (not per-LogManager) which only affects which channel a
  // thread lands on, never correctness.
  static std::atomic<uint64_t> next_slot{0};
  thread_local uint64_t slot = next_slot.fetch_add(1);
  return *channels_[slot % channels_.size()];
}

Lsn LogManager::Append(LogRecord* record, Epoch* epoch_out) {
  if (options_.channels <= 1) {
    std::lock_guard<std::mutex> lock(mu_);
    {
      std::lock_guard<std::mutex> issue(issue_mu_);
      record->lsn = next_lsn_++;
      if (epoch_out != nullptr) *epoch_out = open_epoch_;
    }
    const uint64_t before = writer_.bytes_logged();
    writer_.Add(*record);
    if (seal_first_lsn_ == kInvalidLsn) seal_first_lsn_ = record->lsn;
    last_appended_ = record->lsn;
    NoteAppendLocked(writer_.bytes_logged() - before,
                     record->IsIdentityWrite(), record->CheckpointRedoStart());
    return record->lsn;
  }

  LogChannel& channel = ChannelForThisThread();
  // The channel mutex is held across issuance AND buffering: once the
  // group commit closes epoch E, any record issued in an epoch <= E is
  // either fully buffered or its appender still holds the channel mutex
  // the drain must take — the drain never sees a half-buffered epoch.
  std::lock_guard<std::mutex> lock(channel.mu());
  Epoch epoch;
  {
    std::lock_guard<std::mutex> issue(issue_mu_);
    record->lsn = next_lsn_++;
    epoch = open_epoch_;
  }
  channel.AddLocked(epoch, *record);
  if (epoch_out != nullptr) *epoch_out = epoch;
  return record->lsn;
}

Status LogManager::Force() {
  if (options_.channels <= 1) {
    std::lock_guard<std::mutex> lock(mu_);
    Epoch sealed;
    {
      std::lock_guard<std::mutex> issue(issue_mu_);
      sealed = open_epoch_++;
    }
    LLB_RETURN_IF_ERROR(SealLocked(sealed));
    ++stats_.forces;
    durable_epoch_.store(sealed, std::memory_order_release);
    watermark_cv_.notify_all();
    return Status::OK();
  }
  std::lock_guard<std::mutex> commit(commit_mu_);
  return GroupCommitLocked();
}

Status LogManager::GroupCommitLocked() {
  // Close the open epoch. Everything issued before this point belongs to
  // an epoch <= sealed and is (or is being) buffered in some channel.
  Epoch sealed;
  Lsn tail;
  {
    std::lock_guard<std::mutex> issue(issue_mu_);
    sealed = open_epoch_++;
    tail = next_lsn_ - 1;
  }

  std::vector<LogChannel::Pending> entries;
  for (auto& channel : channels_) channel->Drain(sealed, &entries);
  std::sort(entries.begin(), entries.end(),
            [](const LogChannel::Pending& a, const LogChannel::Pending& b) {
              return a.lsn < b.lsn;
            });

  std::unique_lock<std::mutex> lock(mu_);
  if (!entries.empty()) {
    // The merged records must continue the log densely up to the LSN
    // issuance tail captured at the epoch close; a gap means a record
    // was issued but never buffered — an invariant violation, not an
    // IO error.
    Lsn expect =
        (last_appended_ != kInvalidLsn ? last_appended_ : durable_lsn_) + 1;
    for (const LogChannel::Pending& entry : entries) {
      if (entry.lsn != expect) {
        return Status::Internal("group commit: channel merge gap at lsn " +
                                std::to_string(expect));
      }
      ++expect;
    }
    if (entries.back().lsn != tail) {
      return Status::Internal("group commit: merge does not reach epoch tail");
    }
    for (const LogChannel::Pending& entry : entries) {
      writer_.AddRaw(Slice(entry.bytes));
      if (seal_first_lsn_ == kInvalidLsn) seal_first_lsn_ = entry.lsn;
      last_appended_ = entry.lsn;
      NoteAppendLocked(entry.bytes.size(), entry.identity,
                       entry.checkpoint_redo_start);
    }
  }
  LLB_RETURN_IF_ERROR(SealLocked(sealed));
  ++stats_.forces;
  ++stats_.group_commits;
  lock.unlock();

  {
    std::lock_guard<std::mutex> watermark(watermark_mu_);
    durable_epoch_.store(sealed, std::memory_order_release);
    advancer_error_ = Status::OK();
  }
  watermark_cv_.notify_all();
  return Status::OK();
}

Status LogManager::WaitEpochDurable(Epoch epoch) {
  if (epoch == kInvalidEpoch) return Status::OK();
  if (durable_epoch() >= epoch) return Status::OK();
  if (options_.channels <= 1) return Force();
  if (options_.group_commit_interval_us == 0) {
    // Caller-driven: lead a commit, or piggyback if a concurrent leader
    // already published our epoch while we queued on the commit lock.
    std::lock_guard<std::mutex> commit(commit_mu_);
    if (durable_epoch() >= epoch) return Status::OK();
    return GroupCommitLocked();
  }
  std::unique_lock<std::mutex> watermark(watermark_mu_);
  watermark_cv_.wait(watermark, [&] {
    return durable_epoch() >= epoch || !advancer_error_.ok() || stop_advancer_;
  });
  if (durable_epoch() >= epoch) return Status::OK();
  if (!advancer_error_.ok()) return advancer_error_;
  return Status::Internal("log manager shut down while waiting for epoch");
}

Epoch LogManager::CurrentEpoch() const {
  std::lock_guard<std::mutex> issue(issue_mu_);
  return open_epoch_;
}

void LogManager::AdvancerLoop() {
  const auto interval =
      std::chrono::microseconds(options_.group_commit_interval_us);
  while (true) {
    {
      std::unique_lock<std::mutex> watermark(watermark_mu_);
      watermark_cv_.wait_for(watermark, interval,
                             [&] { return stop_advancer_; });
      if (stop_advancer_) return;
    }
    Status s;
    {
      std::lock_guard<std::mutex> commit(commit_mu_);
      s = GroupCommitLocked();
    }
    if (!s.ok()) {
      {
        std::lock_guard<std::mutex> watermark(watermark_mu_);
        advancer_error_ = s;
      }
      watermark_cv_.notify_all();
    }
  }
}

void LogManager::NoteAppendLocked(size_t encoded, bool identity,
                                  Lsn checkpoint_redo_start) {
  ++stats_.records;
  stats_.bytes += encoded;
  if (identity) {
    ++stats_.identity_records;
    stats_.identity_bytes += encoded;
  }
  if (checkpoint_redo_start != kInvalidLsn) {
    unsealed_checkpoint_ = checkpoint_redo_start;
  }
}

Status LogManager::SealLocked(Epoch sealed_epoch) {
  std::string appended;
  const uint64_t at = file_end_;
  Status forced = writer_.Force(&appended);
  // The writer hands back the bytes it appended even when the sync then
  // failed: they are in the file, and the next successful sync seals
  // them together with whatever it appends itself.
  file_end_ += appended.size();
  if (!appended.empty()) {
    index_.Add(LogFrame::PeekLsn(Slice(appended)), at);
    if (unsealed_.empty()) {
      unsealed_ = std::move(appended);
    } else {
      unsealed_ += appended;
    }
  }
  LLB_RETURN_IF_ERROR(forced);
  if (unsealed_checkpoint_ != kInvalidLsn) {
    checkpoint_redo_start_ = unsealed_checkpoint_;
    unsealed_checkpoint_ = kInvalidLsn;
  }
  if (last_appended_ != kInvalidLsn) durable_lsn_ = last_appended_;
  if (!unsealed_.empty()) {
    SealedSegment segment;
    segment.seq = ++seal_seq_;
    segment.epoch = sealed_epoch;
    segment.first_lsn = seal_first_lsn_;
    segment.last_lsn = last_appended_;
    segment.bytes = std::move(unsealed_);
    unsealed_.clear();
    seal_first_lsn_ = kInvalidLsn;
    if (seal_observer_) seal_observer_(segment);
  }
  return Status::OK();
}

void LogManager::SetSealObserver(SealObserver observer) {
  std::lock_guard<std::mutex> lock(mu_);
  seal_observer_ = std::move(observer);
}

Lsn LogManager::InstallSealObserver(SealObserver observer) {
  // Seals happen under mu_, so swapping the observer under mu_ and
  // reading durable_lsn_ in the same critical section gives the caller
  // an exact cut: LSNs <= the returned value were sealed before the new
  // observer existed, anything later will fire it.
  std::lock_guard<std::mutex> lock(mu_);
  seal_observer_ = std::move(observer);
  return durable_lsn_;
}

Status LogManager::AppendSealed(const SealedSegment& segment,
                                std::vector<LogRecord>* records_out) {
  std::lock_guard<std::mutex> lock(mu_);
  Lsn next;
  {
    std::lock_guard<std::mutex> issue(issue_mu_);
    next = next_lsn_;
  }
  if (segment.epoch != kInvalidEpoch &&
      segment.epoch <= last_ingested_epoch_) {
    // Duplicate epoch replay: idempotent iff everything it carries is
    // already ingested; a stale epoch must not introduce unseen records.
    if (segment.first_lsn == kInvalidLsn ||
        (segment.last_lsn != kInvalidLsn && segment.last_lsn < next)) {
      return Status::OK();
    }
    return Status::InvalidArgument(
        "sealed segment replays epoch " + std::to_string(segment.epoch) +
        " with records beyond next_lsn " + std::to_string(next));
  }
  if (segment.first_lsn == kInvalidLsn && segment.bytes.empty()) {
    // An idle epoch published with no records: nothing to buffer, just
    // advance the (epoch, LSN) merge bookkeeping.
    if (segment.epoch != kInvalidEpoch) last_ingested_epoch_ = segment.epoch;
    return Status::OK();
  }
  if (segment.first_lsn != next) {
    return Status::InvalidArgument(
        "sealed segment not contiguous: first_lsn " +
        std::to_string(segment.first_lsn) + " != next_lsn " +
        std::to_string(next));
  }
  // Validate before buffering: framing + CRC, and LSNs dense over
  // [first_lsn, last_lsn]. A torn or rotten segment is rejected whole.
  std::vector<LogRecord> records;
  std::vector<size_t> encoded;
  LogFrameReader frames{Slice(segment.bytes)};
  LogFrame frame;
  Lsn expect = segment.first_lsn;
  while (frames.Next(&frame)) {
    if (frame.lsn != expect) {
      return Status::Corruption("sealed segment LSNs not dense");
    }
    ++expect;
    LogRecord rec;
    Status s = frame.Decode(&rec);
    if (!s.ok()) return Status::Corruption("sealed segment: " + s.ToString());
    records.push_back(std::move(rec));
    encoded.push_back(frame.bytes.size());
  }
  if (!frames.status().ok()) {
    return Status::Corruption("sealed segment: " + frames.status().ToString());
  }
  if (records.empty() || records.back().lsn != segment.last_lsn) {
    return Status::Corruption("sealed segment does not end at last_lsn");
  }
  writer_.AddRaw(Slice(segment.bytes));
  if (seal_first_lsn_ == kInvalidLsn) seal_first_lsn_ = segment.first_lsn;
  for (size_t i = 0; i < records.size(); ++i) {
    NoteAppendLocked(encoded[i], records[i].IsIdentityWrite(),
                     records[i].CheckpointRedoStart());
  }
  {
    std::lock_guard<std::mutex> issue(issue_mu_);
    next_lsn_ = segment.last_lsn + 1;
  }
  last_appended_ = segment.last_lsn;
  if (segment.epoch != kInvalidEpoch) last_ingested_epoch_ = segment.epoch;
  if (records_out != nullptr) {
    for (LogRecord& rec : records) records_out->push_back(std::move(rec));
  }
  return Status::OK();
}

Epoch LogManager::last_ingested_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_ingested_epoch_;
}

Lsn LogManager::next_lsn() const {
  std::lock_guard<std::mutex> issue(issue_mu_);
  return next_lsn_;
}

Lsn LogManager::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

Lsn LogManager::first_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.FirstLsn();
}

Lsn LogManager::checkpoint_redo_start() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_redo_start_;
}

Status LogManager::Scan(Lsn start_lsn,
                        const std::function<Status(LogRecord&&)>& fn) const {
  // Readers take their own snapshot of the durable contents; no lock held
  // during the scan so recovery can read while nothing else is running and
  // benches can scan concurrently with appends (they see a prefix).
  LogIndex::Entry from;
  {
    std::lock_guard<std::mutex> lock(mu_);
    from = index_.Seek(start_lsn);
  }
  LLB_ASSIGN_OR_RETURN(uint64_t size, file_->Size());
  std::string tail;
  if (from.offset <= size) {
    LLB_RETURN_IF_ERROR(file_->ReadAt(from.offset, size - from.offset, &tail));
  }
  LogFrame frame;
  if (from.offset != 0 &&
      !(LogFrame::Parse(Slice(tail), &frame).ok() && frame.lsn == from.lsn)) {
    // A truncation rewrote the file after the index lookup: the entry no
    // longer names the bytes it points at, so read from the start.
    LLB_RETURN_IF_ERROR(file_->ReadAt(0, size, &tail));
  }
  LogFrameReader frames{Slice(tail)};
  LogRecord rec;
  while (frames.Next(&frame)) {
    if (frame.lsn < start_lsn) continue;
    // A CRC-clean frame with a malformed body ends the log like a torn one.
    if (!frame.Decode(&rec).ok()) break;
    LLB_RETURN_IF_ERROR(fn(std::move(rec)));
  }
  return Status::OK();
}

LogStats LogManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void LogManager::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = LogStats{};
}

Status LogManager::TruncatePrefix(Lsn keep_from) {
  if (options_.channels > 1) {
    // Drain the channels through a full group commit first so the file
    // rewrite below sees every buffered record.
    std::lock_guard<std::mutex> commit(commit_mu_);
    LLB_RETURN_IF_ERROR(GroupCommitLocked());
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Flush buffered records first so the rewrite sees everything. Routed
  // through SealLocked so records sealed by this internal force still
  // reach the seal observer (a shipper must not lose them).
  LLB_RETURN_IF_ERROR(SealLocked(kInvalidEpoch));

  // Only the kept suffix is read: the index finds the stride it starts in.
  LLB_ASSIGN_OR_RETURN(uint64_t size, file_->Size());
  const uint64_t from = std::min(index_.Seek(keep_from).offset, size);
  std::string tail;
  LLB_RETURN_IF_ERROR(file_->ReadAt(from, size - from, &tail));
  LogFrameReader frames{Slice(tail)};
  LogFrame frame;
  size_t cut = 0;
  while (frames.Next(&frame) && frame.lsn < keep_from) cut = frames.offset();
  // Walking the kept frames also rebuilds the index for the new file.
  Layout layout = WalkLog(Slice(tail.data() + cut, tail.size() - cut), kMaxLsn);
  Slice kept(tail.data() + cut, layout.valid_bytes);

  LLB_RETURN_IF_ERROR(file_->Truncate(0));
  LLB_RETURN_IF_ERROR(file_->WriteAt(0, kept));
  LLB_RETURN_IF_ERROR(file_->Sync());
  index_ = std::move(layout.index);
  file_end_ = kept.size();
  checkpoint_redo_start_ = layout.checkpoint_redo_start;
  return Status::OK();
}

Status LogManager::TruncateAfter(Lsn last_kept) {
  std::lock_guard<std::mutex> lock(mu_);

  // The kept prefix is walked whole: the newest checkpoint it holds may
  // sit anywhere in it.
  LLB_ASSIGN_OR_RETURN(uint64_t size, file_->Size());
  std::string image;
  LLB_RETURN_IF_ERROR(file_->ReadAt(0, size, &image));
  Layout layout = WalkLog(Slice(image), last_kept);
  LLB_RETURN_IF_ERROR(file_->Truncate(layout.valid_bytes));
  LLB_RETURN_IF_ERROR(file_->Sync());
  index_ = std::move(layout.index);
  file_end_ = layout.valid_bytes;
  checkpoint_redo_start_ = layout.checkpoint_redo_start;
  durable_lsn_ = layout.last_lsn;
  last_appended_ = layout.last_lsn;
  std::lock_guard<std::mutex> issue(issue_mu_);
  next_lsn_ = layout.last_lsn + 1;
  return Status::OK();
}

}  // namespace llb
