#include "io/mem_env.h"

#include <algorithm>
#include <cstring>
#include <shared_mutex>
#include <utility>
#include <vector>

namespace llb {

/// A file in MemEnv. Thread-safe: every op holds the env's crash gate
/// shared (so CrashAndRestart never sees it half done), then this file's
/// own lock: shared for reads and Size, exclusive for mutations and Sync.
/// Ops on different files run in parallel.
class MemFile : public File {
 public:
  explicit MemFile(MemEnv* env) : env_(env) {}

  Status ReadAt(uint64_t offset, size_t n, std::string* out) const override {
    ReadLock gate(env_->crash_gate_);
    ReadLock lock(mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    if (offset >= data_.size()) return Status::OK();
    size_t avail = std::min<uint64_t>(n, data_.size() - offset);
    out->append(data_.data() + offset, avail);
    return Status::OK();
  }

  Status ReadAtv(uint64_t offset,
                 const std::vector<IoBuffer>& chunks) const override {
    ReadLock gate(env_->crash_gate_);
    ReadLock lock(mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    for (const IoBuffer& chunk : chunks) {
      size_t avail = offset < data_.size()
                         ? std::min<uint64_t>(chunk.size, data_.size() - offset)
                         : 0;
      if (avail > 0) std::memcpy(chunk.data, data_.data() + offset, avail);
      if (avail < chunk.size) {
        std::memset(chunk.data + avail, 0, chunk.size - avail);
      }
      offset += chunk.size;
    }
    return Status::OK();
  }

  Status WriteAt(uint64_t offset, Slice data) override {
    ReadLock gate(env_->crash_gate_);
    WriteLock lock(mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    if (offset + data.size() > data_.size()) {
      data_.resize(offset + data.size(), '\0');
    }
    std::copy(data.data(), data.data() + data.size(), data_.begin() + offset);
    MarkDirty(offset, data.size());
    return Status::OK();
  }

  Status WriteAtv(uint64_t offset,
                  const std::vector<Slice>& chunks) override {
    ReadLock gate(env_->crash_gate_);
    WriteLock lock(mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    size_t total = 0;
    for (const Slice& chunk : chunks) total += chunk.size();
    if (total == 0) return Status::OK();
    if (offset + total > data_.size()) {
      data_.resize(offset + total, '\0');
    }
    uint64_t at = offset;
    for (const Slice& chunk : chunks) {
      std::copy(chunk.data(), chunk.data() + chunk.size(),
                data_.begin() + at);
      at += chunk.size();
    }
    MarkDirty(offset, total);
    return Status::OK();
  }

  Status Append(Slice data) override {
    ReadLock gate(env_->crash_gate_);
    WriteLock lock(mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    MarkDirty(data_.size(), data.size());
    data_.append(data.data(), data.size());
    return Status::OK();
  }

  Status Sync() override {
    ReadLock gate(env_->crash_gate_);
    WriteLock lock(mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    uint64_t delta =
        data_.size() >= durable_.size() ? data_.size() - durable_.size() : 0;
    if (!env_->BeginDurableEvent(delta)) {
      return Status::IoError("simulated device failure at sync");
    }
    // Incremental sync: copy only the ranges written since the last sync
    // (a full `durable_ = data_` would make every 4 KB page write cost
    // O(file size)).
    durable_.resize(data_.size(), '\0');
    for (const auto& [offset, length] : dirty_ranges_) {
      size_t end = std::min(offset + length, data_.size());
      if (offset < end) {
        std::copy(data_.begin() + offset, data_.begin() + end,
                  durable_.begin() + offset);
      }
    }
    dirty_ranges_.clear();
    return Status::OK();
  }

  Result<uint64_t> Size() const override {
    ReadLock gate(env_->crash_gate_);
    ReadLock lock(mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    return uint64_t{data_.size()};
  }

  Status Truncate(uint64_t size) override {
    ReadLock gate(env_->crash_gate_);
    WriteLock lock(mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    uint64_t old_size = data_.size();
    data_.resize(size, '\0');
    if (size > old_size) MarkDirty(old_size, size - old_size);
    return Status::OK();
  }

 private:
  friend class MemEnv;
  using ReadLock = std::shared_lock<std::shared_mutex>;
  using WriteLock = std::unique_lock<std::shared_mutex>;

  // mu_ held exclusive by callers.
  void MarkDirty(uint64_t offset, uint64_t length) {
    if (length == 0) return;
    // Coalesce with the previous range when adjacent/overlapping (the
    // common sequential-append pattern).
    if (!dirty_ranges_.empty()) {
      auto& [last_offset, last_length] = dirty_ranges_.back();
      if (offset <= last_offset + last_length &&
          offset + length >= last_offset) {
        uint64_t begin = std::min(last_offset, offset);
        uint64_t end = std::max(last_offset + last_length, offset + length);
        last_offset = begin;
        last_length = end - begin;
        return;
      }
    }
    dirty_ranges_.emplace_back(offset, length);
  }

  // The crash gate held exclusive by the caller: no op is in flight.
  void OnCrashRestart() {
    data_ = durable_;
    dirty_ranges_.clear();
  }

  MemEnv* const env_;
  mutable std::shared_mutex mu_;
  std::string data_;     // volatile contents
  std::string durable_;  // last synced snapshot
  std::vector<std::pair<uint64_t, uint64_t>> dirty_ranges_;  // since sync
};

Result<std::shared_ptr<File>> MemEnv::OpenFile(const std::string& name,
                                               bool create) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it != files_.end()) return std::shared_ptr<File>(it->second);
  if (!create) return Status::NotFound("no such file: " + name);
  auto file = std::make_shared<MemFile>(this);
  files_[name] = file;
  return std::shared_ptr<File>(file);
}

Status MemEnv::DeleteFile(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no such file: " + name);
  files_.erase(it);
  return Status::OK();
}

Status MemEnv::RenameFile(const std::string& src, const std::string& dst) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!IoAllowed()) return Status::IoError("simulated device failure");
  auto it = files_.find(src);
  if (it == files_.end()) return Status::NotFound("no such file: " + src);
  files_[dst] = it->second;
  files_.erase(src);
  return Status::OK();
}

bool MemEnv::FileExists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(name) > 0;
}

std::vector<std::string> MemEnv::ListFiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, file] : files_) names.push_back(name);
  return names;
}

void MemEnv::SetFaultInjector(FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(event_mu_);
  injector_ = injector;
}

void MemEnv::CrashAndRestart() {
  std::unique_lock<std::shared_mutex> gate(crash_gate_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, file] : files_) {
      file->OnCrashRestart();
    }
  }
  std::lock_guard<std::mutex> lock(event_mu_);
  blocked_ = false;
  injector_ = nullptr;
}

uint64_t MemEnv::durable_events() const {
  std::lock_guard<std::mutex> lock(event_mu_);
  return durable_events_;
}

uint64_t MemEnv::bytes_synced() const {
  std::lock_guard<std::mutex> lock(event_mu_);
  return bytes_synced_;
}

bool MemEnv::io_blocked() const { return blocked_; }

bool MemEnv::BeginDurableEvent(uint64_t bytes) {
  // Caller holds the crash gate shared and its file lock exclusive. The
  // re-check under event_mu_ orders this event against a veto on any
  // other file: once one event is refused, none after it succeeds.
  std::lock_guard<std::mutex> lock(event_mu_);
  if (blocked_) return false;
  if (injector_ != nullptr && !injector_->AllowDurableEvent()) {
    blocked_ = true;
    return false;
  }
  ++durable_events_;
  bytes_synced_ += bytes;
  return true;
}

bool MemEnv::IoAllowed() const { return !blocked_; }

}  // namespace llb
