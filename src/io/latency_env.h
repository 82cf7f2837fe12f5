#ifndef LLB_IO_LATENCY_ENV_H_
#define LLB_IO_LATENCY_ENV_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/env.h"

namespace llb {

/// Device-shape parameters for LatencyEnv. Every IO charges one seek plus
/// a bandwidth-proportional transfer; Sync charges its own (typically
/// larger) cost. Zero fields disable that charge, so the default profile
/// is a no-op passthrough.
struct LatencyProfile {
  /// Fixed cost per IO operation (positioning / command overhead), us.
  uint64_t seek_us = 0;
  /// Fixed cost per Sync (flush barrier), us.
  uint64_t sync_us = 0;
  /// Transfer rate; 0 means infinite bandwidth (no per-byte charge).
  uint64_t bytes_per_us = 0;

  /// A spinning disk: expensive positioning, ~100 MB/s streaming. The
  /// profile the paper's arithmetic targets — sequential sweeps win big.
  static LatencyProfile Hdd() { return {2000, 4000, 100}; }
  /// A SATA-era SSD: cheap positioning, ~500 MB/s.
  static LatencyProfile Ssd() { return {80, 200, 500}; }
  /// An NVMe drive: near-free positioning, multi-GB/s.
  static LatencyProfile Nvme() { return {10, 30, 3000}; }
};

/// Aggregate counters for all files of a LatencyEnv.
struct LatencyEnvStats {
  uint64_t ops = 0;           // IO operations charged a seek
  uint64_t bytes = 0;         // bytes transferred (reads + writes)
  uint64_t syncs = 0;         // Sync calls
  uint64_t simulated_us = 0;  // total injected sleep time
};

/// Wraps any Env and injects device-shaped latency in front of every file
/// operation: one seek charge per op (vectored ops included — that is the
/// batching payoff: K pages in one ReadAtv/WriteAtv cost one seek, not K),
/// plus a transfer charge proportional to bytes moved.
///
/// The sleep happens BEFORE the inner call, outside whatever lock the
/// inner env takes — so concurrent sweep workers overlap their simulated
/// device time instead of serializing it behind a per-file lock.
/// That property is what makes parallel-sweep speedups measurable on an
/// in-memory base env.
class LatencyEnv : public Env {
 public:
  /// Does not take ownership of `base`, which must outlive this env.
  LatencyEnv(Env* base, const LatencyProfile& profile)
      : base_(base), profile_(profile) {}

  Result<std::shared_ptr<File>> OpenFile(const std::string& name,
                                         bool create) override;
  Status DeleteFile(const std::string& name) override;
  bool FileExists(const std::string& name) const override;
  std::vector<std::string> ListFiles() const override;
  Status RenameFile(const std::string& src, const std::string& dst) override {
    return base_->RenameFile(src, dst);
  }

  const LatencyProfile& profile() const { return profile_; }
  LatencyEnvStats stats() const;

 private:
  friend class LatencyFile;

  /// Sleeps for one op's worth of simulated device time and records it.
  void ChargeOp(size_t bytes);
  void ChargeSync();

  Env* const base_;
  const LatencyProfile profile_;

  mutable std::mutex mu_;  // guards stats_ only; sleeps happen unlocked
  LatencyEnvStats stats_;
};

}  // namespace llb

#endif  // LLB_IO_LATENCY_ENV_H_
