#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Tracing for the traced run: spans recorded by the benchmark around each
// call into an engine layer, plus an Env wrapper that times and counts
// every file operation and charges it to the calling thread's open span.
//
// Spans live in per-thread buffers and are written out when the run ends.
// With tracing off, ScopedSpan is a single branch and the benchmark runs
// on the bare MemEnv, so the untraced run measures the engine alone.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/env.h"

namespace perfbench {

uint64_t NowNs();

/// File classes the IO wrapper reports separately.
enum class IoClass : int { kStable = 0, kLog, kBackup, kMeta, kCount };
const char* IoClassName(IoClass c);
/// Classifies an env file by the engine's naming conventions.
IoClass ClassifyFile(const std::string& name);

struct IoTotals {
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t syncs = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t busy_ns = 0;
  uint64_t sync_ns = 0;  // the part of busy_ns spent in Sync
};

/// Aggregate of every closed span with one name.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  // total minus child spans and child IO
  uint64_t io_ns = 0;    // IO issued directly inside the span
};

/// Process-wide trace state.
class Tracer {
 public:
  static Tracer& Get();

  /// Switched only between cycles, while no benchmark thread is running.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Interns a span name; call once per call site.
  uint32_t Intern(const char* name);

  void OpenSpan(uint32_t name);
  void CloseSpan();

  /// Charges one file operation to the calling thread's open span.
  void RecordIo(IoClass cls, bool write, bool sync, uint64_t bytes,
                uint64_t ns);

  /// Load-thread busy accounting: time a benchmark thread spent in its
  /// measured loop, and how much of it top-level spans covered.
  void BeginBusy();
  void EndBusy();

  std::map<std::string, SpanTotals> SpanSummary() const;
  IoTotals Io(IoClass cls) const;
  uint64_t busy_ns() const;
  uint64_t covered_ns() const;

  /// Writes the raw spans as TSV: thread, id, parent, name, start, end.
  bool WriteSpans(const std::string& path) const;

 private:
  struct ThreadState;
  ThreadState* Local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards names_ and threads_
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<ThreadState>> threads_;

  struct IoCell {
    std::atomic<uint64_t> read_ops{0}, write_ops{0}, syncs{0};
    std::atomic<uint64_t> read_bytes{0}, write_bytes{0}, busy_ns{0},
        sync_ns{0};
  };
  IoCell io_[static_cast<int>(IoClass::kCount)];
};

/// RAII span; a no-op unless tracing is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(uint32_t name) : on_(Tracer::Get().enabled()) {
    if (on_) Tracer::Get().OpenSpan(name);
  }
  ~ScopedSpan() {
    if (on_) Tracer::Get().CloseSpan();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const bool on_;
};

#define PB_CONCAT2(a, b) a##b
#define PB_CONCAT(a, b) PB_CONCAT2(a, b)
/// Opens a span named `name` (a string literal) until the end of scope.
#define PB_SPAN(name)                                                  \
  static const uint32_t PB_CONCAT(pb_span_id_, __LINE__) =             \
      ::perfbench::Tracer::Get().Intern(name);                         \
  ::perfbench::ScopedSpan PB_CONCAT(pb_span_, __LINE__)(               \
      PB_CONCAT(pb_span_id_, __LINE__))

/// Env wrapper (modelled on LatencyEnv) that times and counts every file
/// operation by file class and reports it to the Tracer. Adds no delay.
class TraceEnv : public llb::Env {
 public:
  /// Does not take ownership of `base`, which must outlive this env.
  explicit TraceEnv(llb::Env* base) : base_(base) {}

  llb::Result<std::shared_ptr<llb::File>> OpenFile(const std::string& name,
                                                   bool create) override;
  llb::Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  bool FileExists(const std::string& name) const override {
    return base_->FileExists(name);
  }
  std::vector<std::string> ListFiles() const override {
    return base_->ListFiles();
  }
  llb::Status RenameFile(const std::string& src,
                         const std::string& dst) override {
    return base_->RenameFile(src, dst);
  }

 private:
  llb::Env* const base_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
