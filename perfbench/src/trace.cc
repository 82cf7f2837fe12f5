#include "trace.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* IoClassName(IoClass c) {
  switch (c) {
    case IoClass::kStable:
      return "stable";
    case IoClass::kLog:
      return "log";
    case IoClass::kBackup:
      return "backup";
    default:
      return "meta";
  }
}

namespace {
bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
}  // namespace

IoClass ClassifyFile(const std::string& name) {
  // Stores: "<db>.stable.p<N>" / ".journal"; backup stores
  // "<bk>.pages.p<N>" / ".journal" plus "<bk>.manifest"; the log
  // "<db>.log". Catalog, cursors, restored-bitmap, role and ship spool
  // cells are metadata.
  if (name.find(".stable.") != std::string::npos) return IoClass::kStable;
  if (EndsWith(name, ".log")) return IoClass::kLog;
  if (name.find(".pages.") != std::string::npos ||
      EndsWith(name, ".manifest")) {
    return IoClass::kBackup;
  }
  return IoClass::kMeta;
}

struct Tracer::ThreadState {
  struct Frame {
    uint32_t name;
    uint64_t start;
    uint64_t child_ns;
    uint64_t io_ns;
    int64_t record;  // index into records, -1 once the log is full
  };
  struct Record {
    uint32_t name;
    int64_t parent;
    uint64_t start;
    uint64_t end;
  };
  // Raw spans kept per thread; later spans still reach the aggregates.
  static constexpr size_t kMaxRecords = size_t{1} << 18;

  uint32_t index = 0;
  std::mutex mu;  // guards everything below against end-of-run readers
  std::vector<Frame> stack;
  std::vector<Record> records;
  std::vector<SpanTotals> totals;  // by interned name
  bool in_busy = false;
  uint64_t busy_start = 0;
  uint64_t busy_ns = 0;
  uint64_t covered_ns = 0;
};

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

uint32_t Tracer::Intern(const char* name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

Tracer::ThreadState* Tracer::Local() {
  thread_local ThreadState* local = nullptr;
  if (local == nullptr) {
    auto state = std::make_unique<ThreadState>();
    state->records.reserve(4096);
    std::lock_guard<std::mutex> lock(mu_);
    state->index = static_cast<uint32_t>(threads_.size());
    local = state.get();
    threads_.push_back(std::move(state));
  }
  return local;
}

void Tracer::OpenSpan(uint32_t name) {
  ThreadState* t = Local();
  std::lock_guard<std::mutex> lock(t->mu);
  int64_t record = -1;
  if (t->records.size() < ThreadState::kMaxRecords) {
    int64_t parent = t->stack.empty() ? -1 : t->stack.back().record;
    t->records.push_back({name, parent, 0, 0});
    record = static_cast<int64_t>(t->records.size() - 1);
  }
  const uint64_t now = NowNs();
  if (record >= 0) t->records[record].start = now;
  t->stack.push_back({name, now, 0, 0, record});
}

void Tracer::CloseSpan() {
  const uint64_t now = NowNs();
  ThreadState* t = Local();
  std::lock_guard<std::mutex> lock(t->mu);
  ThreadState::Frame f = t->stack.back();
  t->stack.pop_back();
  const uint64_t dur = now - f.start;
  if (f.record >= 0) t->records[f.record].end = now;
  if (t->totals.size() <= f.name) t->totals.resize(f.name + 1);
  SpanTotals& s = t->totals[f.name];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  s.io_ns += f.io_ns;
  if (!t->stack.empty()) {
    t->stack.back().child_ns += dur;
  } else if (t->in_busy) {
    t->covered_ns += dur;
  }
}

void Tracer::RecordIo(IoClass cls, bool write, bool sync, uint64_t bytes,
                      uint64_t ns) {
  IoCell& c = io_[static_cast<int>(cls)];
  if (sync) {
    c.syncs.fetch_add(1, std::memory_order_relaxed);
    c.sync_ns.fetch_add(ns, std::memory_order_relaxed);
  } else if (write) {
    c.write_ops.fetch_add(1, std::memory_order_relaxed);
    c.write_bytes.fetch_add(bytes, std::memory_order_relaxed);
  } else {
    c.read_ops.fetch_add(1, std::memory_order_relaxed);
    c.read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  c.busy_ns.fetch_add(ns, std::memory_order_relaxed);
  ThreadState* t = Local();
  std::lock_guard<std::mutex> lock(t->mu);
  if (!t->stack.empty()) {
    t->stack.back().child_ns += ns;
    t->stack.back().io_ns += ns;
  } else if (t->in_busy) {
    t->covered_ns += ns;
  }
}

void Tracer::BeginBusy() {
  if (!enabled_) return;
  ThreadState* t = Local();
  std::lock_guard<std::mutex> lock(t->mu);
  t->in_busy = true;
  t->busy_start = NowNs();
}

void Tracer::EndBusy() {
  if (!enabled_) return;
  ThreadState* t = Local();
  std::lock_guard<std::mutex> lock(t->mu);
  t->busy_ns += NowNs() - t->busy_start;
  t->in_busy = false;
}

std::map<std::string, SpanTotals> Tracer::SpanSummary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanTotals> out;
  for (const auto& t : threads_) {
    std::lock_guard<std::mutex> tl(t->mu);
    for (size_t i = 0; i < t->totals.size(); ++i) {
      const SpanTotals& s = t->totals[i];
      if (s.count == 0) continue;
      SpanTotals& o = out[names_[i]];
      o.count += s.count;
      o.total_ns += s.total_ns;
      o.self_ns += s.self_ns;
      o.io_ns += s.io_ns;
    }
  }
  return out;
}

IoTotals Tracer::Io(IoClass cls) const {
  const IoCell& c = io_[static_cast<int>(cls)];
  IoTotals t;
  t.read_ops = c.read_ops.load();
  t.write_ops = c.write_ops.load();
  t.syncs = c.syncs.load();
  t.read_bytes = c.read_bytes.load();
  t.write_bytes = c.write_bytes.load();
  t.busy_ns = c.busy_ns.load();
  t.sync_ns = c.sync_ns.load();
  return t;
}

uint64_t Tracer::busy_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (const auto& t : threads_) {
    std::lock_guard<std::mutex> tl(t->mu);
    sum += t->busy_ns;
  }
  return sum;
}

uint64_t Tracer::covered_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (const auto& t : threads_) {
    std::lock_guard<std::mutex> tl(t->mu);
    sum += t->covered_ns;
  }
  return sum;
}

bool Tracer::WriteSpans(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  fprintf(f, "thread\tid\tparent\tname\tstart_ns\tend_ns\n");
  for (const auto& t : threads_) {
    std::lock_guard<std::mutex> tl(t->mu);
    for (size_t i = 0; i < t->records.size(); ++i) {
      const ThreadState::Record& r = t->records[i];
      if (r.end == 0) continue;  // still open
      fprintf(f, "%u\t%zu\t%lld\t%s\t%llu\t%llu\n", t->index, i,
              static_cast<long long>(r.parent), names_[r.name].c_str(),
              static_cast<unsigned long long>(r.start),
              static_cast<unsigned long long>(r.end));
    }
  }
  return fclose(f) == 0;
}

namespace {

/// Times each operation of a base file and reports it to the Tracer.
class TraceFile : public llb::File {
 public:
  TraceFile(std::shared_ptr<llb::File> base, IoClass cls)
      : base_(std::move(base)), cls_(cls) {}

  llb::Status ReadAt(uint64_t offset, size_t n,
                     std::string* out) const override {
    const uint64_t t0 = NowNs();
    llb::Status s = base_->ReadAt(offset, n, out);
    Tracer::Get().RecordIo(cls_, false, false, n, NowNs() - t0);
    return s;
  }

  llb::Status ReadAtv(uint64_t offset,
                      const std::vector<llb::IoBuffer>& chunks) const override {
    uint64_t total = 0;
    for (const llb::IoBuffer& c : chunks) total += c.size;
    const uint64_t t0 = NowNs();
    llb::Status s = base_->ReadAtv(offset, chunks);
    Tracer::Get().RecordIo(cls_, false, false, total, NowNs() - t0);
    return s;
  }

  llb::Status WriteAt(uint64_t offset, llb::Slice data) override {
    const uint64_t t0 = NowNs();
    llb::Status s = base_->WriteAt(offset, data);
    Tracer::Get().RecordIo(cls_, true, false, data.size(), NowNs() - t0);
    return s;
  }

  llb::Status WriteAtv(uint64_t offset,
                       const std::vector<llb::Slice>& chunks) override {
    uint64_t total = 0;
    for (const llb::Slice& c : chunks) total += c.size();
    const uint64_t t0 = NowNs();
    llb::Status s = base_->WriteAtv(offset, chunks);
    Tracer::Get().RecordIo(cls_, true, false, total, NowNs() - t0);
    return s;
  }

  llb::Status Append(llb::Slice data) override {
    const uint64_t t0 = NowNs();
    llb::Status s = base_->Append(data);
    Tracer::Get().RecordIo(cls_, true, false, data.size(), NowNs() - t0);
    return s;
  }

  llb::Status Sync() override {
    const uint64_t t0 = NowNs();
    llb::Status s = base_->Sync();
    Tracer::Get().RecordIo(cls_, true, true, 0, NowNs() - t0);
    return s;
  }

  llb::Result<uint64_t> Size() const override { return base_->Size(); }

  llb::Status Truncate(uint64_t size) override {
    return base_->Truncate(size);
  }

 private:
  const std::shared_ptr<llb::File> base_;
  const IoClass cls_;
};

}  // namespace

llb::Result<std::shared_ptr<llb::File>> TraceEnv::OpenFile(
    const std::string& name, bool create) {
  LLB_ASSIGN_OR_RETURN(std::shared_ptr<llb::File> base,
                       base_->OpenFile(name, create));
  return std::shared_ptr<llb::File>(
      std::make_shared<TraceFile>(std::move(base), ClassifyFile(name)));
}

}  // namespace perfbench
