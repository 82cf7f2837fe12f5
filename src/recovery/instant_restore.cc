#include "recovery/instant_restore.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/coding.h"
#include "io/durable_cursor.h"
#include "io/mem_env.h"
#include "io/transfer_pipeline.h"
#include "recovery/log_applier.h"
#include "recovery/redo.h"

namespace llb {

namespace {

constexpr uint32_t kBitmapMagic = 0x4C4C5242;  // "LLRB"
constexpr uint32_t kBitmapVersion = 1;

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

Result<PageChains> PageChains::Build(const std::vector<LogRecord>& slice,
                                     uint32_t partitions,
                                     uint32_t pages_per_partition) {
  PageChains chains;
  chains.pages_per_partition = pages_per_partition;
  chains.begin.assign(uint64_t{partitions} * pages_per_partition + 1, 0);
  // Pass 1: validate every named page and count each page's writers into
  // begin[index + 1]; the prefix sum turns the counts into offsets.
  for (const LogRecord& rec : slice) {
    for (const std::vector<PageId>* set : {&rec.readset, &rec.writeset}) {
      for (const PageId& id : *set) {
        if (id.partition >= partitions || id.page >= pages_per_partition) {
          return Status::Corruption(
              "media-recovery slice record at lsn " + std::to_string(rec.lsn) +
              " names page " + id.ToString() + " outside the backup geometry");
        }
      }
    }
    for (const PageId& id : rec.writeset) ++chains.begin[chains.Index(id) + 1];
  }
  for (size_t i = 1; i < chains.begin.size(); ++i) {
    chains.begin[i] += chains.begin[i - 1];
  }
  // Pass 2: place each record's position at its pages' fill cursors; the
  // forward walk keeps every chain ascending.
  chains.records.resize(chains.begin.back());
  std::vector<size_t> fill(chains.begin.begin(), chains.begin.end() - 1);
  for (size_t pos = 0; pos < slice.size(); ++pos) {
    for (const PageId& id : slice[pos].writeset) {
      chains.records[fill[chains.Index(id)]++] = pos;
    }
  }
  return chains;
}

ClosurePlan PlanClosure(const std::vector<LogRecord>& slice,
                        const PageChains& chains,
                        const std::vector<PageId>& seeds) {
  ClosurePlan plan;
  std::vector<bool> in_closure(chains.begin.size() - 1, false);
  std::vector<PageId> worklist;
  auto add = [&](const PageId& id) {
    uint64_t index = chains.Index(id);
    if (in_closure[index]) return;
    in_closure[index] = true;
    plan.pages.push_back(id);
    worklist.push_back(id);
  };
  for (const PageId& id : seeds) add(id);

  // Every record writing a closure page sits on that page's chain, so the
  // worklist reaches the same least fixpoint a pass-until-stable scan of
  // the whole slice does, touching only the closure's history.
  std::vector<size_t> visited;
  while (!worklist.empty()) {
    uint64_t index = chains.Index(worklist.back());
    worklist.pop_back();
    for (size_t k = chains.begin[index]; k < chains.begin[index + 1]; ++k) {
      size_t pos = chains.records[k];
      visited.push_back(pos);
      for (const PageId& id : slice[pos].readset) add(id);
      for (const PageId& id : slice[pos].writeset) add(id);
    }
  }
  std::sort(plan.pages.begin(), plan.pages.end());
  std::sort(visited.begin(), visited.end());
  visited.erase(std::unique(visited.begin(), visited.end()), visited.end());

  // The slice is in LSN order, so a chain's last identity write is the
  // page's newest.
  for (const PageId& id : plan.pages) {
    uint64_t index = chains.Index(id);
    size_t newest = slice.size();
    for (size_t k = chains.begin[index]; k < chains.begin[index + 1]; ++k) {
      const LogRecord& rec = slice[chains.records[k]];
      if (rec.IsIdentityWrite() && rec.writeset.size() == 1) {
        newest = chains.records[k];
      }
    }
    if (newest != slice.size()) plan.identity_seeds.push_back(newest);
  }
  for (size_t pos : visited) {
    if (!slice[pos].IsIdentityWrite()) plan.replay.push_back(pos);
  }
  return plan;
}

InstantRestorer::InstantRestorer(Env* env, std::string bitmap_name,
                                 std::string backup_name,
                                 const OpRegistry& registry, PageStore* stable,
                                 LogManager* log,
                                 const InstantRestoreOptions& options,
                                 RestoreChainPlan plan)
    : env_(env),
      bitmap_name_(std::move(bitmap_name)),
      backup_name_(std::move(backup_name)),
      registry_(registry),
      stable_(stable),
      log_(log),
      options_(options),
      plan_(std::move(plan)) {}

Result<std::unique_ptr<InstantRestorer>> InstantRestorer::Open(
    Env* env, const std::string& bitmap_name, const std::string& backup_name,
    const OpRegistry& registry, PageStore* stable, LogManager* log,
    const InstantRestoreOptions& options) {
  LLB_ASSIGN_OR_RETURN(RestoreChainPlan plan,
                       LoadRestoreChain(env, backup_name));
  std::unique_ptr<InstantRestorer> restorer(
      new InstantRestorer(env, bitmap_name, backup_name, registry, stable, log,
                          options, std::move(plan)));
  LLB_RETURN_IF_ERROR(restorer->Init());
  return restorer;
}

Result<RestoreStatus> InstantRestorer::InspectBitmap(
    Env* env, const std::string& bitmap_name, std::string* backup_name) {
  LLB_ASSIGN_OR_RETURN(std::string cell, DurableCursor::Load(env, bitmap_name));
  SliceReader reader{Slice(cell)};
  uint32_t magic = 0, version = 0, parts = 0, ppp = 0;
  uint64_t tail = 0;
  Slice name;
  if (!reader.ReadFixed32(&magic) || magic != kBitmapMagic ||
      !reader.ReadFixed32(&version) || version != kBitmapVersion ||
      !reader.ReadFixed64(&tail) || !reader.ReadLengthPrefixed(&name) ||
      !reader.ReadFixed32(&parts) || !reader.ReadFixed32(&ppp)) {
    return Status::Corruption("restored-bitmap cell malformed: " + bitmap_name);
  }
  uint64_t total = uint64_t{parts} * ppp;
  Slice raw_bits;
  if (!reader.ReadBytes((total + 7) / 8, &raw_bits)) {
    return Status::Corruption("restored-bitmap cell malformed: " + bitmap_name);
  }
  RestoreStatus status;
  status.restoring = true;
  status.pages_total = total;
  for (uint64_t pos = 0; pos < total; ++pos) {
    if ((static_cast<uint8_t>(raw_bits[pos >> 3]) & (1u << (pos & 7))) != 0) {
      ++status.pages_restored;
    }
  }
  status.complete = status.pages_restored == total;
  status.recovery_tail = tail;
  if (total > 0) {
    status.fraction =
        static_cast<double>(status.pages_restored) / static_cast<double>(total);
  }
  if (backup_name != nullptr) *backup_name = name.ToString();
  return status;
}

Status InstantRestorer::Init() {
  partitions_ = plan_.base().partitions;
  pages_per_partition_ = plan_.base().pages_per_partition;
  total_pages_ = uint64_t{partitions_} * pages_per_partition_;
  if (stable_->num_partitions() != partitions_) {
    return Status::InvalidArgument(
        "restore target partition count does not match the backup chain");
  }
  for (const BackupManifest& m : plan_.chain) {
    LLB_ASSIGN_OR_RETURN(std::unique_ptr<PageStore> store,
                         PageStore::Open(env_, m.StoreName(), m.partitions));
    carriers_.push_back(std::move(store));
  }
  decoder_ = std::make_unique<codec::FrameDecoder>(env_, partitions_);

  bits_.assign((total_pages_ + 7) / 8, 0);
  Result<std::string> cell = DurableCursor::Load(env_, bitmap_name_);
  if (cell.ok()) {
    // Resume: a crash interrupted a previous restoring session. The cell
    // pins the recovery tail and the chain; bits cleared by the crash
    // (set in memory but never saved) simply re-restore.
    SliceReader reader{Slice(*cell)};
    uint32_t magic = 0, version = 0, parts = 0, ppp = 0;
    uint64_t tail = 0;
    Slice name, raw_bits;
    if (!reader.ReadFixed32(&magic) || magic != kBitmapMagic ||
        !reader.ReadFixed32(&version) || version != kBitmapVersion ||
        !reader.ReadFixed64(&tail) || !reader.ReadLengthPrefixed(&name) ||
        !reader.ReadFixed32(&parts) || !reader.ReadFixed32(&ppp) ||
        !reader.ReadBytes(bits_.size(), &raw_bits)) {
      return Status::Corruption("restored-bitmap cell malformed: " +
                                bitmap_name_);
    }
    if (name.ToString() != backup_name_ || parts != partitions_ ||
        ppp != pages_per_partition_) {
      return Status::InvalidArgument(
          "restored-bitmap cell belongs to a different restore (backup '" +
          name.ToString() + "'); finish or discard that restore first");
    }
    recovery_tail_ = tail;
    std::memcpy(bits_.data(), raw_bits.data(), bits_.size());
    for (uint64_t pos = 0; pos < total_pages_; ++pos) {
      if ((bits_[pos >> 3] & (1u << (pos & 7))) != 0) ++restored_count_;
    }
  } else if (cell.status().IsNotFound()) {
    // First restoring open after the media failure: freeze the durable
    // log tail and pin it durably BEFORE any transaction can append —
    // the slice/new-work split must survive a crash that loses the
    // in-memory value.
    recovery_tail_ = log_->durable_lsn();
    std::lock_guard<std::mutex> lock(mu_);
    LLB_RETURN_IF_ERROR(SaveBitmapLocked());
  } else {
    return cell.status();
  }

  // Snapshot the media-recovery slice. Taken before new appends (Open
  // precedes serving), so the snapshot equals the log range
  // [newest.start_lsn, recovery_tail] for the restore's whole lifetime —
  // closures and replays never race the live log.
  LLB_RETURN_IF_ERROR(
      log_->Scan(plan_.newest().start_lsn, [&](LogRecord&& rec) {
        if (rec.lsn > recovery_tail_ || rec.IsCheckpoint()) {
          return Status::OK();
        }
        slice_.push_back(std::move(rec));
        return Status::OK();
      }));
  LLB_ASSIGN_OR_RETURN(
      chains_, PageChains::Build(slice_, partitions_, pages_per_partition_));
  return Status::OK();
}

void InstantRestorer::SetBitLocked(const PageId& id) {
  uint64_t pos = chains_.Index(id);
  uint8_t mask = static_cast<uint8_t>(1u << (pos & 7));
  if ((bits_[pos >> 3] & mask) == 0) {
    bits_[pos >> 3] |= mask;
    ++restored_count_;
  }
}

Status InstantRestorer::SaveBitmapLocked() {
  std::string payload;
  PutFixed32(&payload, kBitmapMagic);
  PutFixed32(&payload, kBitmapVersion);
  PutFixed64(&payload, recovery_tail_);
  PutLengthPrefixed(&payload, Slice(backup_name_));
  PutFixed32(&payload, partitions_);
  PutFixed32(&payload, pages_per_partition_);
  payload.append(reinterpret_cast<const char*>(bits_.data()), bits_.size());
  LLB_RETURN_IF_ERROR(DurableCursor::Save(env_, bitmap_name_, Slice(payload)));
  ++bitmap_saves_;
  return Status::OK();
}

Status InstantRestorer::RestoreClosureLocked(const std::vector<PageId>& seeds,
                                             const std::function<bool()>& pause,
                                             uint64_t* installed) {
  *installed = 0;

  // 1. Influence closure and its records, from the per-page chains.
  //    Operations never span partitions, so the closure stays within the
  //    seeds' partitions.
  ClosurePlan closure = PlanClosure(slice_, chains_, seeds);
  const std::vector<PageId>& pages = closure.pages;

  // 2. Scratch overlay: a private in-memory store seeded with the
  //    closure's newest-carrier images. Always fresh — mixing previously
  //    replayed (post-slice) values with raw carrier values would not be
  //    a legal redo base for logical operations (the paper's Figure 1
  //    problem in miniature).
  MemEnv scratch_env;
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<PageStore> scratch,
                       PageStore::Open(&scratch_env, "irscratch", partitions_));
  std::vector<std::vector<PageId>> claims = plan_.Claims(pages);
  for (size_t i = 0; i < claims.size(); ++i) {
    if (claims[i].empty()) continue;
    TransferPlan seed_plan;
    seed_plan.AddPages(claims[i], options_.batch_pages);
    TransferOptions seed_opts;
    seed_opts.batch_pages = options_.batch_pages;
    seed_opts.queue_depth = options_.queue_depth;
    seed_opts.transform = [this](const TransferRun& run,
                                 std::vector<PageImage>* images) {
      return decoder_->DecodeRun(run, images);
    };
    TransferPipeline pipeline(carriers_[i].get(), scratch.get(), seed_opts);
    LLB_RETURN_IF_ERROR(pipeline.Run(seed_plan, nullptr));
  }

  // 3. Replay the closure's records. Mirrors RunRedoRange over a
  //    restored base: identity writes seed (install-without-flush — an
  //    installed operation's effects may exist only on the log),
  //    everything else replays in LSN order under the per-target LSN
  //    test. Readsets are inside the closure by the fixpoint, so every
  //    replay sees exactly the page states the full offline replay would.
  LogApplier applier(registry_, scratch.get());
  for (size_t pos : closure.identity_seeds) {
    const LogRecord& rec = slice_[pos];
    LLB_RETURN_IF_ERROR(
        applier.SeedPage(rec.writeset[0], rec.payload, rec.lsn, nullptr));
  }
  for (size_t pos : closure.replay) {
    LLB_RETURN_IF_ERROR(applier.Apply(slice_[pos]));
  }
  LLB_RETURN_IF_ERROR(applier.Flush());
  records_replayed_ += closure.identity_seeds.size() + closure.replay.size();

  // 4. Install into S only the closure pages still unrestored: a set bit
  //    means the live page may already be newer than the slice state
  //    (the transaction that faulted it in has moved on) — never
  //    clobber. Bits are set per durably-written run (after_run), then
  //    the bitmap is persisted once — also after a pause or partial
  //    failure, so exactly what landed is recorded.
  std::vector<PageId> to_install;
  for (const PageId& id : pages) {
    if (!TestBitLocked(id)) to_install.push_back(id);
  }
  if (to_install.empty()) return Status::OK();
  TransferPlan install_plan;
  install_plan.AddPages(to_install, options_.batch_pages);
  TransferOptions install_opts;
  install_opts.batch_pages = options_.batch_pages;
  install_opts.queue_depth = options_.queue_depth;
  install_opts.pause = pause;
  install_opts.after_run = [this, installed](
                               const TransferRun& run,
                               const std::vector<PageImage>&) {
    for (uint32_t k = 0; k < run.count; ++k) {
      SetBitLocked(PageId{run.partition, run.first_page + k});
    }
    *installed += run.count;
    return Status::OK();
  };
  TransferPipeline install(scratch.get(), stable_, install_opts);
  Status run_status = install.Run(install_plan, nullptr);
  Status save_status = SaveBitmapLocked();
  LLB_RETURN_IF_ERROR(run_status);
  return save_status;
}

Status InstantRestorer::RestoreOnFault(const PageId& id) {
  if (id.partition >= partitions_ || id.page >= pages_per_partition_) {
    // Outside the backed-up geometry: nothing to restore (the page was
    // never written before the failure; it reads as zero).
    return Status::OK();
  }
  faults_waiting_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(mu_);
  faults_waiting_.fetch_sub(1, std::memory_order_acq_rel);
  faults_admitted_.notify_all();
  if (TestBitLocked(id)) return Status::OK();
  uint64_t installed = 0;
  Status s = RestoreClosureLocked({id}, nullptr, &installed);
  faulted_pages_ += installed;
  if (installed > 0) closure_extra_pages_ += installed - 1;
  return s;
}

Result<uint64_t> InstantRestorer::Step() {
  std::unique_lock<std::mutex> lock(mu_);
  faults_admitted_.wait(lock, [this] {
    return faults_waiting_.load(std::memory_order_acquire) == 0;
  });
  const uint64_t max_pages = std::max<uint32_t>(1, options_.step_pages);
  std::vector<PageId> seeds;
  for (uint64_t pos = 0; pos < total_pages_ && seeds.size() < max_pages;
       ++pos) {
    if ((bits_[pos >> 3] & (1u << (pos & 7))) == 0) {
      seeds.push_back(
          PageId{static_cast<PartitionId>(pos / pages_per_partition_),
                 static_cast<uint32_t>(pos % pages_per_partition_)});
    }
  }
  if (seeds.empty()) return uint64_t{0};
  auto started = std::chrono::steady_clock::now();
  uint64_t installed = 0;
  Status s = RestoreClosureLocked(
      seeds,
      [this] {
        return faults_waiting_.load(std::memory_order_acquire) > 0;
      },
      &installed);
  sweep_pages_ += installed;
  if (installed > 0) sweep_us_ += ElapsedUs(started);
  LLB_RETURN_IF_ERROR(s);
  return installed;
}

Status InstantRestorer::Drain() {
  while (!complete()) {
    LLB_ASSIGN_OR_RETURN(uint64_t moved, Step());
    (void)moved;
  }
  return Status::OK();
}

Status InstantRestorer::ResumeRedo() {
  LLB_ASSIGN_OR_RETURN(
      RedoReport report,
      RunRedoRange(*log_, registry_, stable_, recovery_tail_ + 1, kInvalidLsn,
                   /*only_partition=*/nullptr));
  (void)report;
  return Status::OK();
}

bool InstantRestorer::complete() const {
  std::lock_guard<std::mutex> lock(mu_);
  return restored_count_ == total_pages_;
}

Status InstantRestorer::Finalize() {
  std::lock_guard<std::mutex> lock(mu_);
  if (restored_count_ != total_pages_) {
    return Status::FailedPrecondition("restore incomplete: " +
                                      std::to_string(restored_count_) + "/" +
                                      std::to_string(total_pages_) + " pages");
  }
  return DurableCursor::Remove(env_, bitmap_name_);
}

RestoreStatus InstantRestorer::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  RestoreStatus s;
  s.restoring = true;
  s.complete = restored_count_ == total_pages_;
  s.pages_total = total_pages_;
  s.pages_restored = restored_count_;
  s.pages_faulted = faulted_pages_;
  s.closure_pages = closure_extra_pages_;
  s.sweep_pages = sweep_pages_;
  s.bitmap_saves = bitmap_saves_;
  s.slice_records = slice_.size();
  s.records_replayed = records_replayed_;
  s.recovery_tail = recovery_tail_;
  s.fraction = total_pages_ == 0
                   ? 1.0
                   : static_cast<double>(restored_count_) /
                         static_cast<double>(total_pages_);
  if (sweep_pages_ > 0 && restored_count_ < total_pages_) {
    s.eta_us = (total_pages_ - restored_count_) * (sweep_us_ / sweep_pages_);
  }
  return s;
}

}  // namespace llb
