// The engine wrapper, the correctness ledger and the recovery leg shared
// by every workload.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/crc32c.h"
#include "io/durable_cursor.h"
#include "recovery/checkpoint.h"
#include "recovery/media_recovery.h"
#include "recovery/redo.h"
#include "ship/standby_applier.h"
#include "sim/harness.h"
#include "sim/oracle.h"
#include "wal/log_manager.h"

namespace perfbench {

using llb::Database;
using llb::Status;

bool Checks::Expect(bool ok, const std::string& what) {
  attempted_.fetch_add(1);
  if (!ok) {
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 20) messages_.push_back(what);
  }
  return ok;
}

void Checks::AddOps(uint64_t attempted, uint64_t failed,
                    const std::string& first_failure) {
  attempted_.fetch_add(attempted);
  failed_.fetch_add(failed);
  if (failed > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 20) messages_.push_back(first_failure);
  }
}

std::vector<std::string> Checks::messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

void LayerCounters::AddWindow(const llb::DbStats& a, const llb::DbStats& b) {
  hits += b.cache.hits - a.cache.hits;
  misses += b.cache.misses - a.cache.misses;
  evictions += b.cache.evictions - a.cache.evictions;
  decisions += b.cache.decisions - a.cache.decisions;
  decisions_logged += b.cache.decisions_logged - a.cache.decisions_logged;
  install_waits += b.cache.install_waits - a.cache.install_waits;
  overlapped_installs +=
      b.cache.overlapped_installs - a.cache.overlapped_installs;
  log_bytes += b.log.bytes - a.log.bytes;
  identity_bytes += b.log.identity_bytes - a.log.identity_bytes;
  forces += b.log.forces - a.log.forces;
  group_commits += b.log.group_commits - a.log.group_commits;
  installs += b.graph.installs - a.graph.installs;
  max_vars = std::max<uint64_t>(max_vars, b.graph.max_vars_ever);
}

void LayerCounters::AddIo(const std::vector<IoTotals>& a,
                          const std::vector<IoTotals>& b) {
  for (size_t c = 0; c < a.size(); ++c) {
    io[c].read_ops += b[c].read_ops - a[c].read_ops;
    io[c].write_ops += b[c].write_ops - a[c].write_ops;
    io[c].syncs += b[c].syncs - a[c].syncs;
    io[c].read_bytes += b[c].read_bytes - a[c].read_bytes;
    io[c].write_bytes += b[c].write_bytes - a[c].write_bytes;
    io[c].busy_ns += b[c].busy_ns - a[c].busy_ns;
    io[c].sync_ns += b[c].sync_ns - a[c].sync_ns;
  }
}

std::vector<IoTotals> SnapshotIo() {
  std::vector<IoTotals> out;
  for (int c = 0; c < static_cast<int>(IoClass::kCount); ++c) {
    out.push_back(Tracer::Get().Io(static_cast<IoClass>(c)));
  }
  return out;
}

Engine::Engine(const llb::DbOptions& opts, bool trace) : options(opts) {
  if (trace) traced = std::make_unique<TraceEnv>(&mem);
  env = trace ? static_cast<llb::Env*>(traced.get()) : &mem;
}

Status Engine::Open() {
  db.reset();
  LLB_ASSIGN_OR_RETURN(db, Database::Open(env, name, options));
  llb::RegisterAllOps(db->registry());
  return db->Recover();
}

Status Engine::WipeStable() {
  LLB_ASSIGN_OR_RETURN(
      std::unique_ptr<llb::PageStore> stable,
      llb::PageStore::Open(env, Database::StableName(name),
                           options.partitions));
  for (llb::PartitionId p = 0; p < options.partitions; ++p) {
    LLB_RETURN_IF_ERROR(stable->WipePartition(p));
  }
  return Status::OK();
}

const std::vector<double>* Samples::Get(const std::string& metric) const {
  auto it = values_.find(metric);
  return it == values_.end() ? nullptr : &it->second;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 10;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double Percentile(std::vector<float>* v, double q) {
  if (v->empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  rank = std::clamp<size_t>(rank, 1, v->size()) - 1;
  std::nth_element(v->begin(), v->begin() + rank, v->end());
  return (*v)[rank];
}

Status ShipSide::Attach(Engine* engine) {
  Detach();
  shipper_ = std::make_unique<llb::LogShipper>(engine->env, engine->name,
                                               engine->db->log(), &channel_);
  return shipper_->Attach();
}

void ShipSide::Detach() {
  if (shipper_ == nullptr) return;
  llb::ShipStats s = shipper_->stats();
  done_.frames_sent += s.frames_sent;
  done_.bytes_sent += s.bytes_sent;
  shipper_.reset();
}

Status ShipSide::Pump() {
  PB_SPAN("ship.pump");
  return shipper_ == nullptr ? Status::OK() : shipper_->Pump();
}

llb::ShipStats ShipSide::stats() const {
  llb::ShipStats s = done_;
  if (shipper_ != nullptr) {
    s.frames_sent += shipper_->stats().frames_sent;
    s.bytes_sent += shipper_->stats().bytes_sent;
  }
  return s;
}

namespace {

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Crash redo through the recovery layer's own entry points, so the
/// traced run can report the redo counters Database::Recover discards.
/// The Database::Open that follows finds nothing left to replay.
void TracedCrashRedo(Engine* engine, Checks* checks, LayerCounters* layers) {
  auto log =
      llb::LogManager::Open(engine->env, Database::LogName(engine->name));
  if (!checks->ExpectOk(log.status(), "open log for crash redo")) return;
  auto stable = llb::PageStore::Open(
      engine->env, Database::StableName(engine->name),
      engine->options.partitions);
  if (!checks->ExpectOk(stable.status(), "open S for crash redo")) return;
  llb::OpRegistry registry;
  llb::RegisterAllOps(&registry);
  auto start = llb::FindCrashRedoStart(*log.value());
  if (!checks->ExpectOk(start.status(), "find crash redo start")) return;
  llb::Result<llb::RedoReport> report = [&] {
    PB_SPAN("recovery.crash_redo");
    return llb::RunRedo(*log.value(), registry, stable.value().get(),
                        start.value());
  }();
  if (!checks->ExpectOk(report.status(), "crash redo")) return;
  ++layers->crashes;
  layers->crash_scanned += report.value().records_scanned;
  layers->crash_replayed += report.value().ops_replayed;
  layers->crash_seeded += report.value().pages_seeded;
  layers->crash_written += report.value().pages_written;
}

Status OpenStable(Engine* engine, std::unique_ptr<llb::PageStore>* out) {
  LLB_ASSIGN_OR_RETURN(*out,
                       llb::PageStore::Open(engine->env,
                                            Database::StableName(engine->name),
                                            engine->options.partitions));
  return Status::OK();
}

/// Quiesces the primary (cache flushed, log forced) and closes it.
Status Close(Engine* engine, ShipSide* ship) {
  ship->Detach();
  if (engine->db == nullptr) return Status::OK();
  Status s = engine->db->FlushAll();
  engine->db.reset();
  return s;
}

/// Self-test damage: flips one page the restore must read from the chain
/// head, so an honest restore check fails.
Status CorruptRestoreSource(Engine* engine, const std::string& head) {
  LLB_ASSIGN_OR_RETURN(llb::BackupManifest m,
                       llb::BackupManifest::Load(engine->env, head));
  llb::PageId victim{0, 1};
  if (m.incremental && !m.pages.empty()) victim = m.pages.front();
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<llb::PageStore> store,
                       llb::PageStore::Open(engine->env, m.StoreName(),
                                            m.partitions));
  return store->CorruptPage(victim);
}

/// Collects every frame the channel holds. In channel sequence order the
/// frames must carry increasing LSNs; the known Attach seq inversion
/// breaks this and is recorded as a failure, not retried around.
bool CheckFrameOrder(ShipSide* ship, Checks* checks,
                     std::vector<llb::ShipFrame>* frames) {
  if (!checks->ExpectOk(ship->channel()->Poll(1, frames), "poll channel")) {
    return false;
  }
  std::sort(frames->begin(), frames->end(),
            [](const llb::ShipFrame& a, const llb::ShipFrame& b) {
              return a.seq < b.seq;
            });
  bool ordered = true;
  for (size_t i = 1; i < frames->size(); ++i) {
    if ((*frames)[i].first_lsn <= (*frames)[i - 1].first_lsn) ordered = false;
  }
  return checks->Expect(ordered,
                        "ship frames out of LSN order in seq order (Attach "
                        "seq inversion)");
}

}  // namespace

void RunRecoveryLeg(Engine* engine, const Args& args, const LegHooks& hooks,
                    ShipSide* ship, Checks* checks, Samples* samples,
                    LayerCounters* layers) {
  const bool traced = Tracer::Get().enabled();
  // Every timed phase runs kRounds times per cycle, and the cycle's sample
  // is the median round, so one scheduling hiccup cannot set it.
  constexpr int kRounds = 3;
  std::vector<double> rounds;
  auto add_median = [&](const char* metric) {
    samples->Add(metric, Median(rounds));
    rounds.clear();
  };
  uint64_t txn_index = 0;
  auto run_txn = [&](Database* db) {
    checks->ExpectOk(hooks.txn(db, txn_index++), "recovery-leg transaction");
  };

  // 1. Crash recovery: a fixed burst past the last checkpoint, forced,
  //    then power loss; timed from the crash to Recover() returning.
  for (int r = 0; r < kRounds; ++r) {
    for (uint32_t i = 0; i < hooks.burst; ++i) run_txn(engine->db.get());
    if (!checks->ExpectOk(engine->db->ForceLog(), "force before crash")) {
      return;
    }
    ship->Detach();
    engine->Crash();
    const uint64_t t0 = NowNs();
    if (traced) TracedCrashRedo(engine, checks, layers);
    Status s;
    {
      PB_SPAN("db.recover");
      s = engine->Open();
    }
    if (!checks->ExpectOk(s, "crash recovery")) return;
    rounds.push_back(Ms(NowNs() - t0));
  }
  add_median("crash_recovery_ms");
  hooks.verify(engine->db.get(), "after crash recovery");

  // 2. Instant restore: wipe S, open restoring, first committed
  //    transaction. Earlier rounds are abandoned there (bitmap removed, S
  //    wiped again); the last one keeps transactions running, interleaved
  //    with sweep steps, until the sweep drains.
  checks->ExpectOk(Close(engine, ship), "quiesce before media failure");
  uint64_t t1 = 0;
  for (int r = 0; r < kRounds; ++r) {
    if (r > 0) {
      engine->db.reset();
      Status removed = llb::DurableCursor::Remove(
          engine->env, Database::RestoreBitmapName(engine->name));
      if (!removed.ok() && !removed.IsNotFound()) {
        checks->ExpectOk(removed, "remove restored-bitmap");
        return;
      }
    }
    if (!checks->ExpectOk(engine->WipeStable(), "wipe S")) return;
    const uint64_t t0 = NowNs();
    llb::Result<std::unique_ptr<Database>> opened = [&] {
      PB_SPAN("db.open_restoring");
      return Database::OpenRestoring(engine->env, engine->name,
                                     engine->options, hooks.chain_head);
    }();
    if (!checks->ExpectOk(opened.status(), "open restoring")) return;
    engine->db = std::move(opened).value();
    llb::RegisterAllOps(engine->db->registry());
    {
      PB_SPAN("db.recover");
      if (!checks->ExpectOk(engine->db->Recover(), "recover restoring")) {
        return;
      }
    }
    {
      PB_SPAN("instant.first_txn");
      run_txn(engine->db.get());
      checks->ExpectOk(engine->db->ForceLog(), "commit first transaction");
    }
    t1 = NowNs();
    rounds.push_back(Ms(t1 - t0));
  }
  add_median("instant_ttft_ms");
  uint64_t txns = 0;
  llb::RestoreStatus last;
  while (engine->db->restoring()) {
    for (int i = 0; i < 4; ++i, ++txns) run_txn(engine->db.get());
    last = engine->db->restore_status();
    PB_SPAN("instant.step");
    if (!checks->ExpectOk(engine->db->RestoreStep().status(),
                          "restore step")) {
      return;
    }
  }
  samples->Add("txn_per_s_during_restore",
               static_cast<double>(txns) /
                   (static_cast<double>(NowNs() - t1) / 1e9));
  ++layers->instants;
  layers->faulted += last.pages_faulted;
  layers->closure += last.closure_pages;
  layers->bitmap_saves += last.bitmap_saves;
  checks->ExpectOk(engine->db->FinishRestore(), "finish restore");
  hooks.verify(engine->db.get(), "after instant restore");

  // The drained instant restore is the reference every off-line restore
  // and the standby must reproduce.
  checks->ExpectOk(engine->db->ForceLog(), "force before snapshot");
  if (!checks->ExpectOk(Close(engine, ship), "quiesce before snapshot")) {
    return;
  }
  const uint32_t parts = engine->options.partitions;
  const uint32_t pages = engine->options.pages_per_partition;
  std::unique_ptr<llb::PageStore> ref;
  {
    std::unique_ptr<llb::PageStore> stable;
    if (!checks->ExpectOk(OpenStable(engine, &stable), "open S")) return;
    auto opened = llb::PageStore::Open(engine->env, "ref", parts);
    if (!checks->ExpectOk(opened.status(), "open reference store")) return;
    ref = std::move(opened).value();
    if (!checks->ExpectOk(ref->CopyAllFrom(*stable, pages), "snapshot S")) {
      return;
    }
  }
  llb::OpRegistry registry;
  llb::RegisterAllOps(&registry);
  if (hooks.oracle) {
    auto log =
        llb::LogManager::Open(engine->env, Database::LogName(engine->name));
    std::unique_ptr<llb::PageStore> oracle;
    if (checks->ExpectOk(log.status(), "open log for oracle") &&
        checks->ExpectOk(llb::testutil::BuildOracle(engine->env, *log.value(),
                                                    registry, "oracle", parts,
                                                    &oracle),
                         "build oracle")) {
      const std::string diff =
          llb::testutil::DiffStores(*ref, *oracle, parts, pages);
      checks->Expect(diff.empty(),
                     "instant-restored S differs from oracle at " + diff);
    }
  }

  // 3. Off-line chain restore, each round diffed against the reference.
  for (int r = 0; r < kRounds; ++r) {
    if (!checks->ExpectOk(engine->WipeStable(), "wipe S")) return;
    if (args.corrupt_backup && r == 0) {
      checks->ExpectOk(CorruptRestoreSource(engine, hooks.chain_head),
                       "self-test: corrupt a backup page");
    }
    llb::RestoreOptions restore;
    restore.batch_pages = 32;
    const uint64_t t0 = NowNs();
    llb::Result<llb::MediaRecoveryReport> report = [&] {
      PB_SPAN("recovery.restore");
      return llb::RestoreFromBackupWithOptions(
          engine->env, Database::StableName(engine->name),
          Database::LogName(engine->name), hooks.chain_head, registry,
          restore);
    }();
    const uint64_t restore_ns = NowNs() - t0;
    if (!checks->ExpectOk(report.status(), "off-line chain restore")) continue;
    rounds.push_back(Ms(restore_ns));
    ++layers->restores;
    layers->restore_scanned += report.value().redo.records_scanned;
    layers->restore_replayed += report.value().redo.ops_replayed;
    layers->restore_seeded += report.value().redo.pages_seeded;
    layers->restore_written += report.value().redo.pages_written;
    std::unique_ptr<llb::PageStore> stable;
    if (checks->ExpectOk(OpenStable(engine, &stable), "open S")) {
      const std::string diff =
          llb::testutil::DiffStores(*stable, *ref, parts, pages);
      checks->Expect(diff.empty(),
                     "off-line restore differs from drained instant restore "
                     "at " + diff);
    }
  }
  if (!rounds.empty()) add_median("restore_ms");

  // 4. Standby: ship whatever the channel lacks; then fresh standbys each
  //    drain a channel holding every frame.
  if (!checks->ExpectOk(engine->Open(), "reopen primary")) return;
  if (!checks->ExpectOk(ship->Attach(engine), "attach shipper") ||
      !checks->ExpectOk(ship->Pump(), "pump shipper")) {
    return;
  }
  std::vector<llb::ShipFrame> frames;
  if (!CheckFrameOrder(ship, checks, &frames)) return;
  const llb::Lsn primary_lsn = engine->db->log()->durable_lsn();
  llb::DbOptions standby_options = engine->options;
  standby_options.standby = true;
  uint64_t records_applied = 0;
  for (int r = 0; r < kRounds; ++r) {
    llb::InProcessShipChannel channel;
    for (const llb::ShipFrame& f : frames) {
      if (!checks->ExpectOk(channel.Send(f), "refill channel")) return;
    }
    auto standby = Database::Open(engine->env, "sb" + std::to_string(r),
                                  standby_options);
    if (!checks->ExpectOk(standby.status(), "open standby")) return;
    llb::RegisterAllOps(standby.value()->registry());
    if (!checks->ExpectOk(standby.value()->Recover(), "recover standby")) {
      return;
    }
    llb::StandbyApplier applier(standby.value().get(), &channel);
    if (!checks->ExpectOk(applier.CatchUpFromLocalLog(), "standby catch-up")) {
      return;
    }
    const uint64_t t0 = NowNs();
    Status drained;
    {
      PB_SPAN("ship.drain");
      drained = applier.Drain();
    }
    const uint64_t drain_ns = NowNs() - t0;
    if (!checks->ExpectOk(drained, "standby drain")) return;
    rounds.push_back(static_cast<double>(applier.stats().bytes_applied) /
                     1e6 / (static_cast<double>(drain_ns) / 1e9));
    records_applied = applier.stats().records_applied;
    checks->Expect(applier.applied_lsn() == primary_lsn,
                   "standby applied through " +
                       std::to_string(applier.applied_lsn()) +
                       ", primary at " + std::to_string(primary_lsn));
    const std::string diff = llb::testutil::DiffStores(
        *standby.value()->stable(), *ref, parts, pages);
    checks->Expect(diff.empty(), "standby differs from primary at " + diff);
  }
  add_median("standby_apply_mb_per_s");
  ++layers->ship_cycles;
  const llb::ShipStats ship_stats = ship->stats();
  layers->frames_sent += ship_stats.frames_sent;
  layers->ship_bytes += ship_stats.bytes_sent;
  layers->records_applied += records_applied;
}

std::string ContextJson(const Args& args) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const std::string build_type = PB_BUILD_TYPE;
  const bool release = ndebug && (build_type == "Release" ||
                                  build_type == "RelWithDebInfo");
  char buf[1024];
  snprintf(buf, sizeof(buf),
           "{\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
           "\"ndebug\": %s, \"release_build\": %s, \"crc32c_backend\": "
           "\"%s\", \"seed\": %llu, \"workload\": \"%s\", \"seconds\": %g, "
           "\"trace\": %s, \"google_benchmark_build_type\": \"%s\"}",
           std::thread::hardware_concurrency(), PB_COMPILER,
           build_type.c_str(), ndebug ? "true" : "false",
           release ? "true" : "false", llb::crc32c::Backend(),
           static_cast<unsigned long long>(args.seed), args.workload.c_str(),
           args.seconds, args.trace ? "true" : "false", PB_GBENCH_BUILD_TYPE);
  return buf;
}

}  // namespace perfbench
