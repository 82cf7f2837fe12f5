// The workloads. Each cycle builds a fresh engine (timed as set-up), runs
// a closed-loop foreground window, then the shared recovery leg.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "bench.h"
#include "btree/btree.h"
#include "common/random.h"
#include "filestore/filestore.h"
#include "storage/page.h"

namespace perfbench {

using llb::Database;
using llb::Status;

namespace {

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  return seed * 0x9E3779B97F4A7C15ull ^ (a + 1) * 0xBF58476D1CE4E5B9ull ^
         (b + 1) * 0x94D049BB133111EBull;
}

/// Pins the calling load thread to one CPU so the scheduler cannot
/// stack two load threads on a core; skipped on hosts with fewer
/// than four CPUs, where one must stay free for the engine's pool.
void PinToCpu(int cpu) {
  if (std::thread::hardware_concurrency() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Latencies of one cycle's foreground window, per operation kind.
struct Window {
  std::vector<float> update_us;
  std::vector<float> read_us;
  uint64_t ns = 0;
  uint64_t user_bytes = 0;
};

void AddWindowSamples(Window* w, Samples* samples, const char* ops_metric) {
  const double ops =
      static_cast<double>(w->update_us.size() + w->read_us.size());
  samples->Add(ops_metric, ops / Seconds(w->ns));
  samples->Add("update_p50_us", Percentile(&w->update_us, 0.50));
  samples->Add("update_p99_us", Percentile(&w->update_us, 0.99));
  samples->Add("read_p50_us", Percentile(&w->read_us, 0.50));
  samples->Add("read_p99_us", Percentile(&w->read_us, 0.99));
}

/// Sums the sweep stats of full backups taken in the foreground window.
struct BackupTally {
  uint64_t count = 0, pages = 0, ns = 0, fence_updates = 0, read_batches = 0,
           read_stage_us = 0, write_stage_us = 0;

  void Add(const llb::BackupJobStats& s, uint64_t ns_taken) {
    ++count;
    pages += s.pages_copied;
    ns += ns_taken;
    fence_updates += s.fence_updates;
    read_batches += s.read_batches;
    read_stage_us += s.read_stage_us;
    write_stage_us += s.write_stage_us;
  }
  void Report(Samples* samples, LayerCounters* layers) const {
    samples->Add("backup_mb_per_s",
                 static_cast<double>(pages * llb::kPageSize) / 1e6 /
                     Seconds(ns));
    layers->backups += count;
    layers->backup_sweep_ns += ns;
    layers->backup_fence_updates += fence_updates;
    layers->backup_read_batches += read_batches;
    layers->backup_read_stage_us += read_stage_us;
    layers->backup_write_stage_us += write_stage_us;
  }
};

/// One timed full backup with the database's sweep knobs.
Status TakeFull(Database* db, const std::string& name, BackupTally* tally) {
  llb::BackupJobOptions job;
  job.steps = db->options().backup_steps;
  job.batch_pages = db->options().backup_batch_pages;
  llb::BackupJobStats stats;
  const uint64_t t0 = NowNs();
  Status s;
  {
    PB_SPAN("backup.take_full");
    s = db->TakeBackupWithOptions(name, job, &stats).status();
  }
  if (s.ok()) tally->Add(stats, NowNs() - t0);
  return s;
}

/// Back-to-back full backups until `stop`, rotating over three names so
/// the in-memory env holds a bounded number of generations. Returns the
/// newest complete one through *newest.
void BackupLoop(Database* db, const std::atomic<bool>* stop,
                const char* prefix, BackupTally* tally, std::string* newest,
                Checks* checks) {
  PinToCpu(2);
  Tracer::Get().BeginBusy();
  for (uint64_t n = 0; !stop->load(std::memory_order_relaxed); ++n) {
    const std::string name = prefix + std::to_string(n % 3);
    if (!checks->ExpectOk(TakeFull(db, name, tally), "backup " + name)) break;
    *newest = name;
  }
  Tracer::Get().EndBusy();
}

// ---------------------------------------------------------------------------
// btree_backup / btree_idle

constexpr int kUpdaters = 2;
constexpr size_t kValueSize = 16;

struct BtreeShape {
  uint32_t keys;   // preloaded keys per tree; the key space is 2x this
  uint32_t hot;    // hot-range width in keys
  uint32_t pages;  // pages per partition
  size_t cache_pages;
};

BtreeShape Shape(bool small) {
  // The ascending preload leaves ~500 pages per tree, so the two trees
  // are ~4x cache_pages. The hot range spans ~25 leaves per tree, far
  // inside the cache, so the median Insert is a cache hit.
  if (small) return {2000, 200, 256, 32};
  return {16000, 1600, 1024, 256};
}

std::string Value(int64_t key, uint32_t version) {
  std::string v(kValueSize, '\0');
  std::memcpy(&v[0], &key, sizeof(key));
  std::memcpy(&v[8], &version, sizeof(version));
  const uint32_t check = version * 2654435761u ^ static_cast<uint32_t>(key);
  std::memcpy(&v[12], &check, sizeof(check));
  return v;
}

/// Expected contents of one tree: the version of each key's value.
struct TreeModel {
  static constexpr uint32_t kAbsent = UINT32_MAX;
  std::vector<uint32_t> version;
};

llb::DbOptions BtreeOptions(const BtreeShape& shape) {
  llb::DbOptions o;
  o.partitions = kUpdaters;
  o.pages_per_partition = shape.pages;
  o.cache_pages = shape.cache_pages;
  o.graph = llb::WriteGraphKind::kTree;
  o.backup_policy = llb::BackupPolicy::kTree;
  o.backup_steps = 8;
  o.log_channels = 2;
  o.backup_batch_pages = 32;
  return o;
}

/// Checks every key of every tree against its model, plus the trees'
/// structural invariants.
void VerifyTrees(Database* db, std::vector<TreeModel>* models,
                 Checks* checks, const std::string& when) {
  for (int t = 0; t < kUpdaters; ++t) {
    llb::BTree tree(db, t, 0, llb::SplitLogging::kLogical);
    const TreeModel& m = (*models)[t];
    uint64_t bad = 0;
    int64_t first_bad = -1;
    for (size_t k = 0; k < m.version.size(); ++k) {
      llb::Result<std::string> got = tree.Get(static_cast<int64_t>(k));
      const bool ok =
          m.version[k] == TreeModel::kAbsent
              ? got.status().IsNotFound()
              : got.ok() && got.value() == Value(static_cast<int64_t>(k),
                                                 m.version[k]);
      if (!ok && bad++ == 0) first_bad = static_cast<int64_t>(k);
    }
    checks->Expect(bad == 0, "tree " + std::to_string(t) + " " + when + ": " +
                                 std::to_string(bad) + " keys wrong, first " +
                                 std::to_string(first_bad));
    checks->ExpectOk(tree.CheckInvariants().status(),
                     "tree " + std::to_string(t) + " invariants " + when);
  }
}

/// A fresh engine with both trees loaded in ascending key order, flushed
/// and checkpointed: the set-up every B-tree cycle times. Each thread's
/// hot range is read once, so the window starts with its hot leaves
/// cached.
std::unique_ptr<Engine> LoadTrees(const BtreeShape& shape, bool traced,
                                  const std::vector<uint64_t>& hot_lo,
                                  std::vector<TreeModel>* models,
                                  Checks* checks) {
  auto engine = std::make_unique<Engine>(BtreeOptions(shape), traced);
  if (!checks->ExpectOk(engine->Open(), "open")) return nullptr;
  models->assign(kUpdaters, TreeModel());
  for (int t = 0; t < kUpdaters; ++t) {
    TreeModel& m = (*models)[t];
    m.version.assign(2ull * shape.keys, TreeModel::kAbsent);
    for (uint32_t i = 0; i < shape.keys; ++i) m.version[2 * i] = 0;
    llb::BTree tree(engine->db.get(), t, 0, llb::SplitLogging::kLogical);
    if (!checks->ExpectOk(tree.Create(), "create tree")) return nullptr;
    for (size_t key = 0; key < m.version.size(); ++key) {
      if (m.version[key] == TreeModel::kAbsent) continue;
      const int64_t k = static_cast<int64_t>(key);
      if (!checks->ExpectOk(tree.Insert(k, Value(k, 0)), "preload")) {
        return nullptr;
      }
    }
  }
  if (!checks->ExpectOk(engine->db->FlushAll(), "flush after preload") ||
      !checks->ExpectOk(engine->db->Checkpoint(), "checkpoint after preload")) {
    return nullptr;
  }
  for (int t = 0; t < kUpdaters; ++t) {
    llb::BTree tree(engine->db.get(), t, 0, llb::SplitLogging::kLogical);
    for (uint32_t i = 0; i < shape.hot; ++i) {
      const llb::Status s =
          tree.Get(static_cast<int64_t>(hot_lo[t] + i)).status();
      if (!checks->Expect(s.ok() || s.IsNotFound(),
                          "warm hot range: " + s.ToString())) {
        return nullptr;
      }
    }
  }
  return engine;
}

struct UpdaterResult {
  std::vector<float> update_us, read_us;
  uint64_t failed = 0;
  std::string first_failure;
  uint64_t splits = 0;
};

/// Closed loop on one tree: 60% Insert / 40% Get, keys 90% from the hot
/// range and 10% uniform over the key space. Every Get is checked against
/// the thread's model outside the timed call. Threads claim operations
/// from one shared budget, so the window does a fixed amount of work and
/// both threads run until it ends.
void Updater(Database* db, int t, uint64_t seed, const BtreeShape& shape,
             uint64_t hot_lo, TreeModel* model, const std::atomic<bool>* go,
             std::atomic<uint64_t>* claimed, uint64_t budget,
             UpdaterResult* out) {
  PinToCpu(t);
  llb::BTree tree(db, t, 0, llb::SplitLogging::kLogical);
  llb::Random rng(seed);
  const uint64_t space = 2ull * shape.keys;
  // Thread-local until the window ends: the two threads' results sit side
  // by side, and sharing their cache lines would slow both.
  UpdaterResult local;
  local.update_us.reserve(budget * 2 / 3);
  local.read_us.reserve(budget / 2);
  auto one_op = [&] {
    const bool update = rng.Uniform(100) < 60;
    const int64_t key = static_cast<int64_t>(
        rng.Uniform(10) < 9 ? hot_lo + rng.Uniform(shape.hot)
                            : rng.Uniform(space));
    uint32_t& version = model->version[key];
    if (update) {
      const uint32_t next = version == TreeModel::kAbsent ? 0 : version + 1;
      const std::string value = Value(key, next);
      const uint64_t t0 = NowNs();
      Status s;
      {
        PB_SPAN("btree.insert");
        s = tree.Insert(key, llb::Slice(value));
      }
      const uint64_t t1 = NowNs();
      local.update_us.push_back(static_cast<float>(t1 - t0) / 1e3f);
      if (s.ok()) {
        version = next;
      } else if (local.failed++ == 0) {
        local.first_failure = "insert: " + s.ToString();
      }
    } else {
      const uint64_t t0 = NowNs();
      llb::Result<std::string> got = [&] {
        PB_SPAN("btree.get");
        return tree.Get(key);
      }();
      const uint64_t t1 = NowNs();
      local.read_us.push_back(static_cast<float>(t1 - t0) / 1e3f);
      const bool ok = version == TreeModel::kAbsent
                          ? got.status().IsNotFound()
                          : got.ok() && got.value() == Value(key, version);
      if (!ok && local.failed++ == 0) {
        local.first_failure = "get " + std::to_string(key) +
                              " disagrees with the model: " +
                              got.status().ToString();
      }
    }
  };
  constexpr uint64_t kChunk = 64;
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  Tracer::Get().BeginBusy();
  for (;;) {
    const uint64_t first = claimed->fetch_add(kChunk);
    if (first >= budget) break;
    for (uint64_t i = first; i < std::min(first + kChunk, budget); ++i) {
      one_op();
    }
  }
  Tracer::Get().EndBusy();
  local.splits = tree.stats().splits;
  *out = std::move(local);
}

}  // namespace

void RunBtree(const Args& args, bool with_backup, Checks* checks,
              Samples* run_samples, LayerCounters* layers) {
  const BtreeShape shape = Shape(args.small);
  // A fixed amount of foreground work per cycle keeps the log each
  // recovery leg replays independent of the engine's throughput.
  const uint64_t budget = args.small ? 20000 : 50000;
  const int min_cycles = args.small ? 2 : 3;
  uint64_t run0 = NowNs();
  for (int cycle = -1;
       cycle < min_cycles || Seconds(NowNs() - run0) < args.seconds;
       ++cycle) {
    // Cycle -1 warms the allocator and is not sampled.
    if (cycle == 0) run0 = NowNs();
    Samples warmup;
    Samples* samples = cycle < 0 ? &warmup : run_samples;
    const bool traced = CycleTraced(args, cycle);
    Tracer::Get().SetEnabled(traced);
    LayerCounters untraced_layers;
    LayerCounters* lc = traced ? layers : &untraced_layers;

    std::vector<uint64_t> seeds, hot_lo;
    for (int t = 0; t < kUpdaters; ++t) {
      seeds.push_back(Mix(args.seed, cycle + 1, t));
      llb::Random rng(Mix(args.seed, cycle + 1, t + kUpdaters));
      hot_lo.push_back(rng.Uniform(2ull * shape.keys - shape.hot));
    }
    const uint64_t s0 = NowNs();
    std::vector<TreeModel> models;
    std::unique_ptr<Engine> engine =
        LoadTrees(shape, traced, hot_lo, &models, checks);
    if (engine == nullptr) return;
    samples->Add("setup_s", Seconds(NowNs() - s0));

    // Foreground window: two updaters, plus back-to-back full backups on
    // a third thread for btree_backup.
    const llb::DbStats before = engine->db->GatherStats();
    const std::vector<IoTotals> io_before = SnapshotIo();
    std::atomic<bool> go{false}, stop{false};
    std::atomic<uint64_t> claimed{0};
    std::vector<UpdaterResult> results(kUpdaters);
    std::vector<std::thread> threads;
    for (int t = 0; t < kUpdaters; ++t) {
      threads.emplace_back(Updater, engine->db.get(), t, seeds[t], shape,
                           hot_lo[t], &models[t], &go, &claimed, budget,
                           &results[t]);
    }
    BackupTally tally;
    std::string newest;
    std::thread backup;
    const uint64_t w0 = NowNs();
    go.store(true, std::memory_order_release);
    if (with_backup) {
      backup = std::thread(BackupLoop, engine->db.get(), &stop, "bk", &tally,
                           &newest, checks);
    }
    for (std::thread& th : threads) th.join();
    const uint64_t w1 = NowNs();
    stop.store(true);
    if (backup.joinable()) backup.join();
    const llb::DbStats after = engine->db->GatherStats();
    lc->AddIo(io_before, SnapshotIo());

    Window w;
    w.ns = w1 - w0;
    for (UpdaterResult& r : results) {
      checks->AddOps(r.update_us.size() + r.read_us.size(), r.failed,
                     r.first_failure);
      w.update_us.insert(w.update_us.end(), r.update_us.begin(),
                         r.update_us.end());
      w.read_us.insert(w.read_us.end(), r.read_us.begin(), r.read_us.end());
      lc->splits += r.splits;
    }
    w.user_bytes = w.update_us.size() * (sizeof(int64_t) + kValueSize);
    lc->fg_updates += w.update_us.size();
    lc->fg_reads += w.read_us.size();
    lc->AddWindow(before, after);
    samples->Add("log_bytes_per_user_byte",
                 static_cast<double>(after.log.bytes - before.log.bytes) /
                     static_cast<double>(w.user_bytes));
    AddWindowSamples(&w, samples, traced ? "ops_per_s.traced" : "ops_per_s");

    // Quiesce; btree_idle sweeps the quiesced S instead.
    {
      PB_SPAN("db.flushall");
      checks->ExpectOk(engine->db->FlushAll(), "flush after window");
    }
    {
      PB_SPAN("db.checkpoint");
      checks->ExpectOk(engine->db->Checkpoint(), "checkpoint after window");
    }
    VerifyTrees(engine->db.get(), &models, checks, "after window");
    if (!with_backup) {
      for (int i = 0; i < 3; ++i) {
        newest = "bk" + std::to_string(i);
        checks->ExpectOk(TakeFull(engine->db.get(), newest, &tally),
                         "quiesced backup");
      }
    }
    tally.Report(samples, lc);
    if (!checks->Expect(!newest.empty(), "a backup completed")) return;

    LegHooks hooks;
    hooks.chain_head = newest;
    hooks.burst = args.small ? 200 : 4000;
    hooks.txn = [&models, &shape](Database* db, uint64_t i) {
      const int t = static_cast<int>(i % kUpdaters);
      const int64_t key =
          static_cast<int64_t>((i * 7919) % (2ull * shape.keys));
      uint32_t& version = models[t].version[key];
      const uint32_t next = version == TreeModel::kAbsent ? 0 : version + 1;
      llb::BTree tree(db, t, 0, llb::SplitLogging::kLogical);
      Status s = tree.Insert(key, Value(key, next));
      if (s.ok()) version = next;
      return s;
    };
    hooks.verify = [&models, checks](Database* db, const std::string& when) {
      VerifyTrees(db, &models, checks, when);
    };
    ShipSide ship;
    RunRecoveryLeg(engine.get(), args, hooks, &ship, checks, samples, lc);
    ship.Detach();
    engine->db.reset();
  }
  Tracer::Get().SetEnabled(false);
}

// ---------------------------------------------------------------------------
// filestore_recovery

namespace {

constexpr uint32_t kFilePages = 4;
constexpr uint32_t kValuesPerWrite = 256;

struct FileShape {
  uint32_t pages;       // per partition
  uint32_t load_ops;    // phase 1, under back-to-back full backups
  uint32_t more_ops;    // phase 2, before the incremental
  uint32_t flush_every;
};

FileShape FileShapeFor(bool small) {
  if (small) return {64, 600, 200, 200};
  return {256, 6000, 2000, 1000};
}

llb::DbOptions FileOptions(const FileShape& shape) {
  llb::DbOptions o;
  o.partitions = 2;
  o.pages_per_partition = shape.pages;
  // The whole database fits: the cache never evicts.
  o.cache_pages = 2 * shape.pages + 64;
  o.graph = llb::WriteGraphKind::kGeneral;
  o.backup_policy = llb::BackupPolicy::kGeneral;
  o.backup_steps = 8;
  o.backup_batch_pages = 32;
  return o;
}

std::vector<int64_t> Values(uint64_t seed) {
  llb::Random rng(seed);
  std::vector<int64_t> v(kValuesPerWrite);
  for (int64_t& x : v) x = static_cast<int64_t>(rng.Uniform(1000000));
  return v;
}

}  // namespace

void RunFilestore(const Args& args, Checks* checks, Samples* run_samples,
                  LayerCounters* layers) {
  const FileShape shape = FileShapeFor(args.small);
  const uint32_t files = shape.pages / kFilePages;
  // This thread is the load thread: pinned like the B-tree updaters.
  PinToCpu(0);
  const int min_cycles = args.small ? 2 : 3;
  uint64_t run0 = NowNs();
  for (int cycle = -1;
       cycle < min_cycles || Seconds(NowNs() - run0) < args.seconds;
       ++cycle) {
    // Cycle -1 warms the allocator and is not sampled.
    if (cycle == 0) run0 = NowNs();
    Samples warmup;
    Samples* samples = cycle < 0 ? &warmup : run_samples;
    const bool traced = CycleTraced(args, cycle);
    Tracer::Get().SetEnabled(traced);
    LayerCounters untraced_layers;
    LayerCounters* lc = traced ? layers : &untraced_layers;

    // Set-up: fresh engine, shipper attached before any load, every file
    // written once.
    const uint64_t s0 = NowNs();
    Engine engine(FileOptions(shape), traced);
    if (!checks->ExpectOk(engine.Open(), "open")) return;
    ShipSide ship;
    if (!checks->ExpectOk(ship.Attach(&engine), "attach shipper")) return;
    for (uint32_t p = 0; p < 2; ++p) {
      llb::FileStore fs(engine.db.get(), p, 0, kFilePages, files);
      for (uint32_t f = 0; f < files; ++f) {
        if (!checks->ExpectOk(fs.WriteValues(f, Values(Mix(args.seed, p, f))),
                              "preload")) {
          return;
        }
      }
    }
    checks->ExpectOk(engine.db->FlushAll(), "flush after preload");
    checks->ExpectOk(engine.db->Checkpoint(), "checkpoint after preload");
    samples->Add("setup_s", Seconds(NowNs() - s0));

    // Load: one closed-loop thread; back-to-back full backups on a second
    // thread during phase 1; a periodic FlushAll + checkpoint stands in
    // for the lazy writer and pumps the shipper.
    std::vector<std::unique_ptr<llb::FileStore>> fs;
    for (uint32_t p = 0; p < 2; ++p) {
      fs.push_back(std::make_unique<llb::FileStore>(engine.db.get(), p, 0,
                                                    kFilePages, files));
    }
    const llb::DbStats before = engine.db->GatherStats();
    const std::vector<IoTotals> io_before = SnapshotIo();
    std::atomic<bool> stop{false};
    BackupTally tally;
    std::string newest;
    std::thread backup(BackupLoop, engine.db.get(), &stop, "full", &tally,
                       &newest, checks);
    llb::Random rng(Mix(args.seed, cycle, 99));
    // Write payloads are drawn ahead of the window so the loop times the
    // engine, not the generator.
    std::vector<std::vector<int64_t>> payloads;
    for (int i = 0; i < 64; ++i) payloads.push_back(Values(rng.Next()));
    Window w;
    uint64_t failed = 0;
    std::string first_failure;
    Tracer::Get().BeginBusy();
    const uint64_t w0 = NowNs();
    const uint32_t total = shape.load_ops + shape.more_ops;
    for (uint32_t i = 0; i < total; ++i) {
      if (i == shape.load_ops) {
        stop.store(true);
        backup.join();
      }
      llb::FileStore* f = fs[rng.Uniform(2)].get();
      const uint32_t a = static_cast<uint32_t>(rng.Uniform(files));
      const uint32_t b =
          (a + 1 + static_cast<uint32_t>(rng.Uniform(files - 1))) % files;
      const uint64_t pick = rng.Uniform(100);
      Status s;
      const uint64_t t0 = NowNs();
      if (pick < 30) {
        PB_SPAN("filestore.read");
        s = f->ReadValues(a).status();
      } else if (pick < 58) {
        const std::vector<int64_t>& v = payloads[rng.Uniform(64)];
        PB_SPAN("filestore.write");
        s = f->WriteValues(a, v);
        w.user_bytes += v.size() * sizeof(int64_t);
      } else if (pick < 72) {
        PB_SPAN("filestore.copy");
        s = f->Copy(a, b);
      } else if (pick < 86) {
        PB_SPAN("filestore.sort");
        s = f->SortInto(a, b);
      } else {
        PB_SPAN("filestore.transform");
        s = f->Transform(a, rng.Next());
      }
      const float us = static_cast<float>(NowNs() - t0) / 1e3f;
      (pick < 30 ? w.read_us : w.update_us).push_back(us);
      if (!s.ok() && failed++ == 0) first_failure = s.ToString();
      if ((i + 1) % shape.flush_every == 0) {
        {
          PB_SPAN("db.flushall");
          checks->ExpectOk(engine.db->FlushAll(), "lazy-writer flush");
        }
        {
          PB_SPAN("db.checkpoint");
          checks->ExpectOk(engine.db->Checkpoint(), "checkpoint");
        }
        checks->ExpectOk(ship.Pump(), "pump shipper");
      }
    }
    w.ns = NowNs() - w0;
    Tracer::Get().EndBusy();
    if (backup.joinable()) {
      stop.store(true);
      backup.join();
    }
    const llb::DbStats after = engine.db->GatherStats();
    lc->AddIo(io_before, SnapshotIo());
    checks->AddOps(w.update_us.size() + w.read_us.size(), failed,
                   "filestore op: " + first_failure);
    lc->fg_updates += w.update_us.size();
    lc->fg_reads += w.read_us.size();
    lc->AddWindow(before, after);
    samples->Add("log_bytes_per_user_byte",
                 static_cast<double>(after.log.bytes - before.log.bytes) /
                     static_cast<double>(w.user_bytes));
    AddWindowSamples(&w, samples,
                     traced ? "ops_per_s.traced" : "ops_per_s");
    tally.Report(samples, lc);
    if (!checks->Expect(!newest.empty(), "a full backup completed")) return;

    // The incremental on the newest full is the restore chain head.
    {
      PB_SPAN("backup.take_incremental");
      if (!checks->ExpectOk(
              engine.db->TakeIncrementalBackup("inc", newest).status(),
              "incremental backup")) {
        return;
      }
    }
    checks->ExpectOk(ship.Pump(), "pump shipper");
    fs.clear();

    LegHooks hooks;
    hooks.chain_head = "inc";
    // Each WriteValues logs four page images.
    hooks.burst = args.small ? 50 : 300;
    hooks.oracle = true;
    hooks.txn = [&args, files](Database* db, uint64_t i) {
      llb::FileStore f(db, static_cast<llb::PartitionId>(i % 2), 0,
                       kFilePages, files);
      return f.WriteValues(static_cast<uint32_t>((i / 2) % files),
                           Values(Mix(args.seed, 7, i)));
    };
    hooks.verify = [checks, files](Database* db, const std::string& when) {
      uint64_t bad = 0;
      for (uint32_t p = 0; p < 2; ++p) {
        llb::FileStore f(db, p, 0, kFilePages, files);
        for (uint32_t i = 0; i < files; ++i) {
          if (!f.ReadValues(i).ok()) ++bad;
        }
      }
      checks->Expect(bad == 0, std::to_string(bad) + " unreadable files " +
                                   when);
    };
    RunRecoveryLeg(&engine, args, hooks, &ship, checks, samples, lc);
    ship.Detach();
    engine.db.reset();
  }
  Tracer::Get().SetEnabled(false);
}

}  // namespace perfbench
