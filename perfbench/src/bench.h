#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the end-to-end benchmark: the engine under test, the
// correctness ledger, latency samples, per-cycle metric samples, and the
// recovery leg every workload ends its cycles with.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/database.h"
#include "io/mem_env.h"
#include "ship/log_shipper.h"
#include "ship/ship_channel.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test sizes: the same phases and checks on tiny inputs.
  bool small = false;
  /// Self-test: flips bytes in one page of the restore source so the
  /// restore check has something to catch.
  bool corrupt_backup = false;
  std::string trace_out;
};

/// Pass/fail ledger for operations and correctness checks. Thread-safe.
class Checks {
 public:
  /// Counts one check; records `what` when it fails.
  bool Expect(bool ok, const std::string& what);
  bool ExpectOk(const llb::Status& s, const std::string& what) {
    return Expect(s.ok(), s.ok() ? what : what + ": " + s.ToString());
  }
  /// Adds a thread's foreground tally.
  void AddOps(uint64_t attempted, uint64_t failed,
              const std::string& first_failure);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> messages() const;

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;  // guards messages_
  std::vector<std::string> messages_;
};

/// Engine counters summed over cycles (deltas of Database::GatherStats()
/// and the job / report / status structs of the other layers).
struct LayerCounters {
  uint64_t fg_updates = 0;
  uint64_t fg_reads = 0;
  uint64_t splits = 0;
  // cache
  uint64_t hits = 0, misses = 0, evictions = 0, decisions = 0,
           decisions_logged = 0, install_waits = 0, overlapped_installs = 0;
  // wal
  uint64_t log_bytes = 0, identity_bytes = 0, forces = 0, group_commits = 0;
  // write graph
  uint64_t installs = 0, max_vars = 0;
  // backup (full sweeps timed in the foreground window)
  uint64_t backups = 0, backup_fence_updates = 0,
           backup_read_batches = 0, backup_read_stage_us = 0,
           backup_write_stage_us = 0;
  uint64_t backup_sweep_ns = 0;
  // redo: crash and restore roll-forward
  uint64_t crashes = 0, crash_scanned = 0, crash_replayed = 0,
           crash_seeded = 0, crash_written = 0;
  uint64_t restores = 0, restore_scanned = 0, restore_replayed = 0,
           restore_seeded = 0, restore_written = 0;
  // instant restore
  uint64_t instants = 0, faulted = 0, closure = 0, bitmap_saves = 0;
  // ship
  uint64_t ship_cycles = 0, frames_sent = 0, ship_bytes = 0,
           records_applied = 0;

  // file IO in the foreground window, by class (traced cycles)
  IoTotals io[static_cast<int>(IoClass::kCount)];

  void AddWindow(const llb::DbStats& before, const llb::DbStats& after);
  void AddIo(const std::vector<IoTotals>& before,
             const std::vector<IoTotals>& after);
  uint64_t fg_ops() const { return fg_updates + fg_reads; }
};

/// The engine under test: one MemEnv (optionally behind the tracing
/// wrapper) and the database open over it.
struct Engine {
  llb::MemEnv mem;
  std::unique_ptr<TraceEnv> traced;
  llb::Env* env = nullptr;
  llb::DbOptions options;
  std::string name = "db";
  std::unique_ptr<llb::Database> db;

  Engine(const llb::DbOptions& opts, bool trace);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Database::Open, every domain's operations, crash recovery.
  llb::Status Open();
  /// Loses every unsynced byte, as a power failure would.
  void Crash() {
    db.reset();
    mem.CrashAndRestart();
  }
  llb::Status WipeStable();
};

/// Per-cycle samples of each end-to-end metric; the run reports their
/// trimmed means.
class Samples {
 public:
  void Add(const std::string& metric, double value) {
    values_[metric].push_back(value);
  }
  const std::vector<double>* Get(const std::string& metric) const;
  const std::map<std::string, std::vector<double>>& all() const {
    return values_;
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Current IO totals of every file class.
std::vector<IoTotals> SnapshotIo();

double Median(std::vector<double> v);
/// Mean of the samples left after dropping the lowest and the highest
/// tenth. A shared host's speed drifts for seconds at a time, so the cycles
/// of one run mix slow and fast phases; a median jumps between the two as
/// their share shifts from run to run, while this mean follows the share.
double TrimmedMean(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 1]) of latencies in microseconds.
double Percentile(std::vector<float>* v, double q);

/// What a workload plugs into the recovery leg.
struct LegHooks {
  /// One committed foreground transaction; `i` picks its inputs.
  std::function<llb::Status(llb::Database*, uint64_t i)> txn;
  /// Checks the open database against the workload's own model.
  std::function<void(llb::Database*, const std::string& when)> verify;
  /// Name of the backup chain head to restore from.
  std::string chain_head;
  /// Also compare the drained instant restore against a full-log oracle.
  bool oracle = false;
  /// Transactions logged past the last checkpoint before each crash.
  uint32_t burst = 0;
};

/// The primary's log shipping: an in-process channel plus a LogShipper.
/// The shipper is dropped before every close or crash of the primary and
/// attached again, catching up from its durable cursor, when shipping
/// resumes.
class ShipSide {
 public:
  ShipSide() = default;
  ShipSide(const ShipSide&) = delete;
  ShipSide& operator=(const ShipSide&) = delete;

  llb::Status Attach(Engine* engine);
  /// Folds the current shipper's stats in and drops it (before the
  /// primary database it observes goes away).
  void Detach();
  llb::Status Pump();
  llb::InProcessShipChannel* channel() { return &channel_; }
  /// Stats summed over every shipper attached so far.
  llb::ShipStats stats() const;

 private:
  llb::InProcessShipChannel channel_;
  std::unique_ptr<llb::LogShipper> shipper_;
  llb::ShipStats done_;  // detached shippers
};

/// Crash recovery, instant restore, off-line chain restore and a standby
/// drain of the shipped log, each timed and checked. `engine->db` is open
/// on entry and open again on return.
void RunRecoveryLeg(Engine* engine, const Args& args, const LegHooks& hooks,
                    ShipSide* ship, Checks* checks, Samples* samples,
                    LayerCounters* layers);

/// Machine context printed with every result.
std::string ContextJson(const Args& args);

/// A workload runs its cycles until `args.seconds` are measured, adding
/// one sample per end-to-end metric per cycle.
void RunBtree(const Args& args, bool with_backup, Checks* checks,
              Samples* samples, LayerCounters* layers);
void RunFilestore(const Args& args, Checks* checks, Samples* samples,
                  LayerCounters* layers);

/// Tracing is switched per cycle: the traced run alternates untraced and
/// traced cycles so it can report its own overhead.
inline bool CycleTraced(const Args& args, int cycle) {
  return args.trace && cycle >= 0 && cycle % 2 == 1;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
