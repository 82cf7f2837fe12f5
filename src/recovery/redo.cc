#include "recovery/redo.h"

#include <limits>
#include <unordered_map>
#include <vector>

#include "recovery/log_applier.h"
#include "storage/page.h"

namespace llb {

Result<RedoReport> RunRedo(const LogManager& log, const OpRegistry& registry,
                           PageStore* target, Lsn start_lsn) {
  return RunRedoRange(log, registry, target, start_lsn,
                      std::numeric_limits<Lsn>::max(),
                      /*only_partition=*/nullptr);
}

Result<RedoReport> RunRedoRange(const LogManager& log,
                                const OpRegistry& registry, PageStore* target,
                                Lsn start_lsn, Lsn end_lsn,
                                const PartitionId* only_partition,
                                bool use_identity_seeds) {
  RedoReport report;
  report.start_lsn = start_lsn;
  if (end_lsn == kInvalidLsn) end_lsn = std::numeric_limits<Lsn>::max();

  auto in_scope = [&](const LogRecord& rec) {
    if (rec.lsn > end_lsn) return false;
    if (only_partition != nullptr && !rec.writeset.empty() &&
        rec.writeset[0].partition != *only_partition) {
      return false;
    }
    return true;
  };

  // One read of the log tail; both passes run over the records decoded
  // here. Seeding pass: the last identity write per page, by position.
  std::vector<LogRecord> tail;
  std::unordered_map<PageId, size_t, PageIdHash> seeds;
  LLB_RETURN_IF_ERROR(log.Scan(start_lsn, [&](LogRecord&& rec) {
    if (!in_scope(rec)) return Status::OK();
    if (use_identity_seeds && rec.IsIdentityWrite() &&
        rec.writeset.size() == 1) {
      seeds[rec.writeset[0]] = tail.size();
    }
    tail.push_back(std::move(rec));
    return Status::OK();
  }));

  // The per-record apply core is shared with the standby applier
  // (recovery/log_applier.h); this function contributes the seeding pass
  // and the scan-driven scoping around it.
  LogApplier applier(registry, target);

  // Apply seeds newer than the stored page.
  for (const auto& [id, pos] : seeds) {
    bool seeded = false;
    LLB_RETURN_IF_ERROR(
        applier.SeedPage(id, tail[pos].payload, tail[pos].lsn, &seeded));
    if (seeded) ++report.pages_seeded;
  }

  // Replay pass, with the per-target LSN test.
  for (const LogRecord& rec : tail) {
    ++report.records_scanned;
    if (rec.IsCheckpoint()) continue;
    // Identity records: consumed by seeding; applied in-order like
    // physical blind writes when re-executing from scratch.
    if (rec.IsIdentityWrite() && use_identity_seeds) continue;
    LLB_RETURN_IF_ERROR(applier.Apply(rec));
  }

  LLB_RETURN_IF_ERROR(applier.Flush());
  report.ops_replayed = applier.stats().records_applied;
  report.pages_written = applier.stats().pages_written;
  return report;
}

}  // namespace llb
