#ifndef LLB_RECOVERY_CHECKPOINT_H_
#define LLB_RECOVERY_CHECKPOINT_H_

#include "common/result.h"
#include "common/types.h"
#include "wal/log_manager.h"

namespace llb {

/// Finds the crash-recovery redo scan start: the value recorded by the
/// most recent durable (fuzzy) checkpoint record, or LSN 1 when none
/// exists. O(1): the log manager tracks it as checkpoints are sealed.
///
/// Checkpoints are an optimization only — the per-target LSN redo test
/// makes a scan from LSN 1 always correct (installed operations find all
/// their targets up to date and are skipped).
Result<Lsn> FindCrashRedoStart(const LogManager& log);

}  // namespace llb

#endif  // LLB_RECOVERY_CHECKPOINT_H_
