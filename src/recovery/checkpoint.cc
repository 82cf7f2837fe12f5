#include "recovery/checkpoint.h"

namespace llb {

Result<Lsn> FindCrashRedoStart(const LogManager& log) {
  return log.checkpoint_redo_start();
}

}  // namespace llb
