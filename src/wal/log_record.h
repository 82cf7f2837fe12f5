#ifndef LLB_WAL_LOG_RECORD_H_
#define LLB_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace llb {

/// Operation codes. The engine core interprets 1 and 2; all other codes
/// are domain operations dispatched through the OpRegistry.
enum OpCode : uint16_t {
  kOpInvalid = 0,

  // --- engine core ---
  /// Physical blind write W_P(X, log(v)): payload is the full page image.
  kOpPhysicalWrite = 1,
  /// Cache-manager identity write W_IP(X, log(X)): payload is the full
  /// current page image. Semantically a physical write, but distinguished
  /// because (a) it is the extra logging the paper's backup protocol
  /// charges for, and (b) redo may *seed* pages from identity values
  /// (install-without-flush; see recovery/redo.h).
  kOpIdentityWrite = 2,
  /// Checkpoint record: payload carries the crash-redo scan start LSN.
  kOpCheckpoint = 3,

  // --- B-tree domain (tree operations) ---
  kOpBtreeInsert = 16,       // physiological: insert record into a leaf
  kOpBtreeDelete = 17,       // physiological: delete record from a leaf
  kOpBtreeMovRec = 19,       // logical W_L(old, new): move high records
  kOpBtreeRmvRec = 20,       // physiological: remove high records from old
  kOpBtreeInsertIndex = 21,  // physiological: insert separator into inner
  kOpBtreeSetMeta = 22,      // blind write of the tree meta page

  // --- file-store domain (general logical operations) ---
  kOpFileCopy = 32,         // logical: copy file X to file Y (multi-page)
  kOpFileSort = 33,         // logical: sort file X into file Y
  kOpFileWrite = 34,        // physical write of one file page
  kOpFileTransform = 35,    // physiological multi-page in-place transform

  // --- application-recovery domain ---
  kOpAppExec = 48,          // Ex(A): physiological on the app state page
  kOpAppRead = 49,          // R(X, A): reads X and A, writes A
  kOpAppWrite = 50,         // W_L(A, X): reads A, writes X
};

/// A logged operation: LSN, code, the read and write sets (object ids),
/// and an opaque payload interpreted by the op's replay function.
///
/// This is the paper's operation model (Table 1): an operation reads
/// readset(Op) and writes writeset(Op); logical operations log operand
/// *identifiers* plus a small descriptor instead of data values.
struct LogRecord {
  /// Group flags: a multi-record atomic group (e.g. a logical B-tree
  /// split: MovRec / SetMeta / InsertIndex / RmvRec) marks its first
  /// record kGroupBegin and its last kGroupEnd. Point-in-time restore
  /// refuses cut points with an open group — stopping between Begin and
  /// End would leave a half-applied structure modification (the split's
  /// records are only atomic as a unit). Single-record operations carry
  /// no flags.
  static constexpr uint8_t kGroupBegin = 0x1;
  static constexpr uint8_t kGroupEnd = 0x2;

  Lsn lsn = kInvalidLsn;
  uint16_t op_code = kOpInvalid;
  uint8_t flags = 0;
  std::vector<PageId> readset;
  std::vector<PageId> writeset;
  std::string payload;

  bool IsGroupBegin() const { return (flags & kGroupBegin) != 0; }
  bool IsGroupEnd() const { return (flags & kGroupEnd) != 0; }
  bool IsIdentityWrite() const { return op_code == kOpIdentityWrite; }
  bool IsBlindWrite() const {
    return op_code == kOpPhysicalWrite || op_code == kOpIdentityWrite;
  }
  bool IsCheckpoint() const { return op_code == kOpCheckpoint; }

  /// Appends the framed encoding ([len][crc][body]) to *dst.
  void EncodeTo(std::string* dst) const;

  /// The crash-redo scan start a checkpoint record carries; kInvalidLsn
  /// for every other record.
  Lsn CheckpointRedoStart() const;
};

/// One CRC-verified frame of a buffer of framed records, located in
/// place: its LSN and op code are read without decoding the read/write
/// sets or copying the payload.
struct LogFrame {
  Lsn lsn = kInvalidLsn;
  uint16_t op_code = kOpInvalid;
  Slice bytes;  // the whole frame: [len][crc][body]

  /// Parses the frame at the front of `input`. Returns Corruption on
  /// CRC/format mismatch and NotFound when input is an incomplete tail
  /// (normal end of a crashed log).
  static Status Parse(Slice input, LogFrame* out);

  /// The LSN of the frame at the front of `framed`, read without a CRC
  /// check: only for bytes this process framed itself.
  static Lsn PeekLsn(Slice framed);

  /// Decodes the record the frame carries.
  Status Decode(LogRecord* out) const;
};

/// The log's one frame walker: steps through a buffer of framed records
/// front to back and stops at the first incomplete or corrupt frame, the
/// torn tail a crash leaves after the last successful force.
class LogFrameReader {
 public:
  explicit LogFrameReader(Slice input) : input_(input), rest_(input) {}

  /// Moves to the next frame; false at the end of the valid frames.
  bool Next(LogFrame* frame);

  /// Bytes walked so far. Once Next() returned false, the length of the
  /// valid prefix.
  size_t offset() const { return input_.size() - rest_.size(); }

  /// Why the walk stopped: OK when every byte was a valid frame,
  /// otherwise the error of the first bad frame.
  const Status& status() const { return status_; }

 private:
  Slice input_;
  Slice rest_;
  Status status_;
};

}  // namespace llb

#endif  // LLB_WAL_LOG_RECORD_H_
