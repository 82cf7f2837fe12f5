#include "ship/ship_channel.h"

#include <algorithm>
#include <cstdlib>

#include "common/coding.h"
#include "common/crc32c.h"

namespace llb {

namespace {

constexpr uint32_t kFrameMagic = 0x4C4C5346;  // "LLSF"

/// Parses the numeric suffix of "<prefix>.f<seq>". Returns false when
/// `name` is not a frame file of this prefix.
bool ParseFrameSeq(const std::string& prefix, const std::string& name,
                   uint64_t* seq) {
  const std::string head = prefix + ".f";
  if (name.size() <= head.size() || name.compare(0, head.size(), head) != 0) {
    return false;
  }
  const char* digits = name.c_str() + head.size();
  char* end = nullptr;
  uint64_t value = std::strtoull(digits, &end, 10);
  if (end == digits || *end != '\0') return false;
  *seq = value;
  return true;
}

}  // namespace

ShipChannel::~ShipChannel() = default;

void ShipFrame::EncodeTo(std::string* dst) const {
  size_t start = dst->size();
  PutFixed32(dst, kFrameMagic);
  PutFixed64(dst, seq);
  PutFixed64(dst, first_lsn);
  PutFixed64(dst, last_lsn);
  PutLengthPrefixed(dst, Slice(bytes));
  uint32_t crc = crc32c::Value(dst->data() + start, dst->size() - start);
  PutFixed32(dst, crc);
}

Status ShipFrame::DecodeFrom(Slice input, ShipFrame* out) {
  if (input.size() < 4) return Status::Corruption("ship frame too short");
  uint32_t stored = DecodeFixed32(input.data() + input.size() - 4);
  uint32_t actual = crc32c::Value(input.data(), input.size() - 4);
  if (stored != actual) return Status::Corruption("ship frame checksum");
  SliceReader reader(Slice(input.data(), input.size() - 4));
  uint32_t magic = 0;
  Slice payload;
  if (!reader.ReadFixed32(&magic) || magic != kFrameMagic ||
      !reader.ReadFixed64(&out->seq) || !reader.ReadFixed64(&out->first_lsn) ||
      !reader.ReadFixed64(&out->last_lsn) ||
      !reader.ReadLengthPrefixed(&payload) || reader.remaining() != 0) {
    return Status::Corruption("ship frame malformed");
  }
  out->bytes.assign(payload.data(), payload.size());
  return Status::OK();
}

std::string FileShipChannel::FrameName(uint64_t seq) const {
  return prefix_ + ".f" + std::to_string(seq);
}

Status FileShipChannel::Send(const ShipFrame& frame) {
  std::string encoded;
  frame.EncodeTo(&encoded);
  LLB_ASSIGN_OR_RETURN(std::shared_ptr<File> file,
                       env_->OpenFile(FrameName(frame.seq), /*create=*/true));
  LLB_RETURN_IF_ERROR(file->Truncate(0));
  LLB_RETURN_IF_ERROR(file->WriteAt(0, Slice(encoded)));
  return file->Sync();
}

Status FileShipChannel::Poll(uint64_t from_seq, std::vector<ShipFrame>* out) {
  const size_t first = out->size();
  for (const std::string& name : env_->ListFiles()) {
    uint64_t seq = 0;
    if (!ParseFrameSeq(prefix_, name, &seq) || seq < from_seq) continue;
    auto file = env_->OpenFile(name, /*create=*/false);
    if (!file.ok()) continue;  // raced with Trim, or transient fault
    auto size = (*file)->Size();
    if (!size.ok()) continue;
    std::string contents;
    if (!(*file)->ReadAt(0, *size, &contents).ok()) continue;
    ShipFrame frame;
    // A torn or rotten frame is a transient absence: the shipper still
    // holds the segment and will re-send or re-sync it.
    if (!ShipFrame::DecodeFrom(Slice(contents), &frame).ok()) continue;
    if (frame.seq != seq) continue;
    out->push_back(std::move(frame));
  }
  // Spool names list in string order ("f10" before "f2"); hand frames
  // back in seq order, as InProcessShipChannel does.
  std::sort(out->begin() + first, out->end(),
            [](const ShipFrame& a, const ShipFrame& b) {
              return a.seq < b.seq;
            });
  return Status::OK();
}

Status FileShipChannel::Trim(uint64_t upto_seq) {
  for (const std::string& name : env_->ListFiles()) {
    uint64_t seq = 0;
    if (!ParseFrameSeq(prefix_, name, &seq) || seq > upto_seq) continue;
    Status s = env_->DeleteFile(name);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  return Status::OK();
}

Status InProcessShipChannel::Send(const ShipFrame& frame) {
  std::lock_guard<std::mutex> lock(mu_);
  FaultAction action = FaultAction::kNone;
  if (policy_ != nullptr) action = policy_->OnOp(FaultOp::kWriteAt, name_);
  if (action == FaultAction::kFail) {
    return Status::IoError("ship channel send fault: " + name_);
  }
  ShipFrame stored = frame;
  if (action == FaultAction::kCorrupt && !stored.bytes.empty()) {
    stored.bytes[stored.bytes.size() / 2] ^= 0x40;  // rot in transit
  }
  frames_[stored.seq] = std::move(stored);
  return Status::OK();
}

Status InProcessShipChannel::Poll(uint64_t from_seq,
                                  std::vector<ShipFrame>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (policy_ != nullptr &&
      policy_->OnOp(FaultOp::kReadAt, name_) == FaultAction::kFail) {
    return Status::IoError("ship channel poll fault: " + name_);
  }
  for (auto it = frames_.lower_bound(from_seq); it != frames_.end(); ++it) {
    out->push_back(it->second);
  }
  return Status::OK();
}

Status InProcessShipChannel::Trim(uint64_t upto_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  frames_.erase(frames_.begin(), frames_.upper_bound(upto_seq));
  return Status::OK();
}

void InProcessShipChannel::SetPolicy(FaultPolicy* policy) {
  std::lock_guard<std::mutex> lock(mu_);
  policy_ = policy;
}

size_t InProcessShipChannel::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_.size();
}

}  // namespace llb
