#include "wal/log_record.h"

#include "common/coding.h"
#include "common/crc32c.h"

namespace llb {

namespace {

void EncodeBody(const LogRecord& rec, std::string* body) {
  PutFixed64(body, rec.lsn);
  PutFixed16(body, rec.op_code);
  body->push_back(static_cast<char>(rec.flags));
  PutVarint32(body, static_cast<uint32_t>(rec.readset.size()));
  for (const PageId& id : rec.readset) PutPageId(body, id);
  PutVarint32(body, static_cast<uint32_t>(rec.writeset.size()));
  for (const PageId& id : rec.writeset) PutPageId(body, id);
  body->append(rec.payload);
}

}  // namespace

void LogRecord::EncodeTo(std::string* dst) const {
  std::string body;
  EncodeBody(*this, &body);
  PutFixed32(dst, static_cast<uint32_t>(body.size()));
  PutFixed32(dst, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  dst->append(body);
}

Lsn LogRecord::CheckpointRedoStart() const {
  if (!IsCheckpoint() || payload.size() < 8) return kInvalidLsn;
  return DecodeFixed64(payload.data());
}

Status LogFrame::Parse(Slice input, LogFrame* out) {
  if (input.size() < 8) return Status::NotFound("end of log");
  uint32_t len = DecodeFixed32(input.data());
  uint32_t masked_crc = DecodeFixed32(input.data() + 4);
  if (input.size() < 8 + uint64_t{len}) return Status::NotFound("end of log");
  Slice body(input.data() + 8, len);
  if (crc32c::Unmask(masked_crc) != crc32c::Value(body.data(), len)) {
    return Status::Corruption("log record crc mismatch");
  }
  SliceReader reader(body);
  if (!reader.ReadFixed64(&out->lsn) || !reader.ReadFixed16(&out->op_code)) {
    return Status::Corruption("malformed log record");
  }
  out->bytes = Slice(input.data(), 8 + len);
  return Status::OK();
}

Lsn LogFrame::PeekLsn(Slice framed) {
  return framed.size() < 16 ? kInvalidLsn : DecodeFixed64(framed.data() + 8);
}

Status LogFrame::Decode(LogRecord* out) const {
  SliceReader reader(Slice(bytes.data() + 8, bytes.size() - 8));
  uint32_t nread = 0, nwrite = 0;
  out->readset.clear();
  out->writeset.clear();
  Slice flags_byte;
  if (!reader.ReadFixed64(&out->lsn) || !reader.ReadFixed16(&out->op_code) ||
      !reader.ReadBytes(1, &flags_byte) || !reader.ReadVarint32(&nread)) {
    return Status::Corruption("malformed log record");
  }
  out->flags = static_cast<uint8_t>(flags_byte[0]);
  for (uint32_t i = 0; i < nread; ++i) {
    PageId id;
    if (!reader.ReadPageId(&id)) return Status::Corruption("bad readset");
    out->readset.push_back(id);
  }
  if (!reader.ReadVarint32(&nwrite)) return Status::Corruption("bad writeset");
  for (uint32_t i = 0; i < nwrite; ++i) {
    PageId id;
    if (!reader.ReadPageId(&id)) return Status::Corruption("bad writeset");
    out->writeset.push_back(id);
  }
  out->payload.assign(reader.rest().data(), reader.remaining());
  return Status::OK();
}

bool LogFrameReader::Next(LogFrame* frame) {
  if (rest_.empty() || !status_.ok()) return false;
  status_ = LogFrame::Parse(rest_, frame);
  if (!status_.ok()) return false;
  rest_.RemovePrefix(frame->bytes.size());
  return true;
}

}  // namespace llb
