#include "net/frame.h"

#include "common/strings.h"
#include "store/codec.h"

namespace ppdm::net {

std::string VerbName(std::uint32_t verb) {
  switch (static_cast<Verb>(verb)) {
    case Verb::kOpen: return "open";
    case Verb::kIngest: return "ingest";
    case Verb::kReconstruct: return "reconstruct";
    case Verb::kSnapshot: return "snapshot";
    case Verb::kClose: return "close";
    case Verb::kStats: return "stats";
  }
  return StrFormat("verb#%u", verb);
}

bool KnownVerb(std::uint32_t verb) {
  return verb >= static_cast<std::uint32_t>(Verb::kOpen) &&
         verb <= static_cast<std::uint32_t>(Verb::kStats);
}

namespace {

/// Little-endian u32 read straight off the buffer — HeaderBytesNeeded
/// peeks at the version and trace-length words before a Reader pass is
/// worth setting up.
std::uint32_t PeekU32(std::string_view bytes, std::size_t offset) {
  const auto byte = [&](std::size_t i) {
    return static_cast<std::uint32_t>(
        static_cast<unsigned char>(bytes[offset + i]));
  };
  return byte(0) | byte(1) << 8 | byte(2) << 16 | byte(3) << 24;
}

/// Offset of the trace-length word (just after ttl_ms).
constexpr std::size_t kTraceLenOffset = 32;

}  // namespace

std::string EncodeFrame(std::uint32_t verb, std::uint64_t request_id,
                        std::uint64_t tenant, std::uint32_t ttl_ms,
                        std::string_view body, std::uint64_t trace_id) {
  store::Writer writer;
  writer.PutU32(kFrameMagic);
  writer.PutU32(kProtocolVersion);
  writer.PutU32(verb);
  writer.PutU64(request_id);
  writer.PutU64(tenant);
  writer.PutU32(ttl_ms);
  writer.PutU32(trace_id == 0 ? 0 : kMaxTraceHexChars);
  std::string frame = writer.Take();
  if (trace_id != 0) {
    frame += StrFormat("%016llx", static_cast<unsigned long long>(trace_id));
  }
  store::Writer tail;
  tail.PutU64(body.size());
  tail.PutU32(store::Crc32(body));
  frame += tail.Take();
  frame.append(body.data(), body.size());
  return frame;
}

std::size_t HeaderBytesNeeded(std::string_view bytes) {
  // Enough to check the magic first: a non-frame prefix must fail fast,
  // not wait for bytes that will never come.
  if (bytes.size() < 4) return 4 - bytes.size();
  if (PeekU32(bytes, 0) != kFrameMagic) return 0;
  if (bytes.size() < 8) return 8 - bytes.size();
  // An unsupported version is reported now, before any more buffering.
  if (PeekU32(bytes, 4) != kProtocolVersion) return 0;
  if (bytes.size() < kHeaderSize) return kHeaderSize - bytes.size();
  const std::uint32_t trace_chars = PeekU32(bytes, kTraceLenOffset);
  if (trace_chars > kMaxTraceHexChars) return 0;  // hostile — report now
  const std::size_t total = kHeaderSize + trace_chars;
  return bytes.size() < total ? total - bytes.size() : 0;
}

Result<FrameHeader> DecodeHeader(std::string_view bytes,
                                 std::uint64_t max_body_bytes) {
  if (bytes.size() >= 4 && PeekU32(bytes, 0) != kFrameMagic) {
    return Status::InvalidArgument("not a ppdm net frame (bad magic)");
  }
  if (bytes.size() < 8) {
    return Status::IoError(
        StrFormat("truncated frame header: %zu of at least %zu bytes",
                  bytes.size(), static_cast<std::size_t>(8)));
  }
  FrameHeader header;
  header.version = PeekU32(bytes, 4);
  if (header.version != kProtocolVersion) {
    return Status::FailedPrecondition(
        StrFormat("frame version %u not supported (this peer speaks %u)",
                  header.version, kProtocolVersion));
  }
  if (bytes.size() < kHeaderSize) {
    return Status::IoError(
        StrFormat("truncated frame header: %zu of at least %zu bytes",
                  bytes.size(), kHeaderSize));
  }
  const std::uint32_t trace_chars = PeekU32(bytes, kTraceLenOffset);
  if (trace_chars > kMaxTraceHexChars) {
    return Status::InvalidArgument(
        StrFormat("trace id of %u chars exceeds the %u-char cap", trace_chars,
                  kMaxTraceHexChars));
  }
  header.header_size = kHeaderSize + trace_chars;
  if (bytes.size() < header.header_size) {
    return Status::IoError(
        StrFormat("truncated frame header: %zu of %zu bytes", bytes.size(),
                  header.header_size));
  }
  store::Reader reader(bytes.substr(8, 24));
  PPDM_ASSIGN_OR_RETURN(header.verb, reader.ReadU32());
  PPDM_ASSIGN_OR_RETURN(header.request_id, reader.ReadU64());
  PPDM_ASSIGN_OR_RETURN(header.tenant, reader.ReadU64());
  PPDM_ASSIGN_OR_RETURN(header.ttl_ms, reader.ReadU32());
  // Trace id: hex chars from an untrusted peer. Anything but lowercase hex
  // naming a nonzero u64 is hostile.
  for (std::size_t i = 0; i < trace_chars; ++i) {
    const char c = bytes[kTraceLenOffset + 4 + i];
    const std::uint64_t digit =
        c >= '0' && c <= '9'   ? static_cast<std::uint64_t>(c - '0')
        : c >= 'a' && c <= 'f' ? static_cast<std::uint64_t>(c - 'a' + 10)
                               : 16;
    if (digit >= 16) {
      return Status::InvalidArgument(
          "frame trace id holds non-hex characters");
    }
    header.trace_id = header.trace_id << 4 | digit;
  }
  if (trace_chars > 0 && header.trace_id == 0) {
    return Status::InvalidArgument("frame trace id must be nonzero");
  }
  store::Reader tail(bytes.substr(kTraceLenOffset + 4 + trace_chars, 12));
  PPDM_ASSIGN_OR_RETURN(header.body_length, tail.ReadU64());
  if (header.body_length > max_body_bytes) {
    return Status::ResourceExhausted(
        StrFormat("frame body of %llu bytes exceeds the %llu-byte cap",
                  static_cast<unsigned long long>(header.body_length),
                  static_cast<unsigned long long>(max_body_bytes)));
  }
  PPDM_ASSIGN_OR_RETURN(header.body_crc, tail.ReadU32());
  return header;
}

Status VerifyBody(const FrameHeader& header, std::string_view body) {
  if (body.size() != header.body_length) {
    return Status::IoError(
        StrFormat("frame body is %zu bytes, header promised %llu",
                  body.size(),
                  static_cast<unsigned long long>(header.body_length)));
  }
  if (store::Crc32(body) != header.body_crc) {
    return Status::DataLoss("frame body CRC mismatch");
  }
  return Status::Ok();
}

Result<Frame> DecodeFrame(std::string_view bytes,
                          std::uint64_t max_body_bytes) {
  PPDM_ASSIGN_OR_RETURN(const FrameHeader header,
                        DecodeHeader(bytes, max_body_bytes));
  const std::string_view rest = bytes.substr(header.header_size);
  if (rest.size() < header.body_length) {
    return Status::IoError(
        StrFormat("truncated frame body: %zu of %llu bytes", rest.size(),
                  static_cast<unsigned long long>(header.body_length)));
  }
  if (rest.size() > header.body_length) {
    return Status::InvalidArgument(
        StrFormat("%zu trailing bytes after the frame body",
                  rest.size() - static_cast<std::size_t>(header.body_length)));
  }
  Frame frame;
  frame.header = header;
  frame.body.assign(rest.data(), rest.size());
  PPDM_RETURN_IF_ERROR(VerifyBody(frame.header, frame.body));
  return frame;
}

std::string EncodeResponseBody(const Status& status,
                               std::string_view payload) {
  store::Writer writer;
  writer.PutU32(static_cast<std::uint32_t>(status.code()));
  writer.PutString(status.message());
  std::string body = writer.Take();
  body.append(payload.data(), payload.size());
  return body;
}

Result<ResponseBody> DecodeResponseBody(std::string_view body) {
  store::Reader reader(body);
  PPDM_ASSIGN_OR_RETURN(const std::uint32_t code, reader.ReadU32());
  if (code > static_cast<std::uint32_t>(StatusCode::kDataLoss)) {
    return Status::InvalidArgument(
        StrFormat("response carries unknown status code %u", code));
  }
  PPDM_ASSIGN_OR_RETURN(std::string message, reader.ReadString());
  ResponseBody response;
  response.status = Status(static_cast<StatusCode>(code), std::move(message));
  response.payload.assign(body.substr(body.size() - reader.remaining()));
  return response;
}

}  // namespace ppdm::net
