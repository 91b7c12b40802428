#include "serve/wire.hpp"

#include <cstring>

#include "support/bytes.hpp"
#include "support/hash.hpp"
#include "support/strutil.hpp"

namespace pathsched::serve {

const char *
ackCodeName(AckCode code)
{
    switch (code) {
    case AckCode::Accepted:
        return "accepted";
    case AckCode::Duplicate:
        return "duplicate";
    case AckCode::Throttled:
        return "throttled";
    case AckCode::Quarantined:
        return "quarantined";
    case AckCode::Rejected:
        return "rejected";
    case AckCode::Error:
        return "error";
    case AckCode::Unavailable:
        return "unavailable";
    }
    return "unknown";
}

void
appendFrame(std::string &out, const std::string &payload)
{
    putU32(out, uint32_t(payload.size()));
    putU32(out, crc32(payload.data(), payload.size()));
    out += payload;
}

void
FrameDecoder::feed(const void *data, size_t size)
{
    // Compact occasionally so a long-lived connection cannot grow the
    // buffer without bound on consumed bytes.
    if (off_ > 0 && off_ >= buf_.size() / 2) {
        buf_.erase(0, off_);
        off_ = 0;
    }
    buf_.append(static_cast<const char *>(data), size);
}

FrameDecoder::Result
FrameDecoder::next(std::string &out)
{
    if (corrupt_)
        return Result::Corrupt;
    size_t pos = off_;
    uint32_t len = 0, crc = 0;
    if (!getU32(buf_, pos, len))
        return Result::NeedMore;
    if (len > max_) {
        corrupt_ = true;
        reason_ = strfmt("declared payload %u exceeds cap %u", len, max_);
        return Result::Corrupt;
    }
    if (!getU32(buf_, pos, crc))
        return Result::NeedMore;
    if (pos + len > buf_.size())
        return Result::NeedMore;
    const uint32_t actual = crc32(buf_.data() + pos, len);
    if (actual != crc) {
        corrupt_ = true;
        reason_ = strfmt("frame CRC mismatch (declared %08x, got %08x)",
                         crc, actual);
        return Result::Corrupt;
    }
    out.assign(buf_, pos, len);
    off_ = pos + len;
    return Result::Frame;
}

std::string
encodeHello(const std::string &clientId, uint16_t version)
{
    std::string p;
    putU8(p, uint8_t(MsgType::Hello));
    putU16(p, version);
    putStr(p, clientId);
    return p;
}

std::string
encodeDelta(uint64_t seq, uint8_t profileKind, const std::string &text)
{
    std::string p;
    putU8(p, uint8_t(MsgType::Delta));
    putU64(p, seq);
    putU8(p, profileKind);
    putStr(p, text);
    return p;
}

namespace {

std::string
encodeBare(MsgType t)
{
    std::string p;
    putU8(p, uint8_t(t));
    return p;
}

} // namespace

std::string
encodeTick()
{
    return encodeBare(MsgType::Tick);
}

std::string
encodeFlush()
{
    return encodeBare(MsgType::Flush);
}

std::string
encodeStatsReq()
{
    return encodeBare(MsgType::StatsReq);
}

std::string
encodeBye()
{
    return encodeBare(MsgType::Bye);
}

std::string
encodeAck(uint64_t seq, AckCode code, const std::string &detail)
{
    std::string p;
    putU8(p, uint8_t(MsgType::Ack));
    putU64(p, seq);
    putU8(p, uint8_t(code));
    putStr(p, detail);
    return p;
}

std::string
encodeStatsRep(const std::string &json)
{
    std::string p;
    putU8(p, uint8_t(MsgType::StatsRep));
    putStr(p, json);
    return p;
}

Status
decodeMessage(const std::string &payload, Message &out)
{
    auto bad = [&](const char *what) {
        return Status::error(ErrorKind::BadProfile,
                             strfmt("wire: %s", what));
    };
    size_t pos = 0;
    uint8_t tag = 0;
    if (!getU8(payload, pos, tag))
        return bad("empty payload");
    out = Message();
    switch (MsgType(tag)) {
    case MsgType::Hello: {
        out.type = MsgType::Hello;
        if (!getU16(payload, pos, out.version) ||
            !getStr(payload, pos, out.clientId))
            return bad("truncated Hello");
        break;
    }
    case MsgType::Delta: {
        out.type = MsgType::Delta;
        if (!getU64(payload, pos, out.seq) ||
            !getU8(payload, pos, out.profileKind) ||
            !getStr(payload, pos, out.text))
            return bad("truncated Delta");
        if (out.profileKind > 1)
            return bad("unknown Delta profile kind");
        break;
    }
    case MsgType::Tick:
    case MsgType::Flush:
    case MsgType::StatsReq:
    case MsgType::Bye:
        out.type = MsgType(tag);
        break;
    case MsgType::Ack: {
        out.type = MsgType::Ack;
        uint8_t code = 0;
        if (!getU64(payload, pos, out.seq) ||
            !getU8(payload, pos, code) ||
            !getStr(payload, pos, out.text))
            return bad("truncated Ack");
        if (code > uint8_t(AckCode::Unavailable))
            return bad("unknown Ack code");
        out.ack = AckCode(code);
        break;
    }
    case MsgType::StatsRep: {
        out.type = MsgType::StatsRep;
        if (!getStr(payload, pos, out.text))
            return bad("truncated StatsRep");
        break;
    }
    default:
        return bad("unknown message type");
    }
    if (pos != payload.size())
        return bad("trailing bytes after message");
    return Status();
}

} // namespace pathsched::serve
