/**
 * @file
 * Serve wire format v1: length-prefixed, CRC-framed binary frames.
 *
 * Everything that crosses a durability or trust boundary in the serve
 * subsystem travels in the same frame container — client connections
 * (serve/socket.hpp), the write-ahead log and snapshots (serve/wal.hpp)
 * all reuse it, so one verifier covers every torn-write and bit-rot
 * case:
 *
 *   frame := u32 payloadLen | u32 crc32(payload) | payload
 *
 * All integers are fixed-width little-endian.  The CRC is the shared
 * reflected CRC-32 (support/hash.hpp).  A frame whose declared length
 * exceeds the decoder's cap, or whose payload fails the CRC, is a
 * *typed* error — the connection (or log tail) it came from is
 * untrusted from that byte on, exactly like a torn batch-journal line.
 *
 * The payload's first byte is the message type; the remainder is
 * message-specific.  The protocol is versioned through Hello (clients)
 * and the WAL/snapshot headers (durability), mirroring the v2 profile
 * format's header versioning: unknown versions are rejected up front
 * with a typed error, never half-parsed.
 *
 * Client → server:
 *   Hello     u16 wireVersion | str clientId
 *   Delta     u64 seq | u8 profileKind (0 edge, 1 path) | str text
 *             (text is a v1/v2 serialized profile, profile/serialize)
 *   Tick      (advance the aggregation epoch; admin/test use)
 *   Flush     (snapshot + reschedule now; replay/test use)
 *   StatsReq  (ask for the server's status document)
 *   Bye       (polite close)
 *
 * Server → client:
 *   Ack       u64 seq | u8 ackCode | str detail
 *   StatsRep  str json
 *
 * str := u32 len | bytes, with support/bytes.hpp's codec.  Every
 * decoder is bounds-checked and Status-returning; malformed payloads
 * are recoverable, typed errors (ErrorKind::BadProfile family), never
 * asserts — frames are untrusted input end to end.
 */

#ifndef PATHSCHED_SERVE_WIRE_HPP
#define PATHSCHED_SERVE_WIRE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.hpp"

namespace pathsched::serve {

/** Wire protocol version spoken by Hello (and stamped on WAL files). */
constexpr uint16_t kWireVersion = 1;

/** Hard cap on one frame's payload; larger declared lengths are
 *  rejected before any allocation (a 4-byte flip cannot OOM us). */
constexpr uint32_t kMaxFramePayload = 4u << 20;

/** Cap on one WAL *record* payload.  Wider than the socket cap because
 *  re-encoding an admitted (text) delta to binary can grow past
 *  kMaxFramePayload.  The writer enforces it per append and recovery
 *  decodes with exactly this cap, so every record the WAL accepts is
 *  replayable — an oversized record fails the append with a typed
 *  error instead of poisoning the log tail.  Snapshots are exempt:
 *  they are chunked into kMaxFramePayload-sized frames instead. */
constexpr uint32_t kMaxWalPayload = 64u << 20;

/** Payload type tags (first payload byte). */
enum class MsgType : uint8_t
{
    Hello = 1,
    Delta = 2,
    Tick = 3,
    Flush = 4,
    StatsReq = 5,
    Bye = 6,
    Ack = 16,
    StatsRep = 17,
    // Durability records (WAL / snapshot payloads, never on sockets).
    WalAdmitted = 32,
    WalEpoch = 33,
};

/** Ack verdicts, in the order the admission ladder applies them. */
enum class AckCode : uint8_t
{
    Accepted = 0,   ///< admitted, WAL-durable, merged
    Duplicate = 1,  ///< seq <= the client's last admitted seq; dropped
    Throttled = 2,  ///< per-client rate limit; retry after backoff
    Quarantined = 3,///< client flagged as misbehaving; dropped unread
    Rejected = 4,   ///< delta failed parse/admission checks
    Error = 5,      ///< protocol misuse (e.g. Delta before Hello)
    Unavailable = 6,///< server degraded (WAL down); retry with backoff
};

/** Stable display name, e.g. "accepted". */
const char *ackCodeName(AckCode code);

/** Wrap @p payload in a frame (length + CRC) appended to @p out. */
void appendFrame(std::string &out, const std::string &payload);

/**
 * Incremental frame extractor for a byte stream.  feed() bytes as they
 * arrive; next() pops one verified payload at a time.
 *
 * Torn input is typed, not fatal: a frame that declares more than
 * maxPayload, or whose CRC fails, poisons the decoder (corrupt()) —
 * the caller drops the connection or truncates the log there.  A
 * partial frame at the end of the stream is simply "no frame yet"
 * (finishTruncated() tells a log-replayer whether bytes were left).
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(uint32_t maxPayload = kMaxFramePayload)
        : max_(maxPayload)
    {}

    /** Append raw stream bytes. */
    void feed(const void *data, size_t size);

    /** Result of one next() call. */
    enum class Result
    {
        Frame,   ///< @p out holds the next verified payload
        NeedMore,///< no complete frame buffered yet
        Corrupt, ///< CRC/length failure; decoder is poisoned
    };

    /** Pop the next verified payload into @p out. */
    Result next(std::string &out);

    /** A CRC/length failure was seen; the stream is untrusted. */
    bool corrupt() const { return corrupt_; }

    /** Human-readable reason for corrupt(). */
    const std::string &corruptReason() const { return reason_; }

    /** Bytes buffered but not yet consumed by complete frames. */
    size_t pendingBytes() const { return buf_.size() - off_; }

  private:
    std::string buf_;
    size_t off_ = 0;
    uint32_t max_;
    bool corrupt_ = false;
    std::string reason_;
};

/** @name Typed message encoders (payloads; wrap with appendFrame) @{ */
std::string encodeHello(const std::string &clientId,
                        uint16_t version = kWireVersion);
std::string encodeDelta(uint64_t seq, uint8_t profileKind,
                        const std::string &text);
std::string encodeTick();
std::string encodeFlush();
std::string encodeStatsReq();
std::string encodeBye();
std::string encodeAck(uint64_t seq, AckCode code,
                      const std::string &detail);
std::string encodeStatsRep(const std::string &json);
/** @} */

/** One decoded client/server message (fields valid per its type). */
struct Message
{
    MsgType type = MsgType::Bye;
    uint16_t version = 0;     ///< Hello
    std::string clientId;     ///< Hello
    uint64_t seq = 0;         ///< Delta / Ack
    uint8_t profileKind = 0;  ///< Delta: 0 = edge, 1 = path
    std::string text;         ///< Delta text / Ack detail / StatsRep json
    AckCode ack = AckCode::Error; ///< Ack
};

/** Decode one frame payload into @p out.  Typed BadProfile error on an
 *  unknown type tag or a truncated/overlong body. */
Status decodeMessage(const std::string &payload, Message &out);

} // namespace pathsched::serve

#endif // PATHSCHED_SERVE_WIRE_HPP
