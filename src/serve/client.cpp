#include "serve/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/strutil.hpp"

namespace pathsched::serve {

namespace {

/** Ceiling on the doubling retry backoff. */
constexpr uint64_t kBackoffCapMs = 2000;

Status
clientError(const char *op)
{
    return Status::error(ErrorKind::BadProfile,
                         strfmt("client: %s: %s", op, strerror(errno)));
}

} // namespace

Client::Client(Endpoint ep, std::string clientId, ClientOptions opts)
    : ep_(std::move(ep)), client_id_(std::move(clientId)), opts_(opts)
{}

Client::~Client()
{
    disconnect();
}

void
Client::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    decoder_ = FrameDecoder();
}

Status
Client::connectOnce()
{
    disconnect();
    fd_ = socket(ep_.isUnix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return clientError("socket");
    int rc;
    if (ep_.isUnix) {
        sockaddr_un addr;
        memset(&addr, 0, sizeof addr);
        addr.sun_family = AF_UNIX;
        strncpy(addr.sun_path, ep_.path.c_str(),
                sizeof addr.sun_path - 1);
        rc = ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr);
    } else {
        sockaddr_in addr;
        memset(&addr, 0, sizeof addr);
        addr.sin_family = AF_INET;
        addr.sin_port = htons(ep_.port);
        if (inet_pton(AF_INET, ep_.host.c_str(), &addr.sin_addr) != 1) {
            disconnect();
            return Status::error(ErrorKind::BadProfile,
                                 strfmt("client: bad IPv4 address '%s'",
                                        ep_.host.c_str()));
        }
        rc = ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr);
    }
    if (rc != 0) {
        Status st = clientError("connect");
        disconnect();
        return st;
    }
    // Hello + its ack complete the handshake.
    if (Status st = sendFrame(encodeHello(client_id_)); !st.ok()) {
        disconnect();
        return st;
    }
    Message resp;
    if (Status st = awaitResponse(resp); !st.ok()) {
        disconnect();
        return st;
    }
    if (resp.type != MsgType::Ack || resp.ack != AckCode::Accepted) {
        disconnect();
        return Status::error(
            ErrorKind::BadProfile,
            strfmt("client: hello rejected: %s", resp.text.c_str()));
    }
    return Status();
}

Status
Client::connect()
{
    if (fd_ >= 0)
        return Status();
    uint64_t backoff = opts_.backoffMs;
    Status last;
    for (uint32_t attempt = 0; attempt < opts_.maxAttempts; ++attempt) {
        if (attempt > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff));
            backoff = std::min(backoff * 2, kBackoffCapMs);
            ++reconnects_;
        }
        last = connectOnce();
        if (last.ok())
            return last;
    }
    return last;
}

Status
Client::sendFrame(const std::string &payload)
{
    // The server drops a connection whose frame declares more than
    // the cap, so such a frame can never be delivered.
    if (payload.size() > kMaxFramePayload)
        return Status::error(
            ErrorKind::BudgetExceeded,
            strfmt("client: frame payload of %zu bytes exceeds the "
                   "%u-byte cap",
                   payload.size(), kMaxFramePayload));
    if (fd_ < 0)
        return Status::error(ErrorKind::BadProfile,
                             "client: not connected");
    std::string frame;
    appendFrame(frame, payload);
    size_t off = 0;
    while (off < frame.size()) {
        // MSG_NOSIGNAL: a peer that closed the connection is an EPIPE
        // error to retry or report, not a SIGPIPE that kills the caller.
        const ssize_t n = ::send(fd_, frame.data() + off,
                                 frame.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return clientError("send");
        }
        off += size_t(n);
    }
    return Status();
}

Status
Client::awaitResponse(Message &out)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(opts_.ackTimeoutMs);
    for (;;) {
        std::string payload;
        const auto r = decoder_.next(payload);
        if (r == FrameDecoder::Result::Frame) {
            if (Status st = decodeMessage(payload, out); !st.ok())
                return st;
            return Status();
        }
        if (r == FrameDecoder::Result::Corrupt)
            return Status::error(
                ErrorKind::ProfileCorrupt,
                strfmt("client: response stream corrupt: %s",
                       decoder_.corruptReason().c_str()));
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline)
            return Status::error(ErrorKind::DeadlineExceeded,
                                 "client: ack timeout");
        const auto leftMs =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now)
                .count();
        pollfd pfd{fd_, POLLIN, 0};
        const int nready = poll(&pfd, 1, int(leftMs));
        if (nready < 0) {
            if (errno == EINTR)
                continue;
            return clientError("poll");
        }
        if (nready == 0)
            return Status::error(ErrorKind::DeadlineExceeded,
                                 "client: ack timeout");
        char buf[1 << 16];
        const ssize_t n = read(fd_, buf, sizeof buf);
        if (n > 0) {
            decoder_.feed(buf, size_t(n));
            continue;
        }
        if (n == 0)
            return Status::error(ErrorKind::BadProfile,
                                 "client: server closed connection");
        if (errno != EINTR)
            return clientError("read");
    }
}

Status
Client::requestResponse(const std::string &payload, Message &out)
{
    uint64_t backoff = opts_.backoffMs;
    Status last;
    for (uint32_t attempt = 0; attempt < opts_.maxAttempts; ++attempt) {
        if (attempt > 0) {
            // Doubling backoff, then reconnect and resend — the
            // server's seq cursor absorbs any duplicate this causes.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff));
            backoff = std::min(backoff * 2, kBackoffCapMs);
            disconnect();
            ++reconnects_;
        }
        if (Status st = connect(); !st.ok()) {
            last = st;
            continue;
        }
        if (Status st = sendFrame(payload); !st.ok()) {
            // No resend delivers an oversize frame.
            if (st.kind() == ErrorKind::BudgetExceeded)
                return st;
            last = st;
            continue;
        }
        last = awaitResponse(out);
        if (last.ok())
            return last;
    }
    return last;
}

Status
Client::sendDelta(uint64_t seq, uint8_t profileKind,
                  const std::string &text, AckCode *ackOut)
{
    const std::string payload = encodeDelta(seq, profileKind, text);
    uint64_t backoff = opts_.backoffMs;
    for (uint32_t attempt = 0; attempt < opts_.maxAttempts; ++attempt) {
        Message resp;
        Status st = requestResponse(payload, resp);
        if (!st.ok())
            return st;
        if (resp.type != MsgType::Ack || resp.seq != seq)
            return Status::error(ErrorKind::BadProfile,
                                 "client: mismatched ack");
        if (ackOut != nullptr)
            *ackOut = resp.ack;
        switch (resp.ack) {
        case AckCode::Accepted:
        case AckCode::Duplicate: // admitted before a reconnect
            return Status();
        case AckCode::Throttled:
        case AckCode::Unavailable:
            // Rate-limited, or the server is degraded (WAL down): back
            // off and retry the same seq.  Unavailable is explicitly
            // NOT a transport error — tearing the connection down and
            // reconnecting would turn one sick disk into a reconnect
            // storm; the delta was not admitted, so the resend is safe.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff));
            backoff = std::min(backoff * 2, kBackoffCapMs);
            continue;
        case AckCode::Quarantined:
        case AckCode::Rejected:
        case AckCode::Error:
            return Status::error(
                ErrorKind::BadProfile,
                strfmt("client: delta %s: %s",
                       ackCodeName(resp.ack), resp.text.c_str()));
        }
    }
    return Status::error(ErrorKind::Unavailable,
                         "client: backed off past retry budget");
}

Status
Client::sendTick()
{
    Message resp;
    return requestResponse(encodeTick(), resp);
}

Status
Client::sendFlush()
{
    Message resp;
    return requestResponse(encodeFlush(), resp);
}

} // namespace pathsched::serve
