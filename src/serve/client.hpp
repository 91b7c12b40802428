/**
 * @file
 * Client library for the aggregation server.
 *
 * A blocking, retrying uploader: connect (unix:/tcp:), Hello, then
 * sendDelta() per profile delta, each awaiting its Ack with a timeout.
 * Failures retry with doubling backoff up to a cap; after a reconnect
 * the client blindly resends the in-flight delta — the server's durable
 * per-client seq cursor makes the resend land as Duplicate when the
 * first copy was admitted before the connection died, so at-least-once
 * sending composes into exactly-once aggregation.
 *
 * The replay tool (pathsched_serve --replay) and the reconnect-storm
 * bench are built on this class; tests use it against an in-process
 * daemon.
 */

#ifndef PATHSCHED_SERVE_CLIENT_HPP
#define PATHSCHED_SERVE_CLIENT_HPP

#include <cstdint>
#include <string>

#include "serve/socket.hpp"
#include "serve/wire.hpp"
#include "support/status.hpp"

namespace pathsched::serve {

/** Retry/backoff policy for one client. */
struct ClientOptions
{
    /** Milliseconds to wait for one Ack (also connect timeout). */
    uint64_t ackTimeoutMs = 5000;
    /** First retry backoff; doubles per consecutive failure. */
    uint64_t backoffMs = 50;
    /** Connection + send attempts per operation before giving up. */
    uint32_t maxAttempts = 5;
};

/** Blocking wire client; not thread-safe. */
class Client
{
  public:
    Client(Endpoint ep, std::string clientId,
           ClientOptions opts = ClientOptions());
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect and Hello (retrying per the options).  Idempotent. */
    Status connect();

    /** Drop the connection (next operation reconnects). */
    void disconnect();

    /**
     * Upload one profile delta and wait for its Ack.  Retries
     * (reconnect + resend, doubling backoff) on connection failures
     * and Throttled acks; Duplicate counts as success.  @p ackOut
     * (optional) receives the final Ack code.  A delta whose frame
     * would exceed kMaxFramePayload fails at once with BudgetExceeded,
     * before anything is sent.
     */
    Status sendDelta(uint64_t seq, uint8_t profileKind,
                     const std::string &text,
                     AckCode *ackOut = nullptr);

    /** Ask the server to advance its epoch (test/admin use). */
    Status sendTick();

    /** Ask the server to snapshot + reschedule now. */
    Status sendFlush();

    /** Total reconnects performed (observability for the bench). */
    uint64_t reconnects() const { return reconnects_; }

  private:
    Status connectOnce();
    Status sendFrame(const std::string &payload);
    /** Read until one response frame arrives or the ack timeout. */
    Status awaitResponse(Message &out);
    Status requestResponse(const std::string &payload, Message &out);

    Endpoint ep_;
    std::string client_id_;
    ClientOptions opts_;
    int fd_ = -1;
    FrameDecoder decoder_;
    uint64_t reconnects_ = 0;
};

} // namespace pathsched::serve

#endif // PATHSCHED_SERVE_CLIENT_HPP
