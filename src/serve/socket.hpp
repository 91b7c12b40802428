/**
 * @file
 * Transport for the aggregation server: poll()-driven socket loop.
 *
 * One thread, nonblocking sockets, bounded buffers — the loop multiplexes
 * every client connection over the transport-free ServeCore:
 *
 *  - Addresses are "unix:/path/sock" or "tcp:host:port"; both sides
 *    (daemon and client library) parse the same syntax.
 *  - Per-connection receive and send buffers are capped; a peer that
 *    overflows either (frames bigger than it may send, or refusing to
 *    read acks) is disconnected — backpressure degrades to dropped
 *    connections, never unbounded memory.
 *  - The epoch timer rides the poll() timeout: every epochMs of wall
 *    time the loop calls ServeCore::tick(), which rotates the decay
 *    window, refills admission tokens, and (on its cadence) attempts a
 *    fingerprint-gated reschedule.
 *  - SIGTERM/SIGINT request a graceful stop: the loop exits, snapshots,
 *    and writes the status document; kill -9 is the crash the WAL
 *    recovers from.
 */

#ifndef PATHSCHED_SERVE_SOCKET_HPP
#define PATHSCHED_SERVE_SOCKET_HPP

#include <cstdint>
#include <string>

#include "serve/server.hpp"
#include "support/status.hpp"

namespace pathsched::serve {

/** A parsed "unix:..." / "tcp:host:port" endpoint. */
struct Endpoint
{
    bool isUnix = false;
    std::string path; ///< unix socket path
    std::string host; ///< tcp host (numeric or name)
    uint16_t port = 0;

    /** Parse @p spec; typed BadProfile-family error on bad syntax. */
    static Status parse(const std::string &spec, Endpoint &out);
};

/** Socket-loop tunables. */
struct SocketLoopOptions
{
    /** Wall milliseconds per aggregation epoch. */
    uint64_t epochMs = 1000;
    /** Stop after this many accepted deltas (0 = run forever) — lets
     *  tests and the CI smoke drive a deterministic amount of work. */
    uint64_t maxDeltas = 0;
    /** Stop after this many epoch ticks (0 = run forever). */
    uint64_t maxEpochs = 0;
};

/**
 * Run the serve loop on @p core, listening at @p ep, until a stop
 * signal (SIGTERM/SIGINT), maxDeltas/maxEpochs, or a fatal socket
 * error.  On a graceful stop the core is flushed (snapshot +
 * reschedule attempt).  Returns non-OK only for setup/fatal errors.
 */
Status runSocketLoop(ServeCore &core, const Endpoint &ep,
                     const SocketLoopOptions &opts);

} // namespace pathsched::serve

#endif // PATHSCHED_SERVE_SOCKET_HPP
