#include "serve/socket.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/logging.hpp"
#include "support/strutil.hpp"

namespace pathsched::serve {

Status
Endpoint::parse(const std::string &spec, Endpoint &out)
{
    auto bad = [&](const char *what) {
        return Status::error(
            ErrorKind::BadProfile,
            strfmt("endpoint '%s': %s", spec.c_str(), what));
    };
    out = Endpoint();
    if (spec.rfind("unix:", 0) == 0) {
        out.isUnix = true;
        out.path = spec.substr(5);
        if (out.path.empty())
            return bad("empty unix socket path");
        if (out.path.size() >= sizeof(sockaddr_un{}.sun_path))
            return bad("unix socket path too long");
        return Status();
    }
    if (spec.rfind("tcp:", 0) == 0) {
        const std::string rest = spec.substr(4);
        const size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == rest.size())
            return bad("want tcp:host:port");
        out.host = rest.substr(0, colon);
        uint64_t port = 0;
        for (size_t i = colon + 1; i < rest.size(); ++i) {
            if (rest[i] < '0' || rest[i] > '9')
                return bad("non-numeric port");
            port = port * 10 + uint64_t(rest[i] - '0');
            if (port > 65535)
                return bad("port out of range");
        }
        if (port == 0)
            return bad("port out of range");
        out.port = uint16_t(port);
        return Status();
    }
    return bad("want unix:<path> or tcp:<host>:<port>");
}

namespace {

/** Cap on one connection's buffered unparsed input. */
constexpr size_t kMaxRecvBuffer = 8u << 20;
/** Cap on one connection's unsent responses. */
constexpr size_t kMaxSendBuffer = 8u << 20;
/** Max concurrent connections; further accepts are closed. */
constexpr size_t kMaxConnections = 256;

volatile sig_atomic_t g_serve_stop = 0;

void
onServeSignal(int)
{
    g_serve_stop = 1;
}

void
installServeSignals()
{
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = onServeSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: poll() must wake on the signal
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
}

Status
sockError(const char *op)
{
    return Status::error(ErrorKind::BadProfile,
                         strfmt("socket: %s: %s", op, strerror(errno)));
}

bool
setNonBlocking(int fd)
{
    const int flags = fcntl(fd, F_GETFL, 0);
    return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

struct Conn
{
    int fd = -1;
    std::string key;
    FrameDecoder decoder;
    std::string sendBuf;
    bool closing = false; ///< flush sendBuf, then close
};

} // namespace

Status
runSocketLoop(ServeCore &core, const Endpoint &ep,
              const SocketLoopOptions &opts)
{
    // --- listen socket ----------------------------------------------
    const int lfd = socket(ep.isUnix ? AF_UNIX : AF_INET,
                           SOCK_STREAM, 0);
    if (lfd < 0)
        return sockError("socket");
    if (ep.isUnix) {
        sockaddr_un addr;
        memset(&addr, 0, sizeof addr);
        addr.sun_family = AF_UNIX;
        strncpy(addr.sun_path, ep.path.c_str(),
                sizeof addr.sun_path - 1);
        (void)unlink(ep.path.c_str()); // stale socket from a crash
        if (bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                 sizeof addr) != 0) {
            ::close(lfd);
            return sockError("bind");
        }
    } else {
        const int one = 1;
        setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        sockaddr_in addr;
        memset(&addr, 0, sizeof addr);
        addr.sin_family = AF_INET;
        addr.sin_port = htons(ep.port);
        if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
            ::close(lfd);
            return Status::error(
                ErrorKind::BadProfile,
                strfmt("socket: bad IPv4 address '%s'",
                       ep.host.c_str()));
        }
        if (bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                 sizeof addr) != 0) {
            ::close(lfd);
            return sockError("bind");
        }
    }
    if (listen(lfd, 64) != 0 || !setNonBlocking(lfd)) {
        ::close(lfd);
        return sockError("listen");
    }

    installServeSignals();

    std::map<int, Conn> conns;
    uint64_t nextKey = 1;
    uint64_t epochsRun = 0;
    auto lastTick = std::chrono::steady_clock::now();
    auto closeConn = [&](int fd) {
        core.dropConnection(conns[fd].key);
        conns.erase(fd);
        ::close(fd);
    };

    bool stopping = false;
    while (!stopping) {
        if (g_serve_stop != 0)
            break;
        if (opts.maxDeltas != 0 &&
            core.deltasAccepted() >= opts.maxDeltas)
            break;
        if (opts.maxEpochs != 0 && epochsRun >= opts.maxEpochs)
            break;

        // --- poll set ----------------------------------------------
        std::vector<pollfd> pfds;
        pfds.push_back({lfd, POLLIN, 0});
        for (auto &[fd, c] : conns) {
            short ev = c.closing ? 0 : POLLIN;
            if (!c.sendBuf.empty())
                ev |= POLLOUT;
            pfds.push_back({fd, ev, 0});
        }

        // Timeout = time until the next epoch tick.
        const auto now = std::chrono::steady_clock::now();
        const auto sinceTick =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - lastTick)
                .count();
        // epochMs is user-controlled: clamp before converting so a
        // value beyond INT_MAX cannot wrap negative and turn the poll
        // loop into a busy spin.
        const int64_t remainMs =
            int64_t(std::min<uint64_t>(
                opts.epochMs,
                uint64_t(std::numeric_limits<int>::max()))) -
            sinceTick;
        const int timeout = remainMs < 0 ? 0 : int(remainMs);
        const int nready = poll(pfds.data(), nfds_t(pfds.size()),
                                timeout);
        if (nready < 0 && errno != EINTR) {
            ::close(lfd);
            return sockError("poll");
        }

        // --- epoch timer -------------------------------------------
        const auto after = std::chrono::steady_clock::now();
        if (std::chrono::duration_cast<std::chrono::milliseconds>(
                after - lastTick)
                .count() >= int64_t(opts.epochMs)) {
            lastTick = after;
            ++epochsRun;
            if (Status st = core.tick(); !st.ok())
                warn("serve: epoch tick failed: %s",
                     st.toString().c_str());
        }
        if (nready <= 0)
            continue;

        // --- accept ------------------------------------------------
        if ((pfds[0].revents & POLLIN) != 0) {
            for (;;) {
                const int cfd = accept(lfd, nullptr, nullptr);
                if (cfd < 0)
                    break;
                if (conns.size() >= kMaxConnections ||
                    !setNonBlocking(cfd)) {
                    ::close(cfd); // at capacity: shed load
                    continue;
                }
                Conn c;
                c.fd = cfd;
                c.key = strfmt("conn-%llu",
                               (unsigned long long)nextKey++);
                conns.emplace(cfd, std::move(c));
            }
        }

        // --- per-connection I/O ------------------------------------
        std::vector<int> dead;
        for (size_t i = 1; i < pfds.size(); ++i) {
            const int fd = pfds[i].fd;
            auto it = conns.find(fd);
            if (it == conns.end())
                continue;
            Conn &c = it->second;
            if ((pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) !=
                0) {
                dead.push_back(fd);
                continue;
            }
            if ((pfds[i].revents & POLLIN) != 0) {
                char buf[1 << 16];
                bool connDead = false;
                for (;;) {
                    const ssize_t n = read(fd, buf, sizeof buf);
                    if (n > 0) {
                        c.decoder.feed(buf, size_t(n));
                        if (c.decoder.pendingBytes() >
                            kMaxRecvBuffer) {
                            connDead = true; // refuses to frame: shed
                            break;
                        }
                        continue;
                    }
                    if (n == 0) {
                        connDead = true;
                        break;
                    }
                    if (errno == EAGAIN || errno == EWOULDBLOCK)
                        break;
                    if (errno == EINTR)
                        continue;
                    connDead = true;
                    break;
                }
                // Drain complete frames even off a dying connection:
                // what arrived intact is still valid input.
                std::string payload;
                for (;;) {
                    const auto r = c.decoder.next(payload);
                    if (r == FrameDecoder::Result::NeedMore)
                        break;
                    if (r == FrameDecoder::Result::Corrupt) {
                        // Torn/corrupt stream: the remainder is
                        // untrusted; drop the connection.
                        connDead = true;
                        break;
                    }
                    bool drop = false;
                    for (const std::string &resp :
                         core.handleFrame(c.key, payload, drop))
                        appendFrame(c.sendBuf, resp);
                    if (drop) {
                        c.closing = true;
                        break;
                    }
                }
                if (connDead) {
                    dead.push_back(fd);
                    continue;
                }
                if (c.sendBuf.size() > kMaxSendBuffer) {
                    dead.push_back(fd); // refuses to read acks: shed
                    continue;
                }
            }
            if (!c.sendBuf.empty()) {
                const ssize_t n =
                    write(fd, c.sendBuf.data(), c.sendBuf.size());
                if (n > 0)
                    c.sendBuf.erase(0, size_t(n));
                else if (n < 0 && errno != EAGAIN &&
                         errno != EWOULDBLOCK && errno != EINTR) {
                    dead.push_back(fd);
                    continue;
                }
            }
            if (c.closing && c.sendBuf.empty())
                dead.push_back(fd);
        }
        for (int fd : dead)
            closeConn(fd);
    }

    // Graceful stop: drain nothing further, snapshot, close.
    for (auto &[fd, c] : conns) {
        core.dropConnection(c.key);
        ::close(fd);
    }
    conns.clear();
    ::close(lfd);
    if (ep.isUnix)
        (void)unlink(ep.path.c_str());
    if (Status st = core.flush(); !st.ok())
        return st;
    return Status();
}

} // namespace pathsched::serve
