#include "support/vio.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/strutil.hpp"

namespace pathsched {

namespace {

/** Split @p s on @p sep, dropping empty pieces (same as the PR-2
 *  fault grammar). */
std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        size_t end = s.find(sep, start);
        if (end == std::string::npos)
            end = s.size();
        if (end > start)
            out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

bool
parseIoFaultKind(const std::string &token, IoFaultKind &out)
{
    if (token == "enospc")
        out = IoFaultKind::Enospc;
    else if (token == "eio")
        out = IoFaultKind::Eio;
    else if (token == "short-write")
        out = IoFaultKind::ShortWrite;
    else if (token == "fsync-fail")
        out = IoFaultKind::FsyncFail;
    else if (token == "rename-fail")
        out = IoFaultKind::RenameFail;
    else
        return false;
    return true;
}

/** The op a kind targets when `op=` is omitted ("" = any op). */
const char *
defaultOpFor(IoFaultKind kind)
{
    switch (kind) {
      case IoFaultKind::Enospc: return "write";
      case IoFaultKind::ShortWrite: return "write";
      case IoFaultKind::FsyncFail: return "fsync";
      case IoFaultKind::RenameFail: return "rename";
      case IoFaultKind::Eio: return "";
    }
    return "";
}

/** The errno an injected kind reports. */
int
errnoFor(IoFaultKind kind)
{
    return kind == IoFaultKind::Enospc ? ENOSPC : EIO;
}

bool
validOp(const std::string &op)
{
    return op == "open" || op == "write" || op == "fsync" ||
           op == "rename" || op == "close";
}

Status
realError(const char *op, const std::string &path)
{
    return Status::error(ErrorKind::IoError,
                         strfmt("%s %s: %s", op, path.c_str(),
                                std::strerror(errno)));
}

Status
injectedError(IoFaultKind kind, const char *op, const std::string &path)
{
    return Status::error(
        ErrorKind::IoError,
        strfmt("injected %s: %s %s: %s", ioFaultKindName(kind), op,
               path.c_str(), std::strerror(errnoFor(kind))));
}

} // namespace

const char *
ioFaultKindName(IoFaultKind kind)
{
    switch (kind) {
      case IoFaultKind::Enospc: return "enospc";
      case IoFaultKind::Eio: return "eio";
      case IoFaultKind::ShortWrite: return "short-write";
      case IoFaultKind::FsyncFail: return "fsync-fail";
      case IoFaultKind::RenameFail: return "rename-fail";
    }
    return "<bad>";
}

bool
Vio::parseFaults(const std::string &spec, std::string &error)
{
    std::vector<IoFaultSpec> parsed;
    for (const std::string &one : splitOn(spec, ';')) {
        IoFaultSpec f;
        bool haveKind = false;
        for (const std::string &field : splitOn(one, ',')) {
            const size_t eq = field.find('=');
            if (eq == std::string::npos) {
                error = strfmt("io-fault field '%s' lacks '='",
                               field.c_str());
                return false;
            }
            const std::string key = field.substr(0, eq);
            const std::string val = field.substr(eq + 1);
            if (key == "path") {
                f.path = val;
            } else if (key == "op") {
                if (!validOp(val)) {
                    error = strfmt("unknown io op '%s'", val.c_str());
                    return false;
                }
                f.op = val;
            } else if (key == "kind") {
                if (!parseIoFaultKind(val, f.kind)) {
                    error = strfmt("unknown io-fault kind '%s'",
                                   val.c_str());
                    return false;
                }
                haveKind = true;
            } else if (key == "count") {
                if (!parseU64(val, f.maxFires) || f.maxFires == 0) {
                    error = strfmt("bad fire count '%s'", val.c_str());
                    return false;
                }
            } else if (key == "nth") {
                if (!parseU64(val, f.nth) || f.nth == 0) {
                    error = strfmt("bad nth selector '%s'", val.c_str());
                    return false;
                }
            } else if (key == "prob") {
                if (!parseDouble(val, f.prob) || f.prob < 0.0 ||
                    f.prob > 1.0) {
                    error = strfmt("bad probability '%s'", val.c_str());
                    return false;
                }
            } else {
                error = strfmt("unknown io-fault field '%s'",
                               key.c_str());
                return false;
            }
        }
        if (!haveKind) {
            error = "io-fault spec lacks a kind= field";
            return false;
        }
        parsed.push_back(std::move(f));
    }
    if (parsed.empty()) {
        error = "empty io-fault spec";
        return false;
    }
    for (IoFaultSpec &f : parsed)
        addFault(std::move(f));
    return true;
}

void
Vio::addFault(IoFaultSpec fault)
{
    std::lock_guard<std::mutex> lock(mu_);
    faults_.push_back({std::move(fault), 0, 0});
}

bool
Vio::armed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return !faults_.empty();
}

uint64_t
Vio::faultsFired() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return totalFired_;
}

Vio &
Vio::system()
{
    static Vio passthrough;
    return passthrough;
}

bool
Vio::fire(const char *label, const char *op, Hit &hit)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (faults_.empty())
        return false;
    for (Armed &a : faults_) {
        if (a.spec.path != "*" && a.spec.path != label)
            continue;
        const char *want = a.spec.op.empty()
                               ? defaultOpFor(a.spec.kind)
                               : a.spec.op.c_str();
        if (want[0] != '\0' && std::strcmp(want, op) != 0)
            continue;
        ++a.queries;
        if (a.spec.nth != 0 && a.queries != a.spec.nth)
            continue;
        if (a.fired >= a.spec.maxFires)
            continue;
        if (a.spec.prob < 1.0 && !rng_.chance(a.spec.prob))
            continue;
        ++a.fired;
        ++totalFired_;
        hit.kind = a.spec.kind;
        return true;
    }
    return false;
}

Expected<int>
Vio::openFile(const char *label, const std::string &path, int flags,
              mode_t mode)
{
    Hit hit;
    if (fire(label, "open", hit)) {
        errno = errnoFor(hit.kind);
        return injectedError(hit.kind, "open", path);
    }
    int fd;
    do {
        fd = ::open(path.c_str(), flags, mode);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0)
        return realError("open", path);
    return fd;
}

Status
Vio::writeAll(const char *label, int fd, const void *data, size_t size,
              const std::string &path)
{
    const char *p = static_cast<const char *>(data);
    size_t want = size;
    Hit hit;
    if (fire(label, "write", hit)) {
        if (hit.kind == IoFaultKind::ShortWrite) {
            // Persist a genuine prefix so recovery faces a real torn
            // tail, then report the failure.
            want = size / 2;
        } else {
            errno = errnoFor(hit.kind);
            return injectedError(hit.kind, "write", path);
        }
    }
    size_t done = 0;
    while (done < want) {
        const ssize_t n = ::write(fd, p + done, want - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return realError("write", path);
        }
        done += size_t(n);
    }
    if (want < size)
        return injectedError(IoFaultKind::ShortWrite, "write", path);
    return Status();
}

Status
Vio::fsyncFile(const char *label, int fd, const std::string &path)
{
    Hit hit;
    if (fire(label, "fsync", hit)) {
        errno = errnoFor(hit.kind);
        return injectedError(hit.kind, "fsync", path);
    }
    if (::fsync(fd) != 0)
        return realError("fsync", path);
    return Status();
}

Status
Vio::fsyncDir(const char *label, const std::string &dir)
{
    Hit hit;
    if (fire(label, "fsync", hit)) {
        errno = errnoFor(hit.kind);
        return injectedError(hit.kind, "fsync", dir);
    }
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return realError("open", dir);
    const int rc = ::fsync(fd);
    const int saved = errno;
    ::close(fd);
    if (rc != 0) {
        errno = saved;
        return realError("fsync", dir);
    }
    return Status();
}

Status
Vio::renameFile(const char *label, const std::string &from,
                const std::string &to)
{
    Hit hit;
    if (fire(label, "rename", hit)) {
        errno = errnoFor(hit.kind);
        return injectedError(hit.kind, "rename", to);
    }
    if (std::rename(from.c_str(), to.c_str()) != 0)
        return realError("rename", to);
    return Status();
}

Status
Vio::closeFile(const char *label, int fd, const std::string &path)
{
    Hit hit;
    if (fire(label, "close", hit)) {
        // The fd is still really closed: POSIX leaves it unusable
        // after a failed close, and leaking it would turn an injected
        // fault into a real resource bug.
        ::close(fd);
        errno = errnoFor(hit.kind);
        return injectedError(hit.kind, "close", path);
    }
    if (::close(fd) != 0 && errno != EINTR)
        return realError("close", path);
    return Status();
}

Status
atomicWriteFile(Vio *vio, const char *label, const std::string &path,
                const std::string &contents)
{
    Vio &io = vio != nullptr ? *vio : Vio::system();
    const std::string tmp = strfmt("%s.tmp.%d", path.c_str(),
                                   int(::getpid()));
    Expected<int> fd = io.openFile(label, tmp,
                                   O_WRONLY | O_CREAT | O_TRUNC);
    if (!fd.ok())
        return fd.status();
    Status st = io.writeAll(label, fd.value(), contents.data(),
                            contents.size(), tmp);
    if (st.ok())
        st = io.fsyncFile(label, fd.value(), tmp);
    if (!st.ok()) {
        ::close(fd.value());
        std::remove(tmp.c_str());
        return st;
    }
    if (st = io.closeFile(label, fd.value(), tmp); !st.ok()) {
        std::remove(tmp.c_str());
        return st;
    }
    if (st = io.renameFile(label, tmp, path); !st.ok()) {
        std::remove(tmp.c_str());
        return st;
    }
    const size_t slash = path.find_last_of('/');
    const std::string parent =
        slash == std::string::npos ? "." : path.substr(0, slash);
    return io.fsyncDir(label, parent.empty() ? "/" : parent);
}

} // namespace pathsched
