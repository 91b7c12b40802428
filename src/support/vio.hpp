/**
 * @file
 * Virtual I/O seam for every durable-write path.
 *
 * The durability story of the serve/batch layers (WAL, snapshots,
 * batch journal, schedule/status outputs) rests
 * on a handful of syscalls: open, write, fsync, rename, close.  Real
 * disks fail — ENOSPC, EIO, torn writes, fsync that lies — and nothing
 * exercised those paths before this seam existed.  Vio routes each of
 * those syscalls through one choke point with typed Status results and
 * an optional seeded, deterministic fault injector, extending the
 * PR-2 stage-boundary fault grammar down to the I/O layer.
 *
 * A default-constructed Vio is a pure passthrough: every op is the
 * underlying syscall plus errno-to-Status translation, no RNG, no
 * counters on the hot path beyond one armed-check.  Disarmed behaviour
 * is byte-identical to calling the syscalls directly.
 *
 * Spec grammar (the CLI's --io-inject flag): faults separated by ';',
 * fields within a fault by ','.
 *
 *   path=wal,op=fsync,kind=eio,count=2
 *
 *   path   logical label of the durable path being written, or '*'
 *          for all (default '*').  The in-tree labels:
 *            wal       WAL segment appends (serve/wal.cpp)
 *            snap      snapshot temp-file writes (serve/wal.cpp)
 *            dir       state-directory fsyncs (serve/wal.cpp)
 *            journal   batch-runner journal (tools/pathsched_batch)
 *            schedule  schedule blob output (serve/server.cpp)
 *            status    status.json output (serve/server.cpp)
 *   op     open | write | fsync | rename | close; defaults from the
 *          kind (enospc/short-write -> write, fsync-fail -> fsync,
 *          rename-fail -> rename, eio -> any op)
 *   kind   (required) enospc | eio | short-write | fsync-fail |
 *          rename-fail
 *   count  maximum number of times this fault fires (default
 *          unlimited)
 *   nth    fire only on the Nth matching query, 1-based (default 0 =
 *          every matching query)
 *   prob   firing probability from the seeded RNG (default 1.0)
 *
 * `short-write` is special: it really writes a prefix of the buffer to
 * the fd before failing, so recovery code faces a genuine torn tail,
 * not a clean no-op.
 *
 * Thread safety: all ops may be called concurrently; injector state
 * is mutex-guarded.
 */

#ifndef PATHSCHED_SUPPORT_VIO_HPP
#define PATHSCHED_SUPPORT_VIO_HPP

#include <sys/types.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/status.hpp"

namespace pathsched {

/** Injected I/O failure flavours (the grammar's `kind=`). */
enum class IoFaultKind : uint8_t
{
    Enospc,     ///< ENOSPC from write/open — disk full
    Eio,        ///< EIO from whichever op matched — media error
    ShortWrite, ///< write persists a prefix, then fails (torn tail)
    FsyncFail,  ///< EIO from fsync — "fsync that lies", then errors
    RenameFail, ///< EIO from rename — atomic publish failed
};

/** Stable grammar token, e.g. "short-write". */
const char *ioFaultKindName(IoFaultKind kind);

/** One armed I/O fault. */
struct IoFaultSpec
{
    std::string path = "*"; ///< logical label ('*' = all)
    std::string op;         ///< open|write|fsync|rename|close ("" = by kind)
    IoFaultKind kind = IoFaultKind::Eio;
    uint64_t maxFires = UINT64_MAX;
    uint64_t nth = 0;       ///< fire only on the Nth matching query (0 = any)
    double prob = 1.0;      ///< per-query firing probability
};

/**
 * The virtual I/O seam.  Durable-path writers call these instead of
 * raw syscalls; a passthrough Vio adds only errno translation, an
 * armed one deterministically injects the configured faults.
 */
class Vio
{
  public:
    explicit Vio(uint64_t seed = 0) : rng_(seed) {}

    /** Parse @p spec (see file comment) and arm its faults, in
     *  addition to any already armed.  False + @p error on bad spec. */
    bool parseFaults(const std::string &spec, std::string &error);

    /** Arm @p fault directly. */
    void addFault(IoFaultSpec fault);

    /** Any fault armed?  False for the production passthrough. */
    bool armed() const;

    /** Total injected failures so far. */
    uint64_t faultsFired() const;

    /**
     * Shared passthrough instance.  Callers that accept a `Vio *`
     * default to this when handed nullptr, so production code paths
     * never test for null at each syscall site.
     */
    static Vio &system();

    /** @name Ops.  @p label is the logical durable-path label used for
     *  fault matching; @p path is the filesystem path (messages).
     *  All return ErrorKind::IoError on failure, real or injected.
     *  @{ */

    /** open(2); returns the fd. */
    Expected<int> openFile(const char *label, const std::string &path,
                           int flags, mode_t mode = 0644);

    /** Write all @p size bytes to @p fd, retrying EINTR/partials. */
    Status writeAll(const char *label, int fd, const void *data,
                    size_t size, const std::string &path);

    /** fsync(2) on a file fd. */
    Status fsyncFile(const char *label, int fd, const std::string &path);

    /** Open + fsync + close a directory (publish metadata). */
    Status fsyncDir(const char *label, const std::string &dir);

    /** rename(2). */
    Status renameFile(const char *label, const std::string &from,
                      const std::string &to);

    /** close(2); EINTR counts as closed (POSIX leaves the fd gone). */
    Status closeFile(const char *label, int fd, const std::string &path);

    /** @} */

  private:
    struct Armed
    {
        IoFaultSpec spec;
        uint64_t queries = 0;
        uint64_t fired = 0;
    };

    struct Hit
    {
        IoFaultKind kind;
    };

    /** Does an armed fault fire for (@p label, @p op)? */
    bool fire(const char *label, const char *op, Hit &hit);

    mutable std::mutex mu_;
    std::vector<Armed> faults_;
    Rng rng_;
    uint64_t totalFired_ = 0;
};

/**
 * Crash-safe whole-file publish: write @p contents to `path.tmp.<pid>`,
 * fsync, close, rename over @p path, fsync the parent directory.  A
 * reader never observes a torn file and a crash at any step leaves
 * either the old file or the new one.  All I/O goes through @p vio
 * under @p label (nullptr = the system passthrough).
 */
Status atomicWriteFile(Vio *vio, const char *label,
                       const std::string &path,
                       const std::string &contents);

} // namespace pathsched

#endif // PATHSCHED_SUPPORT_VIO_HPP
