#include "serve/wal.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "serve/wire.hpp"
#include "support/bytes.hpp"
#include "support/strutil.hpp"

namespace pathsched::serve {

namespace {

Status
ioError(const char *op, const std::string &path)
{
    return Status::error(ErrorKind::IoError,
                         strfmt("wal: %s %s: %s", op, path.c_str(),
                                strerror(errno)));
}

/** Parse "<prefix>.<gen>.bin" -> gen; 0 when the name doesn't match. */
uint64_t
parseGen(const std::string &name, const char *prefix)
{
    const std::string pre = std::string(prefix) + ".";
    if (name.size() <= pre.size() + 4 || name.compare(0, pre.size(), pre) != 0 ||
        name.compare(name.size() - 4, 4, ".bin") != 0)
        return 0;
    uint64_t gen = 0;
    for (size_t i = pre.size(); i < name.size() - 4; ++i) {
        if (name[i] < '0' || name[i] > '9')
            return 0;
        gen = gen * 10 + uint64_t(name[i] - '0');
    }
    return gen;
}

/** All generations present for @p prefix, ascending. */
std::vector<uint64_t>
listGens(const std::string &dir, const char *prefix)
{
    std::vector<uint64_t> gens;
    DIR *d = opendir(dir.c_str());
    if (d == nullptr)
        return gens;
    while (dirent *e = readdir(d))
        if (uint64_t g = parseGen(e->d_name, prefix); g != 0)
            gens.push_back(g);
    closedir(d);
    std::sort(gens.begin(), gens.end());
    return gens;
}

Status
readWholeFile(const std::string &path, std::string &out)
{
    FILE *f = fopen(path.c_str(), "rb");
    if (f == nullptr)
        return ioError("open", path);
    char buf[1 << 16];
    out.clear();
    size_t n;
    while ((n = fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    const bool bad = ferror(f) != 0;
    fclose(f);
    if (bad)
        return ioError("read", path);
    return Status();
}

} // namespace

Wal::Wal(std::string dir, Vio *vio)
    : dir_(std::move(dir)),
      vio_(vio != nullptr ? vio : &Vio::system())
{}

Wal::~Wal()
{
    // No flush here beyond what each append already fsync'd: dropping
    // a Wal without snapshot() is exactly the crash the recovery path
    // must handle, and the in-process crash tests rely on that.
    if (fd_ >= 0)
        ::close(fd_);
}

std::string
Wal::walPath(uint64_t gen) const
{
    return strfmt("%s/wal.%llu.bin", dir_.c_str(),
                  (unsigned long long)gen);
}

std::string
Wal::snapPath(uint64_t gen) const
{
    return strfmt("%s/snap.%llu.bin", dir_.c_str(),
                  (unsigned long long)gen);
}

Status
Wal::applyRecord(const std::string &payload, Aggregate &agg,
                 RecoveryInfo *info)
{
    size_t pos = 0;
    uint8_t tag = 0;
    if (!getU8(payload, pos, tag))
        return Status::error(ErrorKind::ProfileCorrupt,
                             "wal: empty record");
    switch (MsgType(tag)) {
    case MsgType::WalAdmitted: {
        AdmittedDelta delta;
        if (Status st = AdmittedDelta::decode(payload, pos, delta);
            !st.ok())
            return st;
        if (pos != payload.size())
            return Status::error(ErrorKind::ProfileCorrupt,
                                 "wal: trailing bytes in record");
        agg.apply(delta);
        if (info != nullptr)
            ++info->recordsReplayed;
        return Status();
    }
    case MsgType::WalEpoch: {
        uint64_t ep = 0;
        if (!getU64(payload, pos, ep) || pos != payload.size())
            return Status::error(ErrorKind::ProfileCorrupt,
                                 "wal: malformed epoch record");
        agg.advanceEpoch(ep);
        if (info != nullptr)
            ++info->epochRecords;
        return Status();
    }
    default:
        return Status::error(ErrorKind::ProfileCorrupt,
                             strfmt("wal: unknown record tag %u", tag));
    }
}

Status
Wal::open(Aggregate &agg, RecoveryInfo &info)
{
    if (mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
        return ioError("mkdir", dir_);

    // 1. Newest snapshot whose trailer verifies; corrupt ones (torn
    //    rename never produces these, but disks bit-rot) are skipped,
    //    falling back generation by generation.
    uint64_t snapGen = 0;
    {
        std::vector<uint64_t> snaps = listGens(dir_, "snap");
        for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
            std::string blob;
            if (Status st = readWholeFile(snapPath(*it), blob); !st.ok()) {
                ++info.snapshotsSkipped;
                continue;
            }
            // Snapshot files are a sequence of frames whose payloads
            // concatenate to the aggregate blob (the blob can exceed a
            // single frame's cap; see Wal::snapshot).  Any corruption
            // or trailing partial frame invalidates the whole file.
            FrameDecoder dec;
            dec.feed(blob.data(), blob.size());
            std::string payload, aggBlob;
            bool frames = false, bad = false;
            for (;;) {
                const auto r = dec.next(payload);
                if (r == FrameDecoder::Result::Frame) {
                    aggBlob += payload;
                    frames = true;
                    continue;
                }
                bad = r != FrameDecoder::Result::NeedMore ||
                      dec.pendingBytes() > 0;
                break;
            }
            if (bad || !frames) {
                ++info.snapshotsSkipped;
                continue;
            }
            Aggregate restored(agg.options());
            if (Status st = Aggregate::deserialize(
                    aggBlob, agg.options(), restored);
                !st.ok()) {
                ++info.snapshotsSkipped;
                continue;
            }
            agg = std::move(restored);
            snapGen = *it;
            break;
        }
    }
    info.snapshotGen = snapGen;

    // 2. Replay wal segments beyond the snapshot, ascending; stop each
    //    segment at the first torn frame and truncate the tail.
    uint64_t maxGen = snapGen;
    for (uint64_t gen : listGens(dir_, "wal")) {
        maxGen = std::max(maxGen, gen);
        if (gen <= snapGen)
            continue;
        const std::string path = walPath(gen);
        std::string bytes;
        if (Status st = readWholeFile(path, bytes); !st.ok())
            return st;
        // The cap must match what appendFrameDurable admits, or a
        // record the writer accepted would replay as corrupt.
        FrameDecoder dec(kMaxWalPayload);
        dec.feed(bytes.data(), bytes.size());
        std::string payload;
        size_t consumed = 0;
        bool torn = false;
        for (;;) {
            const auto r = dec.next(payload);
            if (r == FrameDecoder::Result::Frame) {
                if (Status st = applyRecord(payload, agg, &info);
                    !st.ok())
                    return st; // a *verified* frame must parse
                consumed = bytes.size() - dec.pendingBytes();
                continue;
            }
            if (r == FrameDecoder::Result::NeedMore) {
                torn = dec.pendingBytes() > 0;
                break;
            }
            torn = true; // Corrupt: CRC/length failure in the tail
            break;
        }
        if (torn) {
            ++info.tornSegments;
            info.tornBytes += bytes.size() - consumed;
            if (truncate(path.c_str(), off_t(consumed)) != 0)
                return ioError("truncate", path);
        }
        ++info.segmentsReplayed;
    }

    // 3. Live segment: continue the newest wal generation (appending
    //    after its last good record) or start snapGen+1.
    live_gen_ = std::max<uint64_t>(maxGen, snapGen) + (maxGen > snapGen ? 0 : 1);
    live_records_ = 0;
    return openLiveSegment();
}

Status
Wal::openLiveSegment()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    const std::string path = walPath(live_gen_);
    Expected<int> fd =
        vio_->openFile("wal", path, O_WRONLY | O_CREAT | O_APPEND);
    if (!fd.ok())
        return fd.status();
    fd_ = fd.value();
    return vio_->fsyncDir("dir", dir_);
}

Status
Wal::appendFrameDurable(const std::string &payload)
{
    ps_assert_msg(fd_ >= 0, "Wal append before open()");
    // Recovery decodes with a kMaxWalPayload cap; a record beyond it
    // would be written durably but classified as corrupt on replay,
    // silently truncating everything after it.  Refuse it up front.
    if (payload.size() > kMaxWalPayload)
        return Status::error(
            ErrorKind::BudgetExceeded,
            strfmt("wal: record payload %zu exceeds replay cap %u",
                   payload.size(), kMaxWalPayload));
    std::string frame;
    appendFrame(frame, payload);
    if (Status st = vio_->writeAll("wal", fd_, frame.data(),
                                   frame.size(), walPath(live_gen_));
        !st.ok())
        return st;
    if (Status st = vio_->fsyncFile("wal", fd_, walPath(live_gen_));
        !st.ok())
        return st;
    ++live_records_;
    return Status();
}

Status
Wal::appendAdmitted(const AdmittedDelta &delta)
{
    std::string payload;
    putU8(payload, uint8_t(MsgType::WalAdmitted));
    delta.encode(payload);
    return appendFrameDurable(payload);
}

Status
Wal::appendEpoch(uint64_t newEpoch)
{
    std::string payload;
    putU8(payload, uint8_t(MsgType::WalEpoch));
    putU64(payload, newEpoch);
    return appendFrameDurable(payload);
}

Status
Wal::snapshot(const Aggregate &agg)
{
    // Snapshot covering the live generation: temp + fsync + rename so
    // either the old or the new snapshot exists, never a torn one.
    const uint64_t gen = live_gen_;
    const std::string tmp = strfmt("%s/snap.tmp", dir_.c_str());
    const std::string fin = snapPath(gen);
    {
        // The aggregate blob has no size bound, but every frame does:
        // chunk it so recovery (which reassembles the payloads) never
        // sees a frame beyond the decoder cap, no matter how many live
        // keys the aggregate holds.
        std::string frame;
        {
            const std::string blob = agg.serialize();
            size_t off = 0;
            do {
                const size_t n = std::min<size_t>(blob.size() - off,
                                                  kMaxFramePayload);
                appendFrame(frame, blob.substr(off, n));
                off += n;
            } while (off < blob.size());
        }
        Expected<int> tfd =
            vio_->openFile("snap", tmp, O_WRONLY | O_CREAT | O_TRUNC);
        if (!tfd.ok())
            return tfd.status();
        Status st = vio_->writeAll("snap", tfd.value(), frame.data(),
                                   frame.size(), tmp);
        if (st.ok())
            st = vio_->fsyncFile("snap", tfd.value(), tmp);
        if (!st.ok()) {
            ::close(tfd.value());
            return st;
        }
        if (st = vio_->closeFile("snap", tfd.value(), tmp); !st.ok())
            return st;
    }
    if (Status st = vio_->renameFile("snap", tmp, fin); !st.ok())
        return st;
    if (Status st = vio_->fsyncDir("dir", dir_); !st.ok())
        return st;

    // Rotate the live segment, then garbage-collect superseded files.
    live_gen_ = gen + 1;
    live_records_ = 0;
    if (Status st = openLiveSegment(); !st.ok())
        return st;
    for (uint64_t g : listGens(dir_, "wal"))
        if (g <= gen)
            (void)unlink(walPath(g).c_str());
    for (uint64_t g : listGens(dir_, "snap"))
        if (g < gen)
            (void)unlink(snapPath(g).c_str());
    return vio_->fsyncDir("dir", dir_);
}

Status
Wal::reopenAndSnapshot(const Aggregate &agg)
{
    // The suspect segment's on-disk tail is unknown (a failed write or
    // fsync may have left a torn frame); drop the fd and supersede the
    // whole segment with a snapshot of the acked in-memory state.  The
    // snapshot covers generation live_gen_, so GC inside snapshot()
    // unlinks the suspect file; a crash before the rename leaves the
    // old recovery chain intact, and a crash after it replays nothing
    // from the suspect tail.
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    return snapshot(agg);
}

} // namespace pathsched::serve
