#include "pipeline/cache.hpp"

#include <cstdio>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "support/bytes.hpp"
#include "support/hash.hpp"
#include "support/logging.hpp"
#include "support/strutil.hpp"

namespace pathsched::pipeline {

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
/** Disk-entry format and meaning.  PSC2: entries carry alloc.rounds,
 *  and a stored body's schedule valid bits follow the allocator's
 *  keep rule (a PSC1 body may hold stale valid schedules).  PSC3:
 *  entries carry compaction's and allocation's liveness solve and
 *  visit counts. */
constexpr char kMagic[4] = {'P', 'S', 'C', '3'};

/** Anything counted can, in principle, exceed memory when the file is
 *  garbage; cap element counts at something no real procedure hits so
 *  a corrupt length field cannot drive a giant allocation. */
constexpr uint32_t kMaxCount = 1u << 24;

} // namespace

KeyHasher &
KeyHasher::bytes(const void *data, size_t size)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < size; ++i) {
        lo_ = (lo_ ^ p[i]) * kFnvPrime;
        hi_ = (hi_ ^ p[i]) * kFnvPrime;
        // Decorrelate the streams: without this they differ only by
        // their bases and would collide together.
        hi_ ^= hi_ >> 29;
    }
    return *this;
}

KeyHasher &
KeyHasher::u64(uint64_t v)
{
    uint8_t buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = uint8_t((v >> (8 * i)) & 0xff);
    return bytes(buf, sizeof buf);
}

KeyHasher &
KeyHasher::str(const std::string &s)
{
    u64(s.size());
    return bytes(s.data(), s.size());
}

void
serializeProcedure(const ir::Procedure &proc, std::string &out)
{
    putStr(out, proc.name);
    putU32(out, proc.id);
    putU32(out, proc.numParams);
    putU32(out, proc.numRegs);
    putU32(out, uint32_t(proc.blocks.size()));
    for (const auto &bb : proc.blocks) {
        putU32(out, uint32_t(bb.instrs.size()));
        for (const auto &ins : bb.instrs) {
            putU8(out, uint8_t(ins.op));
            putU8(out, ins.useImm ? 1 : 0);
            putU32(out, ins.dst);
            putU32(out, ins.src1);
            putU32(out, ins.src2);
            putU64(out, uint64_t(ins.imm));
            putU32(out, ins.target0);
            putU32(out, ins.target1);
            putU32(out, ins.callee);
            putU32(out, uint32_t(ins.args.size()));
            for (ir::RegId a : ins.args)
                putU32(out, a);
        }
    }
    putU32(out, uint32_t(proc.schedules.size()));
    for (const auto &sch : proc.schedules) {
        putU8(out, sch.valid ? 1 : 0);
        putU32(out, sch.numCycles);
        putU32(out, uint32_t(sch.cycleOf.size()));
        for (uint32_t c : sch.cycleOf)
            putU32(out, c);
    }
    putU32(out, uint32_t(proc.superblocks.size()));
    for (const auto &sb : proc.superblocks) {
        putU8(out, sb.isSuperblock ? 1 : 0);
        putU8(out, sb.isLoop ? 1 : 0);
        putU32(out, sb.numSrcBlocks);
        putU32(out, uint32_t(sb.srcOrdinalOf.size()));
        for (uint32_t o : sb.srcOrdinalOf)
            putU32(out, o);
    }
}

bool
deserializeProcedure(const std::string &in, size_t &pos,
                     ir::Procedure &out)
{
    out = ir::Procedure();
    uint32_t nblocks = 0;
    if (!getStr(in, pos, out.name) || !getU32(in, pos, out.id) ||
        !getU32(in, pos, out.numParams) ||
        !getU32(in, pos, out.numRegs) || !getU32(in, pos, nblocks) ||
        nblocks > kMaxCount)
        return false;
    out.blocks.resize(nblocks);
    for (auto &bb : out.blocks) {
        uint32_t ninstrs = 0;
        if (!getU32(in, pos, ninstrs) || ninstrs > kMaxCount)
            return false;
        bb.instrs.resize(ninstrs);
        for (auto &ins : bb.instrs) {
            uint8_t op = 0, use_imm = 0;
            uint64_t imm = 0;
            uint32_t nargs = 0;
            if (!getU8(in, pos, op) || op >= ir::kNumOpcodes ||
                !getU8(in, pos, use_imm) || !getU32(in, pos, ins.dst) ||
                !getU32(in, pos, ins.src1) ||
                !getU32(in, pos, ins.src2) || !getU64(in, pos, imm) ||
                !getU32(in, pos, ins.target0) ||
                !getU32(in, pos, ins.target1) ||
                !getU32(in, pos, ins.callee) ||
                !getU32(in, pos, nargs) || nargs > kMaxCount)
                return false;
            ins.op = ir::Opcode(op);
            ins.useImm = use_imm != 0;
            ins.imm = int64_t(imm);
            ins.args.resize(nargs);
            for (ir::RegId &a : ins.args) {
                if (!getU32(in, pos, a))
                    return false;
            }
        }
    }
    uint32_t nsched = 0;
    if (!getU32(in, pos, nsched) || nsched > kMaxCount)
        return false;
    out.schedules.resize(nsched);
    for (auto &sch : out.schedules) {
        uint8_t valid = 0;
        uint32_t ncycles = 0;
        if (!getU8(in, pos, valid) || !getU32(in, pos, sch.numCycles) ||
            !getU32(in, pos, ncycles) || ncycles > kMaxCount)
            return false;
        sch.valid = valid != 0;
        sch.cycleOf.resize(ncycles);
        for (uint32_t &c : sch.cycleOf) {
            if (!getU32(in, pos, c))
                return false;
        }
    }
    uint32_t nsb = 0;
    if (!getU32(in, pos, nsb) || nsb > kMaxCount)
        return false;
    out.superblocks.resize(nsb);
    for (auto &sb : out.superblocks) {
        uint8_t is_sb = 0, is_loop = 0;
        uint32_t nord = 0;
        if (!getU8(in, pos, is_sb) || !getU8(in, pos, is_loop) ||
            !getU32(in, pos, sb.numSrcBlocks) ||
            !getU32(in, pos, nord) || nord > kMaxCount)
            return false;
        sb.isSuperblock = is_sb != 0;
        sb.isLoop = is_loop != 0;
        sb.srcOrdinalOf.resize(nord);
        for (uint32_t &o : sb.srcOrdinalOf) {
            if (!getU32(in, pos, o))
                return false;
        }
    }
    return true;
}

uint64_t
hashMachineModel(const machine::MachineModel &mm)
{
    std::string buf;
    putU32(buf, mm.issueWidth);
    putU32(buf, mm.controlPerCycle);
    putU32(buf, mm.numRegs);
    for (uint32_t l : mm.latency)
        putU32(buf, l);
    return fnv1a64(buf.data(), buf.size());
}

namespace {

/** Entry payload (everything between the key header and the trailing
 *  checksum), shared by the disk writer and reader. */
void
serializeEntry(const StageCache::Entry &e, std::string &out)
{
    serializeProcedure(e.proc, out);
    putU64(out, e.spillSlots);
    putU64(out, e.form.tracesSelected);
    putU64(out, e.form.multiBlockTraces);
    putU64(out, e.form.superblocksFormed);
    putU64(out, e.form.enlargedSuperblocks);
    putU64(out, e.form.blocksDuplicated);
    putU64(out, e.form.unreachableRemoved);
    putU64(out, e.compact.opt.copiesPropagated);
    putU64(out, e.compact.opt.constantsFolded);
    putU64(out, e.compact.opt.chainsFolded);
    putU64(out, e.compact.opt.deadRemoved);
    putU64(out, e.compact.rename.defsRenamed);
    putU64(out, e.compact.rename.stubsCreated);
    putU64(out, e.compact.rename.copiesInserted);
    putU64(out, e.compact.sched.blocksScheduled);
    putU64(out, e.compact.sched.loadsSpeculated);
    putU64(out, e.compact.sched.totalCycles);
    putU64(out, e.compact.sched.liveSolves);
    putU64(out, e.compact.sched.liveVisits);
    putU64(out, e.alloc.procsAllocated);
    putU64(out, e.alloc.procsSkipped);
    putU64(out, e.alloc.regsSpilled);
    putU64(out, e.alloc.rounds);
    putU64(out, e.alloc.liveSolves);
    putU64(out, e.alloc.liveVisits);
    putU32(out, e.alloc.maxPressure);
}

bool
deserializeEntry(const std::string &in, size_t &pos,
                 StageCache::Entry &e)
{
    return deserializeProcedure(in, pos, e.proc) &&
           getU64(in, pos, e.spillSlots) &&
           getU64(in, pos, e.form.tracesSelected) &&
           getU64(in, pos, e.form.multiBlockTraces) &&
           getU64(in, pos, e.form.superblocksFormed) &&
           getU64(in, pos, e.form.enlargedSuperblocks) &&
           getU64(in, pos, e.form.blocksDuplicated) &&
           getU64(in, pos, e.form.unreachableRemoved) &&
           getU64(in, pos, e.compact.opt.copiesPropagated) &&
           getU64(in, pos, e.compact.opt.constantsFolded) &&
           getU64(in, pos, e.compact.opt.chainsFolded) &&
           getU64(in, pos, e.compact.opt.deadRemoved) &&
           getU64(in, pos, e.compact.rename.defsRenamed) &&
           getU64(in, pos, e.compact.rename.stubsCreated) &&
           getU64(in, pos, e.compact.rename.copiesInserted) &&
           getU64(in, pos, e.compact.sched.blocksScheduled) &&
           getU64(in, pos, e.compact.sched.loadsSpeculated) &&
           getU64(in, pos, e.compact.sched.totalCycles) &&
           getU64(in, pos, e.compact.sched.liveSolves) &&
           getU64(in, pos, e.compact.sched.liveVisits) &&
           getU64(in, pos, e.alloc.procsAllocated) &&
           getU64(in, pos, e.alloc.procsSkipped) &&
           getU64(in, pos, e.alloc.regsSpilled) &&
           getU64(in, pos, e.alloc.rounds) &&
           getU64(in, pos, e.alloc.liveSolves) &&
           getU64(in, pos, e.alloc.liveVisits) &&
           getU32(in, pos, e.alloc.maxPressure);
}

} // namespace

StageCache::StageCache(std::string dir, Vio *vio)
    : dir_(std::move(dir)),
      vio_(vio != nullptr ? vio : &Vio::system())
{}

std::string
StageCache::filePath(const CacheKey &key) const
{
    return strfmt("%s/%016llx%016llx.psc", dir_.c_str(),
                  (unsigned long long)key.lo,
                  (unsigned long long)key.hi);
}

bool
StageCache::lookup(const CacheKey &key, Entry &out)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            ++stats_.hits;
            out = it->second;
            return true;
        }
    }
    bool diskOk;
    {
        std::lock_guard<std::mutex> lk(mu_);
        diskOk = !dir_.empty() && !disk_disabled_;
    }
    if (diskOk) {
        // Disk tier: any failure below — unreadable, short, bad magic,
        // wrong key (hash collision in the file name), bad checksum,
        // malformed payload — is a plain miss, never an error.
        std::ifstream f(filePath(key), std::ios::binary);
        if (f) {
            std::string blob((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
            size_t pos = 0;
            uint64_t lo = 0, hi = 0, crc = 0;
            Entry e;
            const bool header_ok =
                blob.size() > sizeof kMagic + 24 &&
                blob.compare(0, sizeof kMagic, kMagic,
                             sizeof kMagic) == 0 &&
                (pos = sizeof kMagic, getU64(blob, pos, lo)) &&
                getU64(blob, pos, hi) && lo == key.lo && hi == key.hi;
            bool ok = false;
            if (header_ok) {
                const size_t payload_at = pos;
                ok = deserializeEntry(blob, pos, e) &&
                     getU64(blob, pos, crc) && pos == blob.size() &&
                     crc == fnv1a64(blob.data() + payload_at,
                                             pos - 8 - payload_at);
            }
            std::lock_guard<std::mutex> lk(mu_);
            if (ok) {
                ++stats_.hits;
                ++stats_.diskHits;
                out = e;
                map_.emplace(key, std::move(e));
                return true;
            }
            ++stats_.corrupt;
        }
    }
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.misses;
    return false;
}

void
StageCache::insert(const CacheKey &key, const Entry &entry)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.stores;
        map_[key] = entry;
        if (dir_.empty() || disk_disabled_)
            return;
    }
    std::string blob(kMagic, sizeof kMagic);
    putU64(blob, key.lo);
    putU64(blob, key.hi);
    const size_t payload_at = blob.size();
    serializeEntry(entry, blob);
    putU64(blob, fnv1a64(blob.data() + payload_at,
                                  blob.size() - payload_at));
    // Write-then-rename so a concurrent reader only ever sees either
    // no file or a complete one (the checksum catches the rest).  No
    // per-entry fsync: a torn entry after a crash just fails its
    // checksum and reads as a miss.
    const std::string path = filePath(key);
    const std::string tmp =
        strfmt("%s.tmp.%d", path.c_str(), int(getpid()));
    Status st;
    {
        Expected<int> fd = vio_->openFile(
            "cache", tmp, O_WRONLY | O_CREAT | O_TRUNC);
        if (!fd.ok()) {
            st = fd.status();
        } else {
            st = vio_->writeAll("cache", fd.value(), blob.data(),
                                blob.size(), tmp);
            Status cl = vio_->closeFile("cache", fd.value(), tmp);
            if (st.ok())
                st = cl;
        }
    }
    if (st.ok())
        st = vio_->renameFile("cache", tmp, path);
    if (!st.ok()) {
        // One fault sidelines the whole disk tier for the rest of the
        // run: a sick disk must not be probed on every insert, and the
        // memory tier keeps the run's output bit-identical.
        std::remove(tmp.c_str());
        warn("stage cache: %s; disk tier disabled for this run",
             st.message().c_str());
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.diskFailures;
        disk_disabled_ = true;
    }
}

bool
StageCache::diskDisabled() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return disk_disabled_;
}

StageCacheStats
StageCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

} // namespace pathsched::pipeline
