#include "profile/validate.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "ir/procedure.hpp"
#include "support/strutil.hpp"

namespace pathsched::profile {

using ir::BlockId;
using ir::ProcId;

const char *
admissionModeName(AdmissionMode mode)
{
    switch (mode) {
      case AdmissionMode::Off: return "off";
      case AdmissionMode::Repair: return "repair";
      case AdmissionMode::Strict: return "strict";
    }
    return "<bad>";
}

bool
parseAdmissionMode(const std::string &token, AdmissionMode &out)
{
    if (token == "off")
        out = AdmissionMode::Off;
    else if (token == "repair")
        out = AdmissionMode::Repair;
    else if (token == "strict")
        out = AdmissionMode::Strict;
    else
        return false;
    return true;
}

const char *
procActionName(ProcAction action)
{
    switch (action) {
      case ProcAction::Accepted: return "accepted";
      case ProcAction::ProjectedEdges: return "projected-edges";
      case ProcAction::Quarantined: return "quarantined";
    }
    return "<bad>";
}

const ProcAudit *
ProfileAudit::findProc(ProcId p) const
{
    for (const ProcAudit &pa : procs)
        if (pa.proc == p)
            return &pa;
    return nullptr;
}

void
projectPathsToEdges(const PathProfiler &pp, EdgeProfiler &out)
{
    pp.forEachPath([&](ProcId p, const std::vector<BlockId> &seq,
                       uint64_t n) {
        out.addBlockCount(p, seq.back(), n);
        if (seq.size() >= 2)
            out.addEdgeCount(p, seq[seq.size() - 2], seq.back(), n);
    });
}

namespace {

/** Executions a non-returning block may "leak" (frames in flight
 *  when a training run stopped) before flow checks fail. */
constexpr uint64_t kFlowSlack = 1;

uint64_t
edgeKey(BlockId from, BlockId to)
{
    return (uint64_t(from) << 32) | to;
}

/** The CFG edge set of one procedure, keyed by edgeKey(). */
std::unordered_set<uint64_t>
cfgEdges(const ir::Procedure &proc)
{
    std::unordered_set<uint64_t> edges;
    std::vector<BlockId> succs;
    for (size_t b = 0; b < proc.blocks.size(); ++b) {
        succs.clear();
        ir::successorsOf(proc.blocks[b], succs);
        for (BlockId s : succs)
            edges.insert(edgeKey(BlockId(b), s));
    }
    return edges;
}

bool
inList(const std::vector<uint32_t> &v, uint32_t x)
{
    return std::find(v.begin(), v.end(), x) != v.end();
}

/**
 * Fingerprint screen shared by both auditors.  Only v2 files (which
 * always carry a checksum) declare fingerprints; a v2 file must
 * fingerprint every procedure it has data for.
 */
bool
staleCheck(const ir::Procedure &proc, const ProfileMeta &meta,
           bool hasData, std::string &why)
{
    if (!meta.hasChecksum)
        return false; // v1: unverified, nothing to compare
    uint64_t recorded;
    if (!meta.fingerprintFor(proc.id, recorded)) {
        if (!hasData)
            return false;
        why = "profile has data for this procedure but no CFG "
              "fingerprint";
        return true;
    }
    const uint64_t current = cfgFingerprint(proc);
    if (recorded == current)
        return false;
    why = strfmt("CFG fingerprint mismatch: profile records %016llx, "
                 "current IR hashes to %016llx",
                 (unsigned long long)recorded,
                 (unsigned long long)current);
    return true;
}

void
recordProc(ProfileAudit &audit, const ir::Procedure &proc,
           ProcAction action, ErrorKind kind, std::string message,
           uint64_t dropped = 0)
{
    ProcAudit pa;
    pa.proc = proc.id;
    pa.procName = proc.name;
    pa.action = action;
    pa.kind = kind;
    pa.message = std::move(message);
    pa.droppedPaths = dropped;
    audit.procs.push_back(std::move(pa));
    if (action == ProcAction::ProjectedEdges)
        ++audit.repaired;
    else if (action == ProcAction::Quarantined)
        ++audit.quarantined;
    if (kind == ErrorKind::ProfileStale)
        ++audit.staleProcs;
    audit.droppedPaths += dropped;
}

/** Strict mode: turn the first audit finding into a typed error. */
Status
strictVerdict(const ProfileAudit &audit)
{
    if (audit.clean())
        return Status();
    if (!audit.procs.empty()) {
        const ProcAudit &pa = audit.procs.front();
        return Status::error(pa.kind, strfmt("procedure '%s': %s",
                                             pa.procName.c_str(),
                                             pa.message.c_str()));
    }
    return Status::error(ErrorKind::ProfileCorrupt,
                         strfmt("%llu profile records dropped",
                                (unsigned long long)audit.droppedPaths));
}

/** Repair mode keeps going on a file the loader refused: record the
 *  rejection in the audit (the consumer falls back to its internal
 *  profile).  Off and Strict return the load failure. */
Status
fileRejected(Status st, AdmissionMode mode, ProfileAudit &audit)
{
    if (mode != AdmissionMode::Repair)
        return st;
    audit.enabled = true;
    audit.fileRejected = true;
    audit.fileStatus = std::move(st);
    return Status();
}

} // namespace

Status
auditEdgeProfile(const ir::Program &prog, const EdgeProfiler &ep,
                 const ProfileMeta &meta, AdmissionMode mode,
                 ProfileAudit &audit)
{
    audit = ProfileAudit();
    if (mode == AdmissionMode::Off)
        return Status();
    audit.enabled = true;
    audit.droppedPaths += meta.recordsSkipped;

    // Recorded edges per procedure (the profiler only serves point
    // queries, so reconstruct the record list once).
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> rec(
        prog.procs.size());
    ep.forEachEdge([&](ProcId p, BlockId from, BlockId to, uint64_t n) {
        rec[p].emplace_back(edgeKey(from, to), n);
    });

    for (const ir::Procedure &proc : prog.procs) {
        ++audit.checked;
        const size_t nblocks = proc.blocks.size();

        bool has_data = !rec[proc.id].empty();
        for (size_t b = 0; !has_data && b < nblocks; ++b)
            has_data = ep.blockFreq(proc.id, BlockId(b)) != 0;
        has_data = has_data || inList(meta.skippedProcs, proc.id);

        std::string why;
        if (staleCheck(proc, meta, has_data, why)) {
            recordProc(audit, proc, ProcAction::Quarantined,
                       ErrorKind::ProfileStale, std::move(why));
            continue;
        }
        if (inList(meta.skippedProcs, proc.id)) {
            recordProc(audit, proc, ProcAction::Quarantined,
                       ErrorKind::ProfileCorrupt,
                       "edge records for this procedure were dropped "
                       "while parsing");
            continue;
        }
        if (!has_data)
            continue; // nothing to admit

        // Flow conservation against the profiler's counting discipline.
        const std::unordered_set<uint64_t> edges = cfgEdges(proc);
        std::vector<uint64_t> inflow(nblocks, 0), outflow(nblocks, 0);
        std::string violation;
        for (const auto &[key, n] : rec[proc.id]) {
            const BlockId from = BlockId(key >> 32);
            const BlockId to = BlockId(key & 0xffffffffu);
            if (!edges.count(key)) {
                violation = strfmt("edge %u->%u is not in the CFG",
                                   from, to);
                break;
            }
            outflow[from] += n;
            inflow[to] += n;
        }
        for (size_t b = 0; violation.empty() && b < nblocks; ++b) {
            const uint64_t freq = ep.blockFreq(proc.id, BlockId(b));
            if (b != 0 && inflow[b] != freq)
                violation = strfmt("block %zu executed %llu times but "
                                   "has inflow %llu",
                                   b, (unsigned long long)freq,
                                   (unsigned long long)inflow[b]);
            else if (b == 0 && inflow[b] > freq)
                violation = strfmt("entry block executed %llu times "
                                   "but has inflow %llu",
                                   (unsigned long long)freq,
                                   (unsigned long long)inflow[b]);
            else if (outflow[b] > freq)
                violation = strfmt("block %zu executed %llu times but "
                                   "has outflow %llu",
                                   b, (unsigned long long)freq,
                                   (unsigned long long)outflow[b]);
            else if (!proc.blocks[b].empty() &&
                     proc.blocks[b].terminator().op != ir::Opcode::Ret &&
                     freq - outflow[b] > kFlowSlack)
                violation = strfmt("non-returning block %zu leaks %llu "
                                   "executions (slack %llu)",
                                   b,
                                   (unsigned long long)(freq - outflow[b]),
                                   (unsigned long long)kFlowSlack);
        }
        if (!violation.empty())
            recordProc(audit, proc, ProcAction::Quarantined,
                       ErrorKind::ProfileCorrupt,
                       "flow conservation failed: " + violation);
    }

    if (mode == AdmissionMode::Strict)
        return strictVerdict(audit);
    return Status();
}

Status
auditPathProfile(const ir::Program &prog, const PathProfiler &pp,
                 const ProfileMeta &meta, AdmissionMode mode,
                 ProfileAudit &audit, EdgeProfiler *projected)
{
    audit = ProfileAudit();
    if (mode == AdmissionMode::Off)
        return Status();
    audit.enabled = true;
    audit.droppedPaths += meta.recordsSkipped;

    struct Window
    {
        std::vector<BlockId> seq;
        uint64_t count;
    };
    std::vector<std::vector<Window>> wins(prog.procs.size());
    pp.forEachPath([&](ProcId p, const std::vector<BlockId> &seq,
                       uint64_t n) { wins[p].push_back({seq, n}); });

    // The final-pair projection is exact only when a window can hold
    // two blocks; with a tighter budget the pair-bound check is
    // skipped (adjacency and flow checks remain valid).
    const bool pair_bound_valid =
        pp.params().maxBranches >= 1 && pp.params().maxBlocks >= 2;

    for (const ir::Procedure &proc : prog.procs) {
        ++audit.checked;
        std::vector<Window> &ws = wins[proc.id];
        const bool parse_skips = inList(meta.skippedProcs, proc.id);
        const bool has_data = !ws.empty() || parse_skips;

        std::string why;
        if (staleCheck(proc, meta, has_data, why)) {
            recordProc(audit, proc, ProcAction::Quarantined,
                       ErrorKind::ProfileStale, std::move(why));
            continue;
        }
        if (!has_data)
            continue;

        const std::unordered_set<uint64_t> edges = cfgEdges(proc);
        const size_t total = ws.size();
        uint64_t dropped = 0;
        std::string first_drop;

        // Pass 1: every consecutive pair must be a CFG edge.
        std::vector<Window> adj;
        adj.reserve(ws.size());
        for (Window &w : ws) {
            bool ok = true;
            for (size_t k = 0; ok && k + 1 < w.seq.size(); ++k)
                ok = edges.count(edgeKey(w.seq[k], w.seq[k + 1])) != 0;
            if (ok) {
                adj.push_back(std::move(w));
            } else {
                ++dropped;
                if (first_drop.empty())
                    first_drop = "a window crosses a non-CFG edge";
            }
        }

        // Pass 2: a window cannot have recurred more often than any
        // edge it contains was traversed, and every traversal of edge
        // (u,v) lands in some window whose final pair is (u,v).
        std::vector<Window> kept;
        if (pair_bound_valid) {
            std::unordered_map<uint64_t, uint64_t> pair_total;
            for (const Window &w : adj)
                if (w.seq.size() >= 2)
                    pair_total[edgeKey(w.seq[w.seq.size() - 2],
                                       w.seq.back())] += w.count;
            kept.reserve(adj.size());
            for (Window &w : adj) {
                bool ok = true;
                for (size_t k = 0; ok && k + 1 < w.seq.size(); ++k) {
                    const auto it = pair_total.find(
                        edgeKey(w.seq[k], w.seq[k + 1]));
                    ok = it != pair_total.end() && w.count <= it->second;
                }
                if (ok) {
                    kept.push_back(std::move(w));
                } else {
                    ++dropped;
                    if (first_drop.empty())
                        first_drop = "a window's count exceeds the "
                                     "projected count of an edge it "
                                     "contains";
                }
            }
        } else {
            kept = std::move(adj);
        }

        // Pass 3: flow conservation — an edge out of b cannot have
        // been traversed more often than b executed.  This is an
        // integrity screen for *complete* profiles: once windows have
        // been dropped (here or at parse time) the projection is
        // knowingly partial and small flow deficits are expected, so
        // the check would quarantine exactly the procedures the
        // projection repair exists for.
        std::string violation;
        if (dropped == 0 && !parse_skips) {
            const size_t nblocks = proc.blocks.size();
            std::vector<uint64_t> proj_block(nblocks, 0),
                proj_out(nblocks, 0);
            for (const Window &w : kept) {
                proj_block[w.seq.back()] += w.count;
                if (w.seq.size() >= 2)
                    proj_out[w.seq[w.seq.size() - 2]] += w.count;
            }
            for (size_t b = 0; b < nblocks; ++b) {
                if (proj_out[b] > proj_block[b]) {
                    violation = strfmt(
                        "block %zu projects %llu executions but %llu "
                        "outgoing traversals",
                        b, (unsigned long long)proj_block[b],
                        (unsigned long long)proj_out[b]);
                    break;
                }
            }
        }

        if (!violation.empty()) {
            recordProc(audit, proc, ProcAction::Quarantined,
                       ErrorKind::ProfileCorrupt,
                       "projected flow conservation failed: " +
                           violation,
                       dropped);
            continue;
        }
        if (dropped == 0 && !parse_skips)
            continue; // fully accepted
        if (kept.empty()) {
            recordProc(audit, proc, ProcAction::Quarantined,
                       ErrorKind::ProfileCorrupt,
                       strfmt("all %zu windows dropped (%s)", total,
                              first_drop.empty()
                                  ? "records lost while parsing"
                                  : first_drop.c_str()),
                       dropped);
            continue;
        }
        // Degrade: survivors still form a consistent edge profile.
        if (projected) {
            for (const Window &w : kept) {
                projected->addBlockCount(proc.id, w.seq.back(), w.count);
                if (w.seq.size() >= 2)
                    projected->addEdgeCount(proc.id,
                                            w.seq[w.seq.size() - 2],
                                            w.seq.back(), w.count);
            }
        }
        recordProc(audit, proc, ProcAction::ProjectedEdges,
                   ErrorKind::ProfileCorrupt,
                   strfmt("%llu of %zu windows dropped (%s); surviving "
                          "windows projected onto an edge profile",
                          (unsigned long long)dropped, total,
                          first_drop.empty() ? "records lost while parsing"
                                             : first_drop.c_str()),
                   dropped);
    }

    if (mode == AdmissionMode::Strict)
        return strictVerdict(audit);
    return Status();
}

Status
admitEdgeProfile(const std::string &text, const ir::Program &prog,
                 AdmissionMode mode, AdmittedEdgeProfile &out)
{
    out = AdmittedEdgeProfile(prog);
    Status st = loadEdgeProfile(text, out.profile, out.meta,
                                LoadOptions{mode == AdmissionMode::Repair});
    if (!st.ok())
        return fileRejected(std::move(st), mode, out.audit);
    return auditEdgeProfile(prog, out.profile, out.meta, mode, out.audit);
}

Status
admitPathProfile(const std::string &text, const ir::Program &prog,
                 const PathProfileParams &params, AdmissionMode mode,
                 AdmittedPathProfile &out)
{
    out = AdmittedPathProfile(prog, params);
    Status st = loadPathProfile(text, out.profile, out.meta,
                                LoadOptions{mode == AdmissionMode::Repair});
    if (!st.ok())
        return fileRejected(std::move(st), mode, out.audit);
    st = auditPathProfile(prog, out.profile, out.meta, mode, out.audit,
                          &out.projected);
    if (st.ok())
        out.profile.finalize();
    return st;
}

} // namespace pathsched::profile
