#include "serve/admission.hpp"

#include <algorithm>

#include "profile/validate.hpp"
#include "support/strutil.hpp"

namespace pathsched::serve {

Admission::Admission(const ir::Program &prog,
                     profile::PathProfileParams pathParams,
                     AdmissionOptions opts)
    : prog_(&prog), path_params_(pathParams), opts_(opts)
{}

Admission::ClientState &
Admission::state(const std::string &clientId)
{
    ClientState &cs = clients_[clientId];
    if (!cs.tokensInit) {
        cs.tokens = opts_.maxTokens;
        cs.tokensInit = true;
    }
    return cs;
}

void
Admission::bumpScore(ClientState &cs, uint32_t amount)
{
    cs.score += amount;
    if (cs.score >= opts_.quarantineThreshold) {
        cs.quarantinedUntil = epoch_ + 1 + opts_.quarantineEpochs;
        cs.score = 0;
        ++cs.stats.quarantineEntries;
    }
}

void
Admission::onEpoch(uint64_t newEpoch)
{
    if (newEpoch <= epoch_)
        return;
    const uint64_t steps = newEpoch - epoch_;
    epoch_ = newEpoch;
    for (auto &[id, cs] : clients_) {
        // Refill is per elapsed epoch; score halves per elapsed epoch.
        const uint64_t refill =
            steps >= 64 ? opts_.maxTokens : steps * opts_.tokensPerEpoch;
        cs.tokens = std::min(opts_.maxTokens, cs.tokens + refill);
        cs.score = steps >= 32 ? 0 : uint32_t(cs.score >> steps);
    }
}

bool
Admission::quarantined(const std::string &clientId) const
{
    auto it = clients_.find(clientId);
    return it != clients_.end() &&
           it->second.quarantinedUntil > epoch_;
}

const ClientStats &
Admission::stats(const std::string &clientId) const
{
    static const ClientStats kEmpty;
    auto it = clients_.find(clientId);
    return it == clients_.end() ? kEmpty : it->second.stats;
}

const std::map<std::string, ClientStats> &
Admission::allStats() const
{
    stats_view_.clear();
    for (const auto &[id, cs] : clients_)
        stats_view_[id] = cs.stats;
    return stats_view_;
}

AdmissionResult
Admission::evaluate(const std::string &clientId, uint64_t lastSeq,
                    uint64_t seq, uint8_t profileKind,
                    const std::string &text)
{
    AdmissionResult res;
    ClientState &cs = state(clientId);

    // 1. Exactly-once: the durable cursor survives crashes, so a
    //    reconnecting client blindly resending is harmless.
    if (seq <= lastSeq) {
        ++cs.stats.duplicates;
        res.code = AckCode::Duplicate;
        res.detail = strfmt("seq %llu already admitted (cursor %llu)",
                            (unsigned long long)seq,
                            (unsigned long long)lastSeq);
        return res;
    }

    // 2. Quarantine: misbehaving clients are dropped unread.
    if (cs.quarantinedUntil > epoch_) {
        ++cs.stats.quarantinedDeltas;
        res.code = AckCode::Quarantined;
        res.detail = strfmt("quarantined until epoch %llu",
                            (unsigned long long)cs.quarantinedUntil);
        return res;
    }

    // 3. Rate limit: out of tokens degrades to retry-later.
    if (cs.tokens == 0) {
        ++cs.stats.throttled;
        res.code = AckCode::Throttled;
        res.detail = "rate limit: token bucket empty this epoch";
        return res;
    }
    --cs.tokens;

    // 4./5. Admit in Repair mode (lenient parse + audit), keep
    //       survivors.
    profile::ProfileMeta meta;
    profile::ProfileAudit audit;
    AdmittedDelta delta;
    delta.clientId = clientId;
    delta.seq = seq;

    auto reject = [&](const Status &st) {
        ++cs.stats.rejected;
        bumpScore(cs, opts_.scorePerReject);
        res.code = AckCode::Rejected;
        res.detail = st.toString();
        return res;
    };

    if (profileKind == 0) {
        profile::AdmittedEdgeProfile adm(*prog_);
        (void)profile::admitEdgeProfile(
            text, *prog_, profile::AdmissionMode::Repair, adm);
        if (adm.audit.fileRejected)
            return reject(adm.audit.fileStatus);
        meta = std::move(adm.meta);
        audit = std::move(adm.audit);
        const profile::EdgeProfiler &ep = adm.profile;
        ep.forEachBlock([&](ir::ProcId p, ir::BlockId b, uint64_t c) {
            if (audit.findProc(p) == nullptr)
                delta.blocks.push_back({uint32_t(p), uint32_t(b), c});
        });
        ep.forEachEdge([&](ir::ProcId p, ir::BlockId f, ir::BlockId t,
                           uint64_t c) {
            if (audit.findProc(p) == nullptr)
                delta.edges.push_back(
                    {uint32_t(p), uint32_t(f), uint32_t(t), c});
        });
    } else {
        profile::AdmittedPathProfile adm(*prog_, path_params_);
        (void)profile::admitPathProfile(text, *prog_, path_params_,
                                        profile::AdmissionMode::Repair,
                                        adm);
        if (adm.audit.fileRejected)
            return reject(adm.audit.fileStatus);
        meta = std::move(adm.meta);
        audit = std::move(adm.audit);
        const profile::PathProfiler &pp = adm.profile;
        const profile::EdgeProfiler &projected = adm.projected;
        pp.forEachPath([&](ir::ProcId p,
                           const std::vector<ir::BlockId> &seqv,
                           uint64_t c) {
            if (audit.findProc(p) != nullptr)
                return; // projected or quarantined: no raw windows
            AdmittedDelta::PathRec rec;
            rec.proc = uint32_t(p);
            rec.blocks.assign(seqv.begin(), seqv.end());
            rec.count = c;
            delta.paths.push_back(std::move(rec));
        });
        // ProjectedEdges procedures ride along as edge counts — the
        // admission layer's degradation cascade, preserved through
        // aggregation.
        projected.forEachBlock(
            [&](ir::ProcId p, ir::BlockId b, uint64_t c) {
                const auto *pa = audit.findProc(p);
                if (pa != nullptr &&
                    pa->action == profile::ProcAction::ProjectedEdges)
                    delta.blocks.push_back(
                        {uint32_t(p), uint32_t(b), c});
            });
        projected.forEachEdge([&](ir::ProcId p, ir::BlockId f,
                                  ir::BlockId t, uint64_t c) {
            const auto *pa = audit.findProc(p);
            if (pa != nullptr &&
                pa->action == profile::ProcAction::ProjectedEdges)
                delta.edges.push_back(
                    {uint32_t(p), uint32_t(f), uint32_t(t), c});
        });
    }

    // Attribution counters (ProfileMeta skips, audit findings).
    cs.stats.skippedRecords += meta.recordsSkipped;
    cs.stats.unattributedSkips += meta.unattributedSkips;
    cs.stats.procsStale += audit.staleProcs;
    uint32_t badProcs = 0;
    for (const auto &pa : audit.procs) {
        if (pa.action == profile::ProcAction::Quarantined) {
            ++cs.stats.procsQuarantined;
            ++badProcs;
        } else if (pa.action == profile::ProcAction::ProjectedEdges) {
            ++cs.stats.procsProjected;
        }
    }
    if (badProcs > 0)
        bumpScore(cs, badProcs * opts_.scorePerBadProc);

    delta.normalize();
    ++cs.stats.admitted;
    res.code = AckCode::Accepted;
    res.detail =
        strfmt("admitted %zu block, %zu edge, %zu path records%s",
               delta.blocks.size(), delta.edges.size(),
               delta.paths.size(),
               audit.procs.empty() ? "" : " (some procs degraded)");
    res.delta = std::move(delta);
    return res;
}

} // namespace pathsched::serve
