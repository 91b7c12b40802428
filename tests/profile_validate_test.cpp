/**
 * @file
 * Profile admission tests: the path->edge projection identity, edge
 * flow conservation, fingerprint staleness, strict/repair/off modes,
 * and the pipeline's per-procedure degradation cascade (corrupt data
 * for one procedure must not perturb any other procedure's code).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "interp/interpreter.hpp"
#include "ir/printer.hpp"
#include "ir/procedure.hpp"
#include "obs/stats.hpp"
#include "obs/timer.hpp"
#include "pipeline/pipeline.hpp"
#include "profile/serialize.hpp"
#include "profile/validate.hpp"
#include "workloads/workloads.hpp"

namespace pathsched::profile {
namespace {

using ir::BlockId;
using pipeline::PipelineOptions;
using pipeline::PipelineResult;
using pipeline::SchedConfig;

constexpr AdmissionMode kRepair = AdmissionMode::Repair;

/** Train both profilers on @p w's training input in one run. */
struct Trained
{
    EdgeProfiler ep;
    PathProfiler pp;

    explicit Trained(const workloads::Workload &w,
                     PathProfileParams params = {})
        : ep(w.program), pp(w.program, params)
    {
        interp::Interpreter interp(w.program);
        interp.addListener(&ep);
        interp.addListener(&pp);
        interp.run(w.train);
    }
};

/** Every (block, edge) frequency of @p a equals @p b's. */
void
expectProfilesEqual(const ir::Program &prog, const EdgeProfiler &a,
                    const EdgeProfiler &b)
{
    std::vector<BlockId> succs;
    for (const ir::Procedure &proc : prog.procs) {
        for (size_t bl = 0; bl < proc.blocks.size(); ++bl) {
            EXPECT_EQ(a.blockFreq(proc.id, BlockId(bl)),
                      b.blockFreq(proc.id, BlockId(bl)))
                << proc.name << " block " << bl;
            succs.clear();
            ir::successorsOf(proc.blocks[bl], succs);
            for (BlockId s : succs)
                EXPECT_EQ(a.edgeFreq(proc.id, BlockId(bl), s),
                          b.edgeFreq(proc.id, BlockId(bl), s))
                    << proc.name << " edge " << bl << "->" << s;
        }
    }
}

// ---------------------------------------------------------------------
// The projection identity: final-block / final-pair projection of raw
// window counts reproduces the exact dynamic edge profile.

TEST(Projection, ReproducesRealEdgeProfile)
{
    for (const char *name : {"alt", "corr", "wc", "li"}) {
        const auto w = workloads::makeByName(name);
        Trained t(w);
        EdgeProfiler projected(w.program);
        projectPathsToEdges(t.pp, projected);
        expectProfilesEqual(w.program, t.ep, projected);
    }
}

TEST(Projection, ForwardModeKeepsBlocksExactAndNeverOvercountsEdges)
{
    // Forward mode chops windows at back edges, so a back edge never
    // appears as any window's final pair: its projected count is 0.
    // Block counts stay exact (the chopped window still ends in the
    // executed block), and no edge can ever project *above* its real
    // traversal count — which is what the admission checks rely on.
    PathProfileParams params;
    params.forwardPathsOnly = true;
    const auto w = workloads::makeCorr();
    Trained t(w, params);
    EdgeProfiler projected(w.program);
    projectPathsToEdges(t.pp, projected);

    std::vector<BlockId> succs;
    for (const ir::Procedure &proc : w.program.procs) {
        for (size_t bl = 0; bl < proc.blocks.size(); ++bl) {
            EXPECT_EQ(projected.blockFreq(proc.id, BlockId(bl)),
                      t.ep.blockFreq(proc.id, BlockId(bl)))
                << proc.name << " block " << bl;
            succs.clear();
            ir::successorsOf(proc.blocks[bl], succs);
            for (BlockId s : succs)
                EXPECT_LE(projected.edgeFreq(proc.id, BlockId(bl), s),
                          t.ep.edgeFreq(proc.id, BlockId(bl), s))
                    << proc.name << " edge " << bl << "->" << s;
        }
    }
}

// ---------------------------------------------------------------------
// Edge-profile admission.

TEST(EdgeAudit, AcceptsRealProfile)
{
    const auto w = workloads::makeCorr();
    Trained t(w);
    ProfileMeta meta;
    ProfileAudit audit;
    ASSERT_TRUE(
        auditEdgeProfile(w.program, t.ep, meta, kRepair, audit).ok());
    EXPECT_TRUE(audit.enabled);
    EXPECT_TRUE(audit.clean());
    EXPECT_EQ(audit.checked, w.program.procs.size());
}

TEST(EdgeAudit, QuarantinesInflatedBlockCount)
{
    const auto w = workloads::makeAlt();
    Trained t(w);
    // Block 1 is not the entry, so its inflow must match exactly.
    ASSERT_TRUE(t.ep.addBlockCount(0, 1, 1000));

    ProfileMeta meta;
    ProfileAudit audit;
    ASSERT_TRUE(
        auditEdgeProfile(w.program, t.ep, meta, kRepair, audit).ok());
    EXPECT_FALSE(audit.clean());
    ASSERT_EQ(audit.procs.size(), 1u);
    EXPECT_EQ(audit.procs[0].action, ProcAction::Quarantined);
    EXPECT_EQ(audit.procs[0].kind, ErrorKind::ProfileCorrupt);
    EXPECT_EQ(audit.quarantined, 1u);

    // Strict mode surfaces the same finding as a typed error.
    const AdmissionMode strict = AdmissionMode::Strict;
    const Status st =
        auditEdgeProfile(w.program, t.ep, meta, strict, audit);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.kind(), ErrorKind::ProfileCorrupt);
}

TEST(EdgeAudit, QuarantinesNonCFGEdge)
{
    const auto w = workloads::makeAlt();
    Trained t(w);
    // Find a block pair that is not a CFG edge and record traffic on
    // it, as a splice of two unrelated profiles would.
    const ir::Procedure &proc = w.program.proc(0);
    std::vector<BlockId> succs;
    BlockId bad_from = 0, bad_to = 0;
    bool found = false;
    for (size_t u = 0; !found && u < proc.blocks.size(); ++u) {
        succs.clear();
        ir::successorsOf(proc.blocks[u], succs);
        for (size_t v = 0; !found && v < proc.blocks.size(); ++v) {
            if (std::find(succs.begin(), succs.end(), BlockId(v)) ==
                succs.end()) {
                bad_from = BlockId(u);
                bad_to = BlockId(v);
                found = true;
            }
        }
    }
    ASSERT_TRUE(found);
    ASSERT_TRUE(t.ep.addEdgeCount(0, bad_from, bad_to, 5));

    ProfileMeta meta;
    ProfileAudit audit;
    ASSERT_TRUE(
        auditEdgeProfile(w.program, t.ep, meta, kRepair, audit).ok());
    ASSERT_EQ(audit.procs.size(), 1u);
    EXPECT_EQ(audit.procs[0].action, ProcAction::Quarantined);
    EXPECT_NE(audit.procs[0].message.find("not in the CFG"),
              std::string::npos);
}

TEST(EdgeAudit, StaleFingerprintQuarantines)
{
    const auto w = workloads::makeAlt();
    Trained t(w);

    EdgeProfiler loaded(w.program);
    ProfileMeta meta;
    ASSERT_TRUE(
        loadEdgeProfile(toTextV2(t.ep, w.program), loaded, meta).ok());
    ASSERT_FALSE(meta.fingerprints.empty());
    meta.fingerprints[0].second ^= 1; // profile from a "different" IR

    ProfileAudit audit;
    ASSERT_TRUE(
        auditEdgeProfile(w.program, loaded, meta, kRepair, audit).ok());
    ASSERT_EQ(audit.procs.size(), 1u);
    EXPECT_EQ(audit.procs[0].action, ProcAction::Quarantined);
    EXPECT_EQ(audit.procs[0].kind, ErrorKind::ProfileStale);
    EXPECT_EQ(audit.staleProcs, 1u);

    const AdmissionMode strict = AdmissionMode::Strict;
    const Status st =
        auditEdgeProfile(w.program, loaded, meta, strict, audit);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.kind(), ErrorKind::ProfileStale);
}

// ---------------------------------------------------------------------
// Path-profile admission.

TEST(PathAudit, AcceptsRealProfile)
{
    const auto w = workloads::makeCorr();
    Trained t(w);
    ProfileMeta meta;
    ProfileAudit audit;
    EdgeProfiler projected(w.program);
    ASSERT_TRUE(auditPathProfile(w.program, t.pp, meta, kRepair, audit,
                                 &projected)
                    .ok());
    EXPECT_TRUE(audit.clean());
    EXPECT_EQ(audit.repaired, 0u);
}

/** Multiply the count of one long window of proc @p proc by 10^6. */
std::string
inflateOneWindow(const std::string &text, unsigned proc)
{
    const std::string prefix = "path " + std::to_string(proc) + " ";
    size_t pos = 0;
    while ((pos = text.find(prefix, pos)) != std::string::npos) {
        if (pos != 0 && text[pos - 1] != '\n') {
            pos += prefix.size();
            continue;
        }
        const size_t count_at = pos + prefix.size();
        const size_t count_end = text.find(' ', count_at);
        const size_t eol = text.find('\n', pos);
        // Only corrupt a window long enough to carry an interior
        // (non-final) pair, so the pair-bound check can see the lie.
        const size_t len_at = count_end + 1;
        const size_t len_end = text.find(' ', len_at);
        if (len_end != std::string::npos && len_end < eol &&
            std::stoul(text.substr(len_at, len_end - len_at)) >= 3) {
            std::string out = text;
            out.insert(count_end, "000000");
            return out;
        }
        pos = eol;
    }
    ADD_FAILURE() << "no inflatable window for proc " << proc;
    return text;
}

TEST(PathAudit, RepairsOverstatedWindowByProjection)
{
    const auto w = workloads::makeCorr();
    Trained t(w);
    const std::string corrupt = inflateOneWindow(toText(t.pp), 0);

    PathProfiler loaded(w.program, {});
    ProfileMeta meta;
    ASSERT_TRUE(loadPathProfile(corrupt, loaded, meta).ok());

    ProfileAudit audit;
    EdgeProfiler projected(w.program);
    ASSERT_TRUE(auditPathProfile(w.program, loaded, meta, kRepair, audit,
                                 &projected)
                    .ok());
    EXPECT_FALSE(audit.clean());
    ASSERT_EQ(audit.procs.size(), 1u);
    EXPECT_EQ(audit.procs[0].action, ProcAction::ProjectedEdges);
    EXPECT_GE(audit.procs[0].droppedPaths, 1u);
    EXPECT_EQ(audit.repaired, 1u);
    EXPECT_EQ(audit.quarantined, 0u);
    // The surviving windows produced a usable projection.
    EXPECT_GT(projected.blockFreq(0, 0), 0u);
}

TEST(PathAudit, QuarantinesWhenEveryWindowIsBogus)
{
    const auto w = workloads::makeAlt();
    // One fabricated window over a pair that is not a CFG edge
    // (block 0 never branches to itself).
    PathProfiler loaded(w.program, {});
    ProfileMeta meta;
    ASSERT_TRUE(
        loadPathProfile("pathprofile v1 15 64 0\npath 0 5 2 0 0\n",
                        loaded, meta)
            .ok());

    ProfileAudit audit;
    EdgeProfiler projected(w.program);
    ASSERT_TRUE(auditPathProfile(w.program, loaded, meta, kRepair, audit,
                                 &projected)
                    .ok());
    ASSERT_EQ(audit.procs.size(), 1u);
    EXPECT_EQ(audit.procs[0].action, ProcAction::Quarantined);
    EXPECT_NE(audit.procs[0].message.find("all 1 windows dropped"),
              std::string::npos);

    const AdmissionMode strict = AdmissionMode::Strict;
    EXPECT_FALSE(auditPathProfile(w.program, loaded, meta, strict,
                                  audit, &projected)
                     .ok());
}

TEST(PathAudit, OffModeChecksNothing)
{
    const auto w = workloads::makeAlt();
    Trained t(w);
    const AdmissionMode off = AdmissionMode::Off;
    ProfileAudit audit;
    ASSERT_TRUE(
        auditPathProfile(w.program, t.pp, {}, off, audit, nullptr)
            .ok());
    EXPECT_FALSE(audit.enabled);
}

// ---------------------------------------------------------------------
// The pipeline cascade: corrupt data for one procedure of a
// multi-procedure workload degrades that procedure only.

TEST(Cascade, CorruptProcDegradesAloneAndOthersAreBitIdentical)
{
    const auto w = workloads::makeVortex();
    ASSERT_GE(w.program.procs.size(), 3u);
    Trained t(w);
    const std::string clean_text = toText(t.pp);

    // Victim: any non-main procedure that recorded a window long
    // enough to carry an interior pair (so the corruption is visible).
    ir::ProcId victim = 0;
    t.pp.forEachPath([&](ir::ProcId p, const std::vector<BlockId> &seq,
                         uint64_t) {
        if (victim == 0 && p != 0 && seq.size() >= 3)
            victim = p;
    });
    ASSERT_NE(victim, 0u) << "no non-main proc with a long window";
    const std::string corrupt_text = inflateOneWindow(clean_text, victim);

    PipelineOptions base;
    base.keepTransformed = true;

    // Baseline: no external profile. Admission must stay disabled.
    const PipelineResult r0 = runPipeline(w.program, w.train, w.test,
                                          SchedConfig::P4, base);
    ASSERT_TRUE(r0.status.ok());
    EXPECT_FALSE(r0.profileAudit.enabled);
    ASSERT_NE(r0.transformed, nullptr);

    // A clean external profile (identical to the training profile)
    // admits fully and changes nothing.
    AdmittedPathProfile clean_adm(w.program, base.pathParams);
    ASSERT_TRUE(admitPathProfile(clean_text, w.program, base.pathParams,
                                 AdmissionMode::Repair, clean_adm)
                    .ok());
    PipelineOptions clean = base;
    clean.profileInput.paths = &clean_adm;
    const PipelineResult r1 = runPipeline(w.program, w.train, w.test,
                                          SchedConfig::P4, clean);
    ASSERT_TRUE(r1.status.ok());
    EXPECT_TRUE(r1.profileAudit.enabled);
    EXPECT_TRUE(r1.profileAudit.clean());
    EXPECT_EQ(r1.test.cycles, r0.test.cycles);
    EXPECT_EQ(ir::toString(*r1.transformed), ir::toString(*r0.transformed));

    // Corrupting one procedure's windows degrades that procedure and
    // leaves every other procedure's final code bit-identical.
    obs::StatRegistry stats;
    obs::Observer obs;
    obs.stats = &stats;
    AdmittedPathProfile corrupt_adm(w.program, base.pathParams);
    ASSERT_TRUE(admitPathProfile(corrupt_text, w.program, base.pathParams,
                                 AdmissionMode::Repair, corrupt_adm)
                    .ok());
    PipelineOptions corrupt = clean;
    corrupt.profileInput.paths = &corrupt_adm;
    corrupt.observability.observer = &obs;
    const PipelineResult r2 = runPipeline(w.program, w.train, w.test,
                                          SchedConfig::P4, corrupt);
    ASSERT_TRUE(r2.status.ok());
    EXPECT_TRUE(r2.outputMatches);
    EXPECT_FALSE(r2.profileAudit.clean());
    const ProcAudit *pa = r2.profileAudit.findProc(victim);
    ASSERT_NE(pa, nullptr);
    EXPECT_EQ(pa->procName, w.program.proc(victim).name);
    EXPECT_NE(pa->action, ProcAction::Accepted);
    for (const ir::Procedure &proc : w.program.procs) {
        if (proc.id == victim)
            continue;
        EXPECT_EQ(ir::toString(r2.transformed->proc(proc.id)),
                  ir::toString(r0.transformed->proc(proc.id)))
            << proc.name;
    }
    EXPECT_EQ(stats.counter("robust.P4.profile.repaired") +
                  stats.counter("robust.P4.profile.quarantined"),
              1u);
    EXPECT_EQ(stats.counter("profile.P4.audit.checked"),
              w.program.procs.size());

    // Strict mode refuses the same file outright.
    AdmittedPathProfile strict_adm(w.program, base.pathParams);
    EXPECT_FALSE(admitPathProfile(corrupt_text, w.program, base.pathParams,
                                  AdmissionMode::Strict, strict_adm)
                     .ok());

    // Off mode trusts the file after a plain parse: no audit runs.
    AdmittedPathProfile off_adm(w.program, base.pathParams);
    ASSERT_TRUE(admitPathProfile(corrupt_text, w.program, base.pathParams,
                                 AdmissionMode::Off, off_adm)
                    .ok());
    PipelineOptions off = corrupt;
    off.observability.observer = nullptr;
    off.profileInput.paths = &off_adm;
    const PipelineResult r4 = runPipeline(w.program, w.train, w.test,
                                          SchedConfig::P4, off);
    ASSERT_TRUE(r4.status.ok());
    EXPECT_FALSE(r4.profileAudit.enabled);
}

TEST(Cascade, UnparseableFileFallsBackToTrainingProfile)
{
    const auto w = workloads::makeCorr();
    PipelineOptions base;
    base.keepTransformed = true;
    const PipelineResult r0 = runPipeline(w.program, w.train, w.test,
                                          SchedConfig::P4, base);
    ASSERT_TRUE(r0.status.ok());

    const std::string garbage = "this is not a profile\n";
    AdmittedPathProfile bad_adm(w.program, base.pathParams);
    ASSERT_TRUE(admitPathProfile(garbage, w.program, base.pathParams,
                                 AdmissionMode::Repair, bad_adm)
                    .ok());
    PipelineOptions bad = base;
    bad.profileInput.paths = &bad_adm;
    const PipelineResult r1 = runPipeline(w.program, w.train, w.test,
                                          SchedConfig::P4, bad);
    ASSERT_TRUE(r1.status.ok());
    EXPECT_TRUE(r1.profileAudit.enabled);
    EXPECT_TRUE(r1.profileAudit.fileRejected);
    EXPECT_FALSE(r1.profileAudit.fileStatus.ok());
    // The internal training profile took over: identical output code.
    EXPECT_EQ(ir::toString(*r1.transformed), ir::toString(*r0.transformed));

    // Strict mode turns the rejection into a failed admission.
    AdmittedPathProfile strict_adm(w.program, base.pathParams);
    EXPECT_FALSE(admitPathProfile(garbage, w.program, base.pathParams,
                                  AdmissionMode::Strict, strict_adm)
                     .ok());
}

TEST(Cascade, SharedAdmissionMatchesSeparateAdmissions)
{
    // One admitted profile read by a P4 and a P4e run (as a --config
    // all sweep shares it) must give exactly what two independent
    // admissions give.  A corrupted window makes the audit non-trivial,
    // so the projected-edge profile is shared too.
    const auto w = workloads::makeCorr();
    Trained t(w);
    const std::string text = inflateOneWindow(toText(t.pp), 0);
    PipelineOptions base;
    base.keepTransformed = true;

    AdmittedPathProfile shared(w.program, base.pathParams);
    ASSERT_TRUE(admitPathProfile(text, w.program, base.pathParams,
                                 AdmissionMode::Repair, shared)
                    .ok());
    ASSERT_FALSE(shared.audit.clean());
    for (const SchedConfig c : {SchedConfig::P4, SchedConfig::P4e}) {
        AdmittedPathProfile own(w.program, base.pathParams);
        ASSERT_TRUE(admitPathProfile(text, w.program, base.pathParams,
                                     AdmissionMode::Repair, own)
                        .ok());
        PipelineOptions a = base, b = base;
        a.profileInput.paths = &shared;
        b.profileInput.paths = &own;
        const PipelineResult ra =
            runPipeline(w.program, w.train, w.test, c, a);
        const PipelineResult rb =
            runPipeline(w.program, w.train, w.test, c, b);
        ASSERT_TRUE(ra.status.ok());
        ASSERT_TRUE(rb.status.ok());
        EXPECT_EQ(ra.test.cycles, rb.test.cycles) << ra.name;
        EXPECT_EQ(ra.codeBytes, rb.codeBytes) << ra.name;
        EXPECT_EQ(ra.numPaths, rb.numPaths) << ra.name;
        EXPECT_EQ(ra.profileAudit.repaired, rb.profileAudit.repaired);
        EXPECT_EQ(ra.profileAudit.procs.size(),
                  rb.profileAudit.procs.size());
        EXPECT_EQ(ir::toString(*ra.transformed),
                  ir::toString(*rb.transformed))
            << ra.name;
    }
}

} // namespace
} // namespace pathsched::profile
