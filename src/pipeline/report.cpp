#include "pipeline/report.hpp"

#include <cstdio>
#include <fstream>

namespace pathsched::pipeline {

const char kReportSchema[] = "pathsched.report.v1";

void
resultToJson(obs::JsonWriter &w, const std::string &workload,
             const PipelineResult &r)
{
    w.beginObject();
    w.member("workload", workload);
    w.member("config", r.name);
    w.member("codeBytes", r.codeBytes);
    w.member("numPaths", uint64_t(r.numPaths));
    w.member("trainSteps", r.trainSteps);
    w.member("outputMatches", r.outputMatches);

    // Robustness (additive to the v1 schema): overall status plus any
    // procedures that fell back to BB during this run.
    w.member("status", r.status.toString());
    w.member("degraded", uint64_t(r.degraded.size()));
    if (r.budgeted) {
        // Gated on governance so unbudgeted reports stay byte-identical
        // to pre-budget builds.
        w.key("budget");
        w.beginObject();
        w.member("exhausted", uint64_t(r.budgetDegradations()));
        w.endObject();
    }
    if (r.profileAudit.enabled) {
        // Profile admission (additive to the v1 schema): emitted only
        // when an external profile was checked, so ordinary runs stay
        // byte-identical to pre-admission builds.
        const profile::ProfileAudit &a = r.profileAudit;
        w.key("profileAudit");
        w.beginObject();
        w.member("clean", a.clean());
        w.member("fileRejected", a.fileRejected);
        if (a.fileRejected)
            w.member("fileStatus", a.fileStatus.toString());
        w.member("checked", a.checked);
        w.member("repaired", a.repaired);
        w.member("quarantined", a.quarantined);
        w.member("staleProcs", a.staleProcs);
        w.member("droppedPaths", a.droppedPaths);
        if (!a.procs.empty()) {
            w.key("procs");
            w.beginArray();
            for (const auto &pa : a.procs) {
                w.beginObject();
                w.member("proc", uint64_t(pa.proc));
                w.member("procName", pa.procName);
                w.member("action", profile::procActionName(pa.action));
                w.member("kind", errorKindName(pa.kind));
                w.member("droppedPaths", pa.droppedPaths);
                w.member("message", pa.message);
                w.endObject();
            }
            w.endArray();
        }
        w.endObject();
    }
    if (!r.degraded.empty()) {
        w.key("degradations");
        w.beginArray();
        for (const auto &d : r.degraded) {
            w.beginObject();
            w.member("proc", uint64_t(d.proc));
            w.member("procName", d.procName);
            w.member("stage", d.stage);
            w.member("kind", errorKindName(d.kind));
            w.member("message", d.message);
            w.endObject();
        }
        w.endArray();
    }

    w.key("test");
    w.beginObject();
    w.member("cycles", r.test.cycles);
    w.member("dynInstrs", r.test.dynInstrs);
    w.member("dynBranches", r.test.dynBranches);
    w.member("dynCalls", r.test.dynCalls);
    w.member("stallCycles", r.test.stallCycles);
    w.member("icacheAccesses", r.test.icacheAccesses);
    w.member("icacheMisses", r.test.icacheMisses);
    w.member("sbEntries", r.test.sbEntries);
    w.member("sbCompletions", r.test.sbCompletions);
    w.member("sbAvgBlocksExecuted", r.test.sbAvgBlocksExecuted());
    w.member("sbAvgBlocksInSuperblock",
             r.test.sbAvgBlocksInSuperblock());
    w.endObject();

    w.key("form");
    w.beginObject();
    w.member("tracesSelected", r.form.tracesSelected);
    w.member("multiBlockTraces", r.form.multiBlockTraces);
    w.member("superblocksFormed", r.form.superblocksFormed);
    w.member("enlargedSuperblocks", r.form.enlargedSuperblocks);
    w.member("blocksDuplicated", r.form.blocksDuplicated);
    w.member("unreachableRemoved", r.form.unreachableRemoved);
    w.endObject();

    w.key("compact");
    w.beginObject();
    w.key("opt");
    w.beginObject();
    w.member("copiesPropagated", r.compact.opt.copiesPropagated);
    w.member("constantsFolded", r.compact.opt.constantsFolded);
    w.member("chainsFolded", r.compact.opt.chainsFolded);
    w.member("deadRemoved", r.compact.opt.deadRemoved);
    w.endObject();
    w.key("rename");
    w.beginObject();
    w.member("defsRenamed", r.compact.rename.defsRenamed);
    w.member("stubsCreated", r.compact.rename.stubsCreated);
    w.member("copiesInserted", r.compact.rename.copiesInserted);
    w.endObject();
    w.key("sched");
    w.beginObject();
    w.member("blocksScheduled", r.compact.sched.blocksScheduled);
    w.member("loadsSpeculated", r.compact.sched.loadsSpeculated);
    w.member("totalCycles", r.compact.sched.totalCycles);
    w.endObject();
    w.endObject();

    w.key("alloc");
    w.beginObject();
    w.member("procsAllocated", r.alloc.procsAllocated);
    w.member("procsSkipped", r.alloc.procsSkipped);
    w.member("regsSpilled", r.alloc.regsSpilled);
    w.member("maxPressure", uint64_t(r.alloc.maxPressure));
    w.endObject();

    w.key("executor");
    w.beginObject();
    w.member("threads", uint64_t(r.exec.threads));
    w.member("tasks", r.exec.tasks);
    w.member("cacheEnabled", r.exec.cacheEnabled);
    if (r.exec.cacheEnabled) {
        w.member("cacheHits", r.exec.cacheHits);
        w.member("cacheMisses", r.exec.cacheMisses);
    }
    w.endObject();

    w.key("stages");
    w.beginArray();
    for (const auto &s : r.stages) {
        w.beginObject();
        w.member("name", s.name);
        w.member("ms", s.ms);
        w.endObject();
    }
    w.endArray();
    w.member("totalMs", r.totalMs());

    w.endObject();
}

std::string
reportJson(const std::vector<ReportRun> &runs,
           const obs::StatRegistry *stats,
           const std::function<void(obs::JsonWriter &)> &extra)
{
    obs::JsonWriter w;
    w.beginObject();
    w.member("schema", kReportSchema);
    w.key("runs");
    w.beginArray();
    for (const auto &run : runs)
        resultToJson(w, run.workload, run.result);
    w.endArray();
    if (stats != nullptr) {
        w.key("stats");
        stats->toJson(w);
    }
    if (extra)
        extra(w);
    w.endObject();
    return w.str();
}

bool
writeReportFile(const std::string &path,
                const std::vector<ReportRun> &runs,
                const obs::StatRegistry *stats)
{
    const std::string doc = reportJson(runs, stats);
    if (path == "-") {
        std::fwrite(doc.data(), 1, doc.size(), stdout);
        std::fputc('\n', stdout);
        return true;
    }
    std::ofstream out(path);
    if (!out)
        return false;
    out << doc << '\n';
    return bool(out);
}

} // namespace pathsched::pipeline
