#include "gen/oracle.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "pipeline/backend.hpp"
#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "profile/serialize.hpp"
#include "profile/validate.hpp"
#include "support/faultinject.hpp"
#include "support/rng.hpp"
#include "support/strutil.hpp"

namespace pathsched::gen {

using pipeline::PipelineOptions;
using pipeline::PipelineResult;
using pipeline::SchedConfig;

namespace {

/** Interpreter ceiling for oracle runs: the generator's static bound
 *  plus slack for the transformed program's compensation code.  A run
 *  hitting this is a finding, never a hang. */
uint64_t
stepCeiling(const Workload &w)
{
    const uint64_t slack = w.stepBound * 4 + (1ULL << 16);
    return std::min(slack, interp::kDefaultMaxSteps);
}

void
add(OracleResult &res, std::string config, std::string check,
    std::string detail, std::string message)
{
    res.findings.push_back({std::move(config), std::move(check),
                            std::move(detail), std::move(message)});
}

/** Compare a pipeline test run against the reference interpretation. */
bool
matchesRef(const PipelineResult &r, const interp::RunResult &ref)
{
    return r.test.returnValue == ref.returnValue &&
           r.test.output == ref.output;
}

/** What the disarmed-injection check compares byte-for-byte. */
struct BaselineRun
{
    std::string transformedText;
    uint64_t cycles = 0;
    uint64_t codeBytes = 0;
    std::vector<int64_t> output;
};

void
checkTransformed(OracleResult &res, const char *cfg,
                 const PipelineResult &r)
{
    if (r.transformed == nullptr) {
        add(res, cfg, "verify", "", "keepTransformed produced nothing");
        return;
    }
    const ir::Program &t = *r.transformed;
    for (ir::ProcId p = 0; p < t.procs.size(); ++p) {
        const Status st =
            ir::verifyProcStatus(t, p, ir::VerifyMode::Superblock);
        if (!st.ok())
            add(res, cfg, "verify", t.procs[p].name, st.message());
    }
}

/** Record every way one pipeline run can violate the oracle. */
void
checkRun(OracleResult &res, const char *cfg, const PipelineResult &r,
         const interp::RunResult &ref)
{
    if (!r.status.ok()) {
        add(res, cfg, "status", errorKindName(r.status.kind()),
            r.status.message());
        return;
    }
    for (const auto &d : r.degraded) {
        // No budget is armed and no fault injected on a clean
        // generated workload: any quarantine is a pass bug the
        // robustness layer absorbed, and exactly what we hunt.
        add(res, cfg, "degraded", d.stage,
            strfmt("proc %s: %s: %s", d.procName.c_str(),
                   errorKindName(d.kind), d.message.c_str()));
    }
    if (!r.outputMatches)
        add(res, cfg, "output", "",
            "transformed output diverges from the original program");
    if (!matchesRef(r, ref))
        add(res, cfg, "reference", "",
            "test run diverges from the reference interpretation");
    checkTransformed(res, cfg, r);
}

std::vector<std::string>
splitWords(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string w;
    while (in >> w)
        out.push_back(w);
    return out;
}

/** Shuffle a profile's record lines, preserving the header line. */
std::string
permuteLines(const std::string &text, uint64_t seed)
{
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        if (end > pos)
            lines.push_back(text.substr(pos, end - pos));
        pos = end + 1;
    }
    if (lines.size() > 2) {
        Rng rng(seed);
        for (size_t i = lines.size() - 1; i > 1; --i) {
            const size_t j = 1 + size_t(rng.below(i)); // keep header
            std::swap(lines[i], lines[j]);
        }
    }
    std::string out;
    for (const auto &l : lines) {
        out += l;
        out += '\n';
    }
    return out;
}

/** Multiply every record's count field by @p factor.  The count is the
 *  3rd field of `path` records and the last field of `block`/`edge`
 *  records; headers and unknown lines pass through untouched. */
std::string
scaleCounts(const std::string &text, uint64_t factor)
{
    std::string out;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        std::string line = text.substr(pos, end - pos);
        const std::vector<std::string> f = splitWords(line);
        if (f.size() >= 4 && f[0] == "path") {
            uint64_t c = std::strtoull(f[2].c_str(), nullptr, 10);
            std::string rebuilt = f[0] + " " + f[1] + " " +
                                  std::to_string(c * factor);
            for (size_t i = 3; i < f.size(); ++i)
                rebuilt += " " + f[i];
            line = rebuilt;
        } else if ((f.size() == 4 && f[0] == "block") ||
                   (f.size() == 5 && f[0] == "edge")) {
            uint64_t c =
                std::strtoull(f.back().c_str(), nullptr, 10);
            std::string rebuilt = f[0];
            for (size_t i = 1; i + 1 < f.size(); ++i)
                rebuilt += " " + f[i];
            rebuilt += " " + std::to_string(c * factor);
            line = rebuilt;
        }
        out += line;
        out += '\n';
        if (end == text.size())
            break;
        pos = end + 1;
    }
    return out;
}

/** Evaluate one metamorphic-variant run: same pass/fail bar as the
 *  base runs, folded into a single check name. */
void
checkMetaRun(OracleResult &res, const char *cfg, const char *check,
             const PipelineResult &r, const interp::RunResult &ref)
{
    if (!r.status.ok()) {
        add(res, cfg, check, "status", r.status.toString());
        return;
    }
    if (!r.degraded.empty())
        add(res, cfg, check, "degraded",
            strfmt("proc %s degraded at %s",
                   r.degraded.front().procName.c_str(),
                   r.degraded.front().stage.c_str()));
    if (!r.outputMatches || !matchesRef(r, ref))
        add(res, cfg, check, "output",
            "semantics changed under a meaning-preserving profile "
            "mutation");
    if (r.profileAudit.enabled && !r.profileAudit.clean())
        add(res, cfg, check, "audit",
            "a genuine (mutated-in-form-only) profile failed admission");
}

} // namespace

std::string
OracleFinding::klass() const
{
    std::string k = config + ":" + check;
    if (!detail.empty())
        k += ":" + detail;
    return k;
}

std::string
OracleResult::classification() const
{
    return findings.empty() ? std::string() : findings.front().klass();
}

std::string
OracleResult::report() const
{
    std::string out;
    for (const auto &f : findings)
        out += strfmt("[%s] %s%s%s: %s\n", f.config.c_str(),
                      f.check.c_str(), f.detail.empty() ? "" : ":",
                      f.detail.c_str(), f.message.c_str());
    return out;
}

std::vector<SchedConfig>
allConfigs()
{
    // Registry-driven: a newly registered backend joins the oracle's
    // cross-config sweep (and, through it, the fuzz driver and the
    // corpus replays) with no edit here.
    std::vector<SchedConfig> out;
    for (const pipeline::BackendDesc *be : pipeline::allBackends())
        out.push_back(be->config);
    return out;
}

OracleResult
checkWorkload(const Workload &w, const OracleOptions &opts)
{
    OracleResult res;

    // The generator's own contract first: a malformed or runaway
    // program is a generator bug, reported instead of fed downstream.
    if (const Status st =
            ir::verifyStatus(w.program, ir::VerifyMode::Strict);
        !st.ok()) {
        add(res, "-", "gen-verify", "", st.message());
        return res;
    }
    interp::InterpOptions iopts;
    iopts.maxSteps = stepCeiling(w);
    const interp::RunResult ref =
        interp::Interpreter(w.program, iopts).run(w.test);
    res.refDynInstrs = ref.dynInstrs;
    if (ref.truncated()) {
        add(res, "-", "gen-steps", "",
            "reference run hit the step ceiling");
        return res;
    }
    if (ref.dynInstrs > w.stepBound) {
        add(res, "-", "gen-bound", "",
            strfmt("ran %llu ops, static bound promised %llu",
                   (unsigned long long)ref.dynInstrs,
                   (unsigned long long)w.stepBound));
        return res;
    }

    const std::vector<SchedConfig> configs =
        opts.configs.empty() ? allConfigs() : opts.configs;
    PipelineOptions base;
    base.keepTransformed = true;
    base.maxSteps = stepCeiling(w);
    base.executor.threads = opts.threads;
    base.useICache = opts.useICache;

    // One training and reference run serves every config, and the
    // metamorphic cases below read its genuine training profiles.
    std::vector<const pipeline::BackendDesc *> backends;
    for (const SchedConfig c : configs)
        backends.push_back(&pipeline::backendFor(c));
    pipeline::ProfileNeeds needs = pipeline::needsOf(backends);
    if (opts.metamorphic)
        needs |= {true, true};
    const pipeline::PreparedWorkload prepared = pipeline::prepareWorkload(
        w.program, w.train, w.test, needs, base);

    std::map<std::string, BaselineRun> baselines;
    for (const pipeline::BackendDesc *be : backends) {
        const char *cfg = be->name;
        const PipelineResult r = pipeline::runBackend(prepared, *be, base);
        checkRun(res, cfg, r, ref);
        if (r.status.ok() && r.transformed != nullptr)
            baselines[cfg] = {ir::toString(*r.transformed),
                              r.test.cycles, r.codeBytes,
                              r.test.output};
    }

    // Metamorphic invariants only add signal on top of clean base
    // runs; with a base finding they would re-report the same bug.
    if (!opts.metamorphic || !res.findings.empty())
        return res;

    // Clean base runs imply a completed prepare.
    const std::string path_text = profile::toText(*prepared.paths);
    const std::string edge_text = profile::toText(*prepared.edges);

    struct MetaCase
    {
        SchedConfig config;
        const char *check;
        std::string text; ///< profile of the kind the config reads
    };
    const uint64_t s = w.spec.seed;
    const std::vector<MetaCase> cases = {
        {SchedConfig::P4, "meta-permute",
         permuteLines(path_text, s ^ 0x70657231ULL)},
        {SchedConfig::P4, "meta-scale", scaleCounts(path_text, 3)},
        {SchedConfig::M4, "meta-permute",
         permuteLines(edge_text, s ^ 0x70657232ULL)},
        {SchedConfig::M4, "meta-scale", scaleCounts(edge_text, 3)},
    };
    for (const MetaCase &mc : cases) {
        // Repair-mode admission never fails; a rejected file shows up
        // in the run's profileAudit.
        PipelineOptions popts = base;
        profile::AdmittedEdgeProfile edges(w.program);
        profile::AdmittedPathProfile paths(w.program, popts.pathParams);
        const auto repair = profile::AdmissionMode::Repair;
        if (pipeline::backendFor(mc.config).needsPathProfile()) {
            (void)profile::admitPathProfile(mc.text, w.program,
                                            popts.pathParams, repair, paths);
            popts.profileInput.paths = &paths;
        } else {
            (void)profile::admitEdgeProfile(mc.text, w.program, repair,
                                            edges);
            popts.profileInput.edges = &edges;
        }
        const PipelineResult r = pipeline::runBackend(
            prepared, pipeline::backendFor(mc.config), popts);
        checkMetaRun(res, pipeline::configName(mc.config), mc.check, r,
                     ref);
    }

    // Disarmed injection: a fault spec that can never match must leave
    // the run bit-identical to the uninjected baseline.
    {
        FaultInjector inj(0);
        FaultSpec never;
        never.stage = "compact";
        never.proc = FaultSpec::kAnyProc - 1; // no such procedure
        inj.add(never);
        const SchedConfig c = configs.back();
        const char *cfg = pipeline::configName(c);
        PipelineOptions popts = base;
        popts.robustness.faults = &inj;
        const PipelineResult r =
            pipeline::runBackend(prepared, pipeline::backendFor(c), popts);
        const auto it = baselines.find(cfg);
        if (!r.status.ok() || r.transformed == nullptr) {
            add(res, cfg, "meta-disarmed", "status",
                r.status.ok() ? "no transformed program"
                              : r.status.toString());
        } else if (it != baselines.end()) {
            const BaselineRun &b = it->second;
            if (ir::toString(*r.transformed) != b.transformedText ||
                r.test.cycles != b.cycles || r.codeBytes != b.codeBytes ||
                r.test.output != b.output)
                add(res, cfg, "meta-disarmed", "",
                    "disarmed fault injection perturbed the run");
        }
    }
    return res;
}

OracleResult
checkSpec(const GenSpec &spec, const OracleOptions &opts)
{
    return checkWorkload(generate(spec), opts);
}

} // namespace pathsched::gen
