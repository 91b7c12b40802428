#include "pipeline/backend.hpp"

#include <iterator>

#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "support/logging.hpp"

namespace pathsched::pipeline {

namespace {

/** The registry: the paper's five configurations (§4), one row each,
 *  indexed by SchedConfig. */
constexpr BackendDesc kBackends[] = {
    {SchedConfig::BB, "BB", "basic-block scheduling (Table 1 baseline)"},
    {SchedConfig::M4, "M4", "edge profile, mutual-most-likely, unroll 4",
     FormProfile::Edge, 4},
    {SchedConfig::M16, "M16", "edge profile, mutual-most-likely, unroll 16",
     FormProfile::Edge, 16},
    {SchedConfig::P4, "P4", "path profile, <= 4 superblock-loop heads",
     FormProfile::Path, 4, 4},
    {SchedConfig::P4e, "P4e", "P4, non-loop superblocks stop at any head",
     FormProfile::Path, 4, 4, true},
};

constexpr bool
indexedByConfig()
{
    for (size_t i = 0; i < std::size(kBackends); ++i) {
        if (size_t(kBackends[i].config) != i)
            return false;
    }
    return true;
}
static_assert(indexedByConfig(),
              "kBackends rows must follow SchedConfig order");

} // namespace

form::FormConfig
formConfigFor(const BackendDesc &be, const PipelineOptions &options)
{
    form::FormConfig fc;
    fc.completionThreshold = options.completionThreshold;
    fc.maxInstrs = options.maxInstrs;
    fc.enlarge = options.enlarge;
    fc.growUpward = options.growUpward;
    if (be.profile == FormProfile::Edge)
        fc.mode = form::ProfileMode::Edge;
    fc.unrollFactor = be.unrollFactor;
    fc.maxLoopHeads = be.maxLoopHeads;
    fc.nonLoopStopsAtAnyHead = be.nonLoopStopsAtAnyHead;
    return fc;
}

/** Superblock formation, with the projected-edge degradation cascade. */
Status
BackendDesc::transform(ir::Program &prog, ir::ProcId proc,
                       const TransformContext &ctx, TransformStats &stats,
                       const char **failedStage) const
{
    ps_assert_msg(hasTransform(), "backend %s has no transform stage",
                  name);
    form::FormConfig fc = formConfigFor(*this, *ctx.opt);
    if (ctx.useProjectedEdges) {
        // Degradation cascade for procedures whose path profile lost
        // windows to admission but still projects consistently: form
        // them edge-driven (M4-style) from the projection.
        fc.mode = form::ProfileMode::Edge;
        fc.unrollFactor = 4;
    }
    const obs::Observer form_obs = ctx.timed->withPrefix("form.");
    fc.observer = &form_obs;
    *failedStage = transformLabel;
    return ctx.useProjectedEdges
               ? form::formProcedure(prog, proc, ctx.projectedEdge,
                                     nullptr, fc, stats.form)
               : form::formProcedure(prog, proc, ctx.edge, ctx.path, fc,
                                     stats.form);
}

ProfileNeeds
needsOf(const BackendDesc &be)
{
    return {be.needsEdgeProfile(), be.needsPathProfile()};
}

ProfileNeeds
needsOf(const std::vector<const BackendDesc *> &backends)
{
    ProfileNeeds needs;
    for (const BackendDesc *be : backends)
        needs |= needsOf(*be);
    return needs;
}

const BackendDesc &
backendFor(SchedConfig config)
{
    const size_t i = size_t(config);
    if (i >= std::size(kBackends))
        panic("no backend for SchedConfig %d", int(config));
    return kBackends[i];
}

const BackendDesc *
findBackend(const std::string &name)
{
    for (const BackendDesc &d : kBackends) {
        if (name == d.name)
            return &d;
    }
    return nullptr;
}

const std::vector<const BackendDesc *> &
allBackends()
{
    static const std::vector<const BackendDesc *> list = [] {
        std::vector<const BackendDesc *> v;
        for (const BackendDesc &d : kBackends)
            v.push_back(&d);
        return v;
    }();
    return list;
}

std::string
backendNames(const char *sep)
{
    std::string s;
    for (const BackendDesc &d : kBackends) {
        if (!s.empty())
            s += sep;
        s += d.name;
    }
    return s;
}

const char *
configName(SchedConfig config)
{
    return backendFor(config).name;
}

} // namespace pathsched::pipeline
