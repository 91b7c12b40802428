/**
 * @file
 * The benchmark's traced replay of one pipeline run.
 *
 * replayPipeline() re-drives a (program, backend) pair through the same
 * public layer entry points runPipeline() calls — training run, path
 * finalization, the backend's transform, compaction, register
 * allocation, postschedule, IR verification, placement and the test and
 * reference runs — with a span around every call.  It mirrors
 * runPipeline() for a single-threaded, uncached, unbudgeted run with no
 * external profiles; main.cpp checks that it reproduces the pipeline's
 * cycles, code bytes and output exactly, so the per-layer times below
 * describe the program the end-to-end numbers measure.
 */

#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "interp/interpreter.hpp"
#include "ir/procedure.hpp"
#include "pipeline/backend.hpp"
#include "pipeline/pipeline.hpp"

namespace perfbench {

/** One closed span: a call into a layer, or a whole replayed run. */
struct Span
{
    const char *name = "";
    int64_t startNs = 0; ///< since the tracer's epoch
    int64_t endNs = 0;
    int32_t parent = -1; ///< index of the enclosing span, -1 for a root
    uint32_t run = 0;    ///< replayed run the span belongs to
};

/** In-memory span recorder; spans are written out once, at the end. */
class Tracer
{
  public:
    /** RAII span: opens on construction, closes and adds its duration
     *  in ms to @p acc on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, double *acc);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int32_t id_;
        double *acc_;
    };

    Tracer() : epoch_(std::chrono::steady_clock::now()) {}

    /** Run id stamped on the spans opened from now on. */
    void setRun(uint32_t run) { run_ = run; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as a JSON array; false on an I/O error. */
    bool write(const std::string &path) const;

  private:
    int64_t nowNs() const;

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int32_t> open_;
    uint32_t run_ = 0;
};

/** Per-layer totals, accumulated over every replayed run of a pass. */
struct LayerTotals
{
    /** @name Time in the layer's calls, ms @{ */
    double verifyMs = 0;       ///< ir::verifyStatus + verifyProcStatus
    double trainMs = 0;        ///< training runs without listeners
    double trainProfiledMs = 0;///< training runs with the profilers
    double trainBareOfProfiledMs = 0; ///< bare runs of profiled pairs
    double finalizeMs = 0;     ///< PathProfiler::finalize
    double formMs = 0;         ///< BackendDesc::transform
    double compactMs = 0;      ///< sched::compactProcedure
    double regallocMs = 0;     ///< recursion scan + allocation + rebase
    double postschedMs = 0;    ///< sched::scheduleProcedure
    double layoutMs = 0;       ///< Pettis-Hansen order + layoutProgram
    double testMs = 0;         ///< measured run of the scheduled code
    double refMs = 0;          ///< reference run of the original
    double replayMs = 0;       ///< whole replayed runs (root spans)
    /** @} */

    /** @name Work done (deterministic counts) @{ */
    uint64_t trainOps = 0, testOps = 0, refOps = 0;
    uint64_t paths = 0, pathSteps = 0;
    uint64_t superblocks = 0, blocksDuplicated = 0, instrsOut = 0;
    uint64_t sbEntries = 0, sbCompletions = 0;
    uint64_t instrsIn = 0; ///< instructions entering the postschedule
    uint64_t spilled = 0, procsSkipped = 0, maxPressure = 0;
    uint64_t codeBytes = 0;
    uint64_t icacheAccesses = 0, icacheMisses = 0;
    /** @} */

    /** Largest heap growth across one profiled training run, bytes. */
    uint64_t profileGrowthBytes = 0;

    /** Sum of the spans that stand for work runPipeline itself does
     *  (everything but the extra bare training runs), ms. */
    double pipelineLayerMs() const;
};

/** What one replayed run produced. */
struct ReplayResult
{
    /** Non-OK when a stage failed; runPipeline would have degraded or
     *  stopped there, so the replay is not comparable. */
    pathsched::Status status;
    pathsched::interp::RunResult test;
    uint64_t codeBytes = 0;
};

/** Replay @p program under backend @p be, recording spans into @p tr
 *  and adding the layer totals into @p lt. */
ReplayResult replayPipeline(const pathsched::ir::Program &program,
                            const pathsched::interp::ProgramInput &train,
                            const pathsched::interp::ProgramInput &test,
                            const pathsched::pipeline::BackendDesc &be,
                            const pathsched::pipeline::PipelineOptions &opt,
                            Tracer &tr, LayerTotals &lt);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
