/**
 * @file
 * Per-procedure parallel-for for the pipeline's transform stages.
 *
 * The paper schedules one procedure at a time (§3), and every
 * per-procedure stage (form, compact, regalloc, postschedule, verify)
 * is independent across procedures; only the stage order *within* one
 * procedure matters.  runBackend therefore runs one parallelFor over
 * procedure ids, whose body is that procedure's whole stage chain, so
 * a chain runs back to back on one worker.
 *
 * Determinism contract: bodies must write only index-owned state (the
 * pipeline gives each procedure its own stats/context and merges them
 * in procedure-id order at the join), so the *results* are identical
 * for every thread count.  With threads <= 1 the loop runs inline on
 * the calling thread in index order, which makes "serial" the
 * procedure-id chain order.
 *
 * Bodies are coarse (a whole chain of passes over one procedure), so
 * workers simply claim the next index from one atomic counter.
 */

#ifndef PATHSCHED_PIPELINE_EXECUTOR_HPP
#define PATHSCHED_PIPELINE_EXECUTOR_HPP

#include <cstddef>
#include <functional>

namespace pathsched::pipeline {

/**
 * Run @p body(i) exactly once for every i in [0, n), on up to
 * @p threads workers (the calling thread among them), and return once
 * all calls have finished.  threads <= 1 runs inline on the calling
 * thread in index order.  If a call throws, no further indices start
 * and the first exception is rethrown to the caller after every worker
 * has stopped.
 */
void parallelFor(unsigned threads, size_t n,
                 const std::function<void(size_t)> &body);

/** std::thread::hardware_concurrency(), clamped to >= 1. */
unsigned hardwareThreads();

} // namespace pathsched::pipeline

#endif // PATHSCHED_PIPELINE_EXECUTOR_HPP
