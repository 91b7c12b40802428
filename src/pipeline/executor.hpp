/**
 * @file
 * A parallel-for over independent runs.
 *
 * A pipeline run handles one procedure at a time on its calling thread;
 * parallelism lives between runs.  Any number of runBackend() calls on
 * any threads may share one PreparedWorkload, and parallelFor runs such
 * coarse, independent bodies (bench_executor's sweep gives each
 * (workload, config) run one index).
 *
 * Determinism contract: bodies must write only index-owned state, so
 * the results are identical for every thread count.  With threads <= 1
 * the loop runs inline on the calling thread in index order.  Workers
 * simply claim the next index from one atomic counter.
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
