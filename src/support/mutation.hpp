/**
 * @file
 * Deliberate-bug ("mutation") switches for testing the test harness.
 *
 * The differential fuzzing oracle (gen/oracle.hpp) is only trustworthy
 * if a real scheduling bug would actually trip it.  This module lets a
 * test *plant* a known bug in a pass — a mutation — and assert that the
 * fuzz driver catches, classifies and reduces it.  Production runs
 * never arm mutations; the hook is a single armed-set lookup that is
 * false for every name unless PATHSCHED_MUTATION (a comma-separated
 * name list) was set in the environment at first query, or a test
 * armed one programmatically.
 *
 * Known mutation points (grep for mutationArmed to enumerate):
 *   compact-drop-memdep   depgraph.cpp drops store->load dependences in
 *                         multi-exit (superblock) blocks, so compaction
 *                         can hoist a load above an aliasing store.
 *                         Single-exit blocks are untouched, which keeps
 *                         the BB fallback correct: the bug surfaces as
 *                         a typed output-compare degradation, never a
 *                         panic.
 */

#ifndef PATHSCHED_SUPPORT_MUTATION_HPP
#define PATHSCHED_SUPPORT_MUTATION_HPP

#include <string>
#include <string_view>

namespace pathsched {

/** True when mutation @p name is armed (env or test).  Thread-safe. */
bool mutationArmed(std::string_view name);

/**
 * Arm exactly the mutations in @p csv (comma-separated; "" disarms
 * all), overriding the environment.  Test-only; not safe to call while
 * pipeline runs are in progress on other threads.
 */
void setMutationsForTest(const std::string &csv);

/** RAII arm/disarm for tests. */
class ScopedMutation
{
  public:
    explicit ScopedMutation(const std::string &csv)
    {
        setMutationsForTest(csv);
    }
    ~ScopedMutation() { setMutationsForTest(""); }
    ScopedMutation(const ScopedMutation &) = delete;
    ScopedMutation &operator=(const ScopedMutation &) = delete;
};

} // namespace pathsched

#endif // PATHSCHED_SUPPORT_MUTATION_HPP
