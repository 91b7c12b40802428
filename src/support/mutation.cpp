#include "support/mutation.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

namespace pathsched {

namespace {

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> names;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            names.push_back(item);
    return names;
}

using ArmedSet = std::vector<std::string>;

/**
 * Every armed set ever published, freed at exit.  A reader may still
 * hold the previous set after a swap, so retired sets stay alive until
 * the process ends; arming happens a handful of times per process.
 */
struct ArmedSetOwner
{
    std::mutex mu;
    std::vector<std::unique_ptr<const ArmedSet>> sets;
};

ArmedSetOwner &
owner()
{
    static ArmedSetOwner o;
    return o;
}

/** Armed set; the pointer is swapped atomically so mutationArmed can
 *  be called from pipeline worker threads without locking. */
std::atomic<const ArmedSet *> g_armed{nullptr};
std::once_flag g_env_once;

void
publish(ArmedSet names)
{
    ArmedSetOwner &o = owner();
    std::lock_guard<std::mutex> lock(o.mu);
    o.sets.push_back(std::make_unique<const ArmedSet>(std::move(names)));
    g_armed.store(o.sets.back().get(), std::memory_order_release);
}

void
loadFromEnv()
{
    const char *env = std::getenv("PATHSCHED_MUTATION");
    publish(env != nullptr ? splitCsv(env) : ArmedSet());
}

} // namespace

bool
mutationArmed(std::string_view name)
{
    std::call_once(g_env_once, loadFromEnv);
    const ArmedSet *set = g_armed.load(std::memory_order_acquire);
    for (const std::string &n : *set)
        if (n == name)
            return true;
    return false;
}

void
setMutationsForTest(const std::string &csv)
{
    std::call_once(g_env_once, loadFromEnv);
    publish(splitCsv(csv));
}

} // namespace pathsched
