#include "pipeline/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pathsched::pipeline {

void
parallelFor(unsigned threads, size_t n,
            const std::function<void(size_t)> &body)
{
    if (threads <= 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    std::atomic<size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr error;
    auto worker = [&] {
        for (size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(error_mu);
                if (!error)
                    error = std::current_exception();
                next.store(n); // hand out no further indices
            }
        }
    };
    {
        // The caller is one of the workers; jthreads join on scope exit,
        // also when spawning one of them throws.
        std::vector<std::jthread> pool;
        const size_t helpers = std::min<size_t>(threads, n) - 1;
        pool.reserve(helpers);
        for (size_t w = 0; w < helpers; ++w)
            pool.emplace_back(worker);
        worker();
    }
    if (error)
        std::rethrow_exception(error);
}

unsigned
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

} // namespace pathsched::pipeline
