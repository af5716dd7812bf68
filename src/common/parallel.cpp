#include "parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"

#ifdef __linux__
#include <fstream>
#include <pthread.h>
#include <sched.h>
#include <sstream>
#endif

namespace catsim
{

std::size_t
defaultJobs()
{
    if (const char *env = std::getenv("CATSIM_JOBS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

bool
numaPinEnabled()
{
    const char *env = std::getenv("CATSIM_NUMA_PIN");
    return env && std::string(env) == "1";
}

namespace
{

#ifdef __linux__

/** Parse a sysfs cpulist ("0-3,8,10-11") into CPU ids. */
std::vector<int>
parseCpuList(const std::string &list)
{
    std::vector<int> cpus;
    std::istringstream is(list);
    std::string tok;
    while (std::getline(is, tok, ',')) {
        const std::size_t dash = tok.find('-');
        try {
            if (dash == std::string::npos) {
                cpus.push_back(std::stoi(tok));
            } else {
                const int lo = std::stoi(tok.substr(0, dash));
                const int hi = std::stoi(tok.substr(dash + 1));
                for (int c = lo; c <= hi; ++c)
                    cpus.push_back(c);
            }
        } catch (...) {
            return {}; // unparsable sysfs: fall back to cpu round-robin
        }
    }
    return cpus;
}

/** CPUs of each online NUMA node; empty when sysfs is unreadable. */
const std::vector<std::vector<int>> &
numaNodeCpus()
{
    static const std::vector<std::vector<int>> nodes = [] {
        std::vector<std::vector<int>> out;
        for (int node = 0; node < 1024; ++node) {
            std::ifstream in("/sys/devices/system/node/node"
                             + std::to_string(node) + "/cpulist");
            if (!in)
                break;
            std::string list;
            std::getline(in, list);
            std::vector<int> cpus = parseCpuList(list);
            if (!cpus.empty())
                out.push_back(std::move(cpus));
        }
        return out;
    }();
    return nodes;
}

/**
 * Pin the calling worker round-robin across NUMA nodes (whole-node
 * affinity mask, so the OS still balances within the node); falls back
 * to plain CPU round-robin when node topology is unreadable.  Failures
 * are ignored - pinning is a performance hint, never correctness.
 */
void
pinWorkerRoundRobin(std::size_t worker)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const auto &nodes = numaNodeCpus();
    if (!nodes.empty()) {
        for (int c : nodes[worker % nodes.size()])
            CPU_SET(static_cast<unsigned>(c), &set);
    } else {
        const unsigned hw = std::thread::hardware_concurrency();
        if (hw == 0)
            return;
        CPU_SET(worker % hw, &set);
    }
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

#else

void
pinWorkerRoundRobin(std::size_t)
{
}

#endif

} // namespace

void
rethrowIndexed(std::exception_ptr err, const char *unit, std::size_t index)
{
    try {
        std::rethrow_exception(err);
    } catch (const std::exception &e) {
        throw std::runtime_error(std::string(unit) + " "
                                 + std::to_string(index) + ": " + e.what());
    }
    // Non-std exceptions carry no message to wrap; they propagate as-is.
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            std::size_t jobs)
{
    if (n == 0)
        return;
    // Dynamic index handout: cheap and balances uneven cells.  A
    // failed call poisons the grid so no worker picks up a new index
    // (the serial path's stop-at-first-throw).  The lowest failing
    // index wins regardless of which worker hit it, so the rethrown
    // message is stable across job counts whenever the set of failing
    // cells is.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex errMutex;
    std::size_t errIndex = n;
    std::exception_ptr errPtr;
    const auto drain = [&] {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
            if (failed.load(std::memory_order_relaxed))
                return;
            try {
                fault::maybeThrow("parallel_cell");
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMutex);
                if (!errPtr || i < errIndex) {
                    errPtr = std::current_exception();
                    errIndex = i;
                }
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    const std::size_t workers = std::min(jobs ? jobs : 1, n);
    if (workers == 1) {
        drain(); // inline, in index order, on the calling thread
    } else {
        const bool pin = numaPinEnabled();
        std::vector<std::thread> threads;
        threads.reserve(workers);
        try {
            for (std::size_t w = 0; w < workers; ++w) {
                threads.emplace_back([&drain, pin, w] {
                    if (pin)
                        pinWorkerRoundRobin(w);
                    drain();
                });
            }
        } catch (...) {
            // Thread creation failed: stop the workers already started
            // and join them before their captures go out of scope.
            failed.store(true, std::memory_order_relaxed);
            for (auto &t : threads)
                t.join();
            throw;
        }
        for (auto &t : threads)
            t.join();
    }
    if (errPtr)
        rethrowIndexed(errPtr, "cell", errIndex);
}

} // namespace catsim
