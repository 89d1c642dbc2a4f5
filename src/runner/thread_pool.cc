#include "runner/thread_pool.hh"

#include <algorithm>

namespace tdc {
namespace runner {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultConcurrency();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

unsigned
ThreadPool::defaultConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
ThreadPool::post(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tdc_assert(!stopping_, "submit() on a stopping ThreadPool");
        queue_.push_back(std::move(fn));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        // packaged_task captures exceptions into the future; anything
        // escaping here is a runner bug.
        task();
    }
}

unsigned
workerCount(unsigned requested, std::size_t n)
{
    unsigned workers =
        requested != 0 ? requested : ThreadPool::defaultConcurrency();
    if (n > 0 && workers > n)
        workers = static_cast<unsigned>(n);
    return std::max(workers, 1u);
}

void
parallelFor(std::size_t n, unsigned requested,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    ThreadPool pool(workerCount(requested, n));
    std::vector<std::future<void>> pending;
    pending.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        pending.push_back(pool.submit([&fn, i] { fn(i); }));
    // On a throw, ~ThreadPool still drains the queued calls before
    // the exception leaves this frame.
    for (auto &f : pending)
        f.get();
}

} // namespace runner
} // namespace tdc
