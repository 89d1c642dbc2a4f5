/**
 * @file
 * A fixed-size worker thread pool.
 *
 * Simulation design points are embarrassingly parallel -- each System
 * owns all of its state -- so the pool is deliberately simple: a
 * locked FIFO of type-erased tasks drained by N workers. submit()
 * returns a std::future so callers observe completion, returned
 * values and captured exceptions per task; the destructor drains the
 * queue and joins, so a ThreadPool going out of scope is a barrier.
 */

#ifndef TDC_RUNNER_THREAD_POOL_HH
#define TDC_RUNNER_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace tdc {
namespace runner {

class ThreadPool
{
  public:
    /** threads == 0 picks defaultConcurrency(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueues fn and returns a future for its result. An exception
     * escaping fn is captured and rethrown from future::get(); it
     * never takes down a worker.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> result = task->get_future();
        post([task] { (*task)(); });
        return result;
    }

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** hardware_concurrency(), but never 0. */
    static unsigned defaultConcurrency();

  private:
    void post(std::function<void()> fn);
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
};

/**
 * Worker threads for n tasks: `requested`, or defaultConcurrency()
 * when it is 0, clamped to [1, n].
 */
unsigned workerCount(unsigned requested, std::size_t n);

/**
 * Calls fn(i) for every i in [0, n) on workerCount(requested, n)
 * threads and returns once every call has finished. An exception
 * escaping fn is rethrown here (the first, in index order) after
 * the remaining calls have run.
 */
void parallelFor(std::size_t n, unsigned requested,
                 const std::function<void(std::size_t)> &fn);

} // namespace runner
} // namespace tdc

#endif // TDC_RUNNER_THREAD_POOL_HH
