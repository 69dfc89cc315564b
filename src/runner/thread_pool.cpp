#include "runner/thread_pool.hpp"

#include <cstdlib>

#include "common/flags.hpp"
#include "common/log.hpp"

namespace asd
{

unsigned
defaultThreadCount()
{
    if (const char *env = std::getenv("ASD_SWEEP_THREADS")) {
        if (const auto v = parseUnsigned<unsigned>(env, 1))
            return *v;
        warn("ignoring invalid ASD_SWEEP_THREADS \"" +
             std::string(env) + "\"");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(Task task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        panicIfNot(!stop_, "submit() on a stopped ThreadPool");
        queue_.push_back(std::move(task));
    }
    work_cv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock,
                  [this] { return queue_.empty() && active_ == 0; });
}

void
ThreadPool::workerLoop(unsigned index)
{
    while (true) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(
                lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to do
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        task(index);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
            if (queue_.empty() && active_ == 0)
                idle_cv_.notify_all();
        }
    }
}

} // namespace asd
