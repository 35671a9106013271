#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/logging.hpp"
#include "common/strings.hpp"

namespace dlsr {
namespace {

/// The pool whose worker_loop owns the calling thread (nullptr off-pool).
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::on_pool_thread() const { return t_current_pool == this; }

void ThreadPool::worker_loop() {
  t_current_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    try {
      task();
    } catch (const std::exception& e) {
      log_error(std::string("thread pool task threw: ") + e.what());
    } catch (...) {
      log_error("thread pool task threw a non-std exception");
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

namespace {

/// Worker count for the global pool: DLSR_THREADS when set and valid,
/// otherwise hardware concurrency (via the ThreadPool(0) default).
std::size_t global_pool_threads() {
  const char* env = std::getenv("DLSR_THREADS");
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  constexpr long kMaxThreads = 1024;
  if (end == env || *end != '\0' || parsed < 1 || parsed > kMaxThreads) {
    log_warn(strfmt("ignoring invalid DLSR_THREADS=\"%s\" (want 1..%ld)", env,
                    kMaxThreads));
    return 0;
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(global_pool_threads());
  // One-time startup note so every run records the compute parallelism.
  static const bool logged = [] {
    log_info(strfmt("thread pool: %zu worker(s)%s", pool.thread_count(),
                    std::getenv("DLSR_THREADS") != nullptr
                        ? " (from DLSR_THREADS)"
                        : ""));
    return true;
  }();
  (void)logged;
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  if (begin >= end) {
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t workers = pool.thread_count();
  // Nested fork-join guard: a worker that blocked here would hold its slot
  // while its chunks wait in the queue behind other blocked workers.
  if (workers <= 1 || n == 1 || pool.on_pool_thread()) {
    for (std::size_t i = begin; i < end; ++i) {
      body(i);
    }
    return;
  }
  // Static block partition: one contiguous chunk per worker keeps each
  // worker's writes on distinct cache lines for the common NCHW layouts.
  const std::size_t chunks = std::min(workers, n);
  const std::size_t base = n / chunks;
  const std::size_t rem = n % chunks;
  // `done` is guarded by `m`: the caller may return and destroy `m` and
  // `cv` as soon as it sees the last increment, so that increment and the
  // notify must both happen under the lock, after which a worker touches
  // neither again.
  std::size_t done = 0;
  std::mutex m;
  std::condition_variable cv;
  std::exception_ptr first_error;
  std::size_t lo = begin;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < rem ? 1 : 0);
    const std::size_t hi = lo + len;
    pool.submit([&, lo, hi] {
      // The chunk counter must advance even when body() throws, or the
      // calling thread would wait forever; the first exception is kept and
      // rethrown by the caller below.
      try {
        for (std::size_t i = lo; i < hi; ++i) {
          body(i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(m);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
      const std::lock_guard<std::mutex> lock(m);
      if (++done == chunks) {
        cv.notify_one();
      }
    });
    lo = hi;
  }
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done == chunks; });
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  parallel_for(ThreadPool::global(), begin, end, body);
}

}  // namespace dlsr
