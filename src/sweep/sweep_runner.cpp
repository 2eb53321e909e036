#include "sweep/sweep_runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dynaq::sweep {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since).count();
}

double thread_cpu_ms() {
#ifdef RUSAGE_THREAD
  rusage r{};
  if (getrusage(RUSAGE_THREAD, &r) == 0) {
    const auto tv_ms = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
    };
    return tv_ms(r.ru_utime) + tv_ms(r.ru_stime);
  }
#endif
  return 0.0;
}

std::int64_t process_max_rss_kb() {
  rusage r{};
  if (getrusage(RUSAGE_SELF, &r) != 0) return 0;
  return static_cast<std::int64_t>(r.ru_maxrss);
}

// Result of one attempt, shared with the (possibly abandoned) attempt
// thread. The shared_ptr keeps it alive past a timeout so a straggler can
// still write into it harmlessly; `done` is owned by the mutex/cv pair.
struct AttemptState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  JobResult result;
  bool ok = false;
  std::string error;
  double cpu_ms = 0.0;
};

void execute_attempt(const JobFn& fn, const JobPoint& point, AttemptState& state) {
  const double cpu0 = thread_cpu_ms();
  JobResult result;
  bool ok = false;
  std::string error;
  try {
    result = fn(point);
    ok = true;
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "non-standard exception";
  }
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.result = std::move(result);
    state.ok = ok;
    state.error = std::move(error);
    state.cpu_ms = thread_cpu_ms() - cpu0;
    state.done = true;
  }
  state.cv.notify_one();
}

}  // namespace

int SweepRunner::effective_jobs() const {
  if (options_.jobs > 0) return options_.jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ResultStore SweepRunner::run(std::string sweep_name, const SweepSpec& spec,
                             const JobFn& fn) const {
  const auto sweep_start = Clock::now();
  const std::vector<JobPoint> points = spec.expand();
  std::vector<JobOutcome> outcomes(points.size());

  std::mutex stragglers_mu;
  std::vector<std::thread> stragglers;  // timed-out attempt threads

  // One attempt at `point`: inline on the worker when no timeout is
  // configured; otherwise on its own thread so the worker can give up
  // waiting and move on.
  const double timeout_s = options_.timeout_s;
  const auto run_attempt = [&](const JobPoint& point, JobOutcome& out) {
    const auto t0 = Clock::now();
    auto state = std::make_shared<AttemptState>();
    if (timeout_s <= 0.0) {
      execute_attempt(fn, point, *state);
    } else {
      std::thread attempt([state, &fn, &point] { execute_attempt(fn, point, *state); });
      std::unique_lock<std::mutex> lock(state->mu);
      const bool finished = state->cv.wait_for(
          lock, std::chrono::duration<double>(timeout_s), [&] { return state->done; });
      lock.unlock();
      if (finished) {
        attempt.join();
      } else {
        out.timed_out = true;
        out.ok = false;
        out.error = "timed out after " + std::to_string(timeout_s) + " s";
        out.wall_ms = elapsed_ms(t0);
        std::lock_guard<std::mutex> guard(stragglers_mu);
        stragglers.push_back(std::move(attempt));
        return;
      }
    }
    out.timed_out = false;
    out.ok = state->ok;
    out.metrics = std::move(state->result.metrics);
    out.telemetry = std::move(state->result.telemetry);
    out.trajectory_hash = state->result.trajectory_hash;
    out.error = std::move(state->error);
    out.cpu_ms = state->cpu_ms;
    out.wall_ms = elapsed_ms(t0);
  };

  const auto run_job = [&](std::size_t job_id) {
    JobOutcome& out = outcomes[job_id];
    out.point = points[job_id];
    const int max_attempts = options_.retry_failed_once ? 2 : 1;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      out.attempts = attempt;
      run_attempt(points[job_id], out);
      if (out.ok) break;
    }
  };

  const int workers = std::min<int>(effective_jobs(), static_cast<int>(points.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < points.size(); ++i) run_job(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= points.size()) return;
          run_job(i);
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  // Abandoned attempts still reference fn/points; they must finish before
  // anything they capture goes out of scope.
  for (auto& t : stragglers) t.join();

  ResultStore store(std::move(sweep_name), spec);
  store.set_outcomes(std::move(outcomes));
  store.set_run_info(workers, elapsed_ms(sweep_start), process_max_rss_kb());
  return store;
}

}  // namespace dynaq::sweep
