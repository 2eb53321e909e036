#include "sweep/sweep_runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
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

  const auto run_job = [&](std::size_t job_id) {
    JobOutcome& out = outcomes[job_id];
    out.point = points[job_id];
    const auto t0 = Clock::now();
    const double cpu0 = thread_cpu_ms();
    try {
      JobResult result = fn(out.point);
      out.metrics = std::move(result.metrics);
      out.telemetry = std::move(result.telemetry);
      out.trajectory_hash = result.trajectory_hash;
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "non-standard exception";
    }
    out.cpu_ms = thread_cpu_ms() - cpu0;
    out.wall_ms = elapsed_ms(t0);
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

  ResultStore store(std::move(sweep_name), spec);
  store.set_outcomes(std::move(outcomes));
  store.set_run_info(workers, elapsed_ms(sweep_start), process_max_rss_kb());
  return store;
}

}  // namespace dynaq::sweep
