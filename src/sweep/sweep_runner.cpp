#include "sweep/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace dynaq::sweep {

int SweepRunner::effective_jobs() const {
  if (options_.jobs > 0) return options_.jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ResultStore SweepRunner::run(std::string sweep_name, const SweepSpec& spec,
                             const JobFn& fn) const {
  const std::vector<JobPoint> points = spec.expand();
  std::vector<JobOutcome> outcomes(points.size());

  const auto run_job = [&](std::size_t job_id) {
    JobOutcome& out = outcomes[job_id];
    out.point = points[job_id];
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
  return store;
}

}  // namespace dynaq::sweep
