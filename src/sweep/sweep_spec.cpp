#include "sweep/sweep_spec.hpp"

#include <cstdio>
#include <stdexcept>

namespace dynaq::sweep {

Axis Axis::numeric(std::string name, const std::vector<double>& xs) {
  Axis axis{std::move(name), {}};
  axis.values.reserve(xs.size());
  for (const double x : xs) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%g", x);
    axis.values.push_back(AxisValue{buf, x, /*numeric=*/true});
  }
  return axis;
}

Axis Axis::labels(std::string name, std::vector<std::string> ls) {
  Axis axis{std::move(name), {}};
  axis.values.reserve(ls.size());
  for (auto& l : ls) axis.values.push_back(AxisValue{std::move(l), 0.0, /*numeric=*/false});
  return axis;
}

const AxisValue& JobPoint::at(const std::string& axis) const {
  for (const auto& [name, value] : coords) {
    if (name == axis) return value;
  }
  throw std::out_of_range("JobPoint: no axis named '" + axis + "'");
}

std::string JobPoint::name() const {
  std::string out;
  for (const auto& [axis, value] : coords) {
    if (!out.empty()) out += ' ';
    out += axis + '=' + value.label;
  }
  return out;
}

std::size_t SweepSpec::num_jobs() const {
  if (axes.empty()) return 0;
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

std::vector<JobPoint> SweepSpec::expand() const {
  if (axes.empty()) throw std::invalid_argument("SweepSpec: no axes");
  for (const auto& axis : axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("SweepSpec: axis '" + axis.name + "' has no values");
    }
  }

  std::vector<JobPoint> points;
  points.reserve(num_jobs());
  // Cartesian product, last axis fastest (odometer).
  std::vector<std::size_t> idx(axes.size(), 0);
  for (;;) {
    JobPoint p;
    p.job_id = points.size();
    for (std::size_t a = 0; a < axes.size(); ++a) {
      p.coords.emplace_back(axes[a].name, axes[a].values[idx[a]]);
    }
    points.push_back(std::move(p));
    std::size_t a = axes.size();
    while (a > 0) {
      --a;
      if (++idx[a] < axes[a].values.size()) break;
      idx[a] = 0;
      if (a == 0) return points;
    }
  }
}

}  // namespace dynaq::sweep
