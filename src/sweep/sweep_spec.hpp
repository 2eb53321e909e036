// Declarative experiment-sweep grids. A SweepSpec names a set of axes
// (scheme, load, seed, or any caller-defined dimension) and expands their
// cartesian product into an ordered list of JobPoints. Expansion order is
// fixed by the spec alone, so job ids (and everything keyed off them:
// results, aggregation, JSON) are independent of how many workers later
// execute the jobs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dynaq::sweep {

// One value along an axis: a display label plus, for numeric axes, the
// number itself (loads, seeds, weights...). Label-only axes (scheme names,
// config-mutator variants) leave `number` at 0 and `numeric` false.
struct AxisValue {
  std::string label;
  double number = 0.0;
  bool numeric = false;
};

struct Axis {
  std::string name;
  std::vector<AxisValue> values;

  // --loads=0.3,0.5 style numeric axes; labels render via "%g".
  static Axis numeric(std::string name, const std::vector<double>& xs);
  // Scheme names, variant tags, mutator ids.
  static Axis labels(std::string name, std::vector<std::string> ls);
};

// One grid point: the job id (its rank in expansion order) and the chosen
// value per axis, in axis declaration order.
struct JobPoint {
  std::size_t job_id = 0;
  std::vector<std::pair<std::string, AxisValue>> coords;

  const AxisValue& at(const std::string& axis) const;  // throws on unknown axis
  double number(const std::string& axis) const { return at(axis).number; }
  const std::string& label(const std::string& axis) const { return at(axis).label; }
  std::string name() const;  // "scheme=DynaQ load=0.5 seed=1"
};

struct SweepSpec {
  std::vector<Axis> axes;

  std::size_t num_jobs() const;
  // The cartesian product, last axis fastest (row-major, matching the
  // nesting order of the serial loops the sweep replaces). Throws on a spec
  // without axes or with an empty axis.
  std::vector<JobPoint> expand() const;
};

}  // namespace dynaq::sweep
