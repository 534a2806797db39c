// Piecewise-linear interpolation over sampled (x, y) curves.
//
// The tuner samples (data size, bandwidth) points offline (paper Sec. 4.2.1)
// and interpolates them at search time (Alg. 1, line 14). This is the shared
// curve type used for that purpose.
#ifndef SRC_UTIL_INTERP_H_
#define SRC_UTIL_INTERP_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace flo {

// A sampled curve y = f(x) with x strictly increasing. Queries outside the
// sampled range clamp to the boundary values (flat extrapolation), matching
// how a profiled bandwidth table is used in practice. The samples are
// immutable and shared: copying a curve (every PredictorSetup holds one)
// copies a handle, not the samples.
class Curve {
 public:
  Curve() = default;

  // `points` must be non-empty with strictly increasing x.
  explicit Curve(std::vector<std::pair<double, double>> points);

  // Linear interpolation at x; clamps outside the sampled range.
  double Eval(double x) const;

  // Monotone-query fast path: `*hint` caches the segment index of the last
  // hit so a caller walking x in increasing order (the tuner's latency
  // table precompute, PredictOverlapLatency's group sweep) resolves most
  // queries with one or two comparisons instead of a binary search. The
  // caller owns the cursor (initialize to 0); results are bit-identical to
  // Eval for any cursor value — a stale hint only costs the fallback
  // binary search.
  double Eval(double x, size_t* hint) const;

  const std::vector<std::pair<double, double>>& points() const;

  double min_x() const;
  double max_x() const;

 private:
  // Null for a default-constructed (empty) curve, else non-empty.
  std::shared_ptr<const std::vector<std::pair<double, double>>> points_;
};

}  // namespace flo

#endif  // SRC_UTIL_INTERP_H_
