#include "src/util/interp.h"

#include <algorithm>

#include "src/util/check.h"

namespace flo {

Curve::Curve(std::vector<std::pair<double, double>> points) {
  FLO_CHECK(!points.empty()) << "a curve needs at least one sample";
  for (size_t i = 1; i < points.size(); ++i) {
    FLO_CHECK_LT(points[i - 1].first, points[i].first) << "curve x must be strictly increasing";
  }
  points_ = std::make_shared<const std::vector<std::pair<double, double>>>(std::move(points));
}

const std::vector<std::pair<double, double>>& Curve::points() const {
  FLO_CHECK(points_ != nullptr);
  return *points_;
}

double Curve::Eval(double x) const {
  const std::vector<std::pair<double, double>>& samples = points();
  if (x <= samples.front().first) {
    return samples.front().second;
  }
  if (x >= samples.back().first) {
    return samples.back().second;
  }
  // First sample with x_i >= x; the predecessor exists because of the
  // boundary checks above.
  auto it = std::lower_bound(samples.begin(), samples.end(), x,
                             [](const std::pair<double, double>& p, double v) {
                               return p.first < v;
                             });
  auto prev = it - 1;
  const double t = (x - prev->first) / (it->first - prev->first);
  return prev->second + t * (it->second - prev->second);
}

double Curve::Eval(double x, size_t* hint) const {
  const std::vector<std::pair<double, double>>& samples = points();
  if (x <= samples.front().first) {
    return samples.front().second;
  }
  if (x >= samples.back().first) {
    return samples.back().second;
  }
  // Invariant for interior x: samples[i-1].x < x <= samples[i].x. Start
  // from the cached segment; a monotone caller lands on it within a few
  // steps, anything else (stale hint in either direction) falls back to
  // the binary search.
  size_t i = (hint != nullptr) ? *hint : 0;
  if (i < 1 || i >= samples.size()) {
    i = 1;
  }
  bool resolved = false;
  if (samples[i].first < x) {
    for (int step = 0; step < 4; ++step) {
      ++i;  // bounded: x < samples.back().x guarantees a stopper
      if (samples[i].first >= x) {
        resolved = true;
        break;
      }
    }
  } else {
    resolved = samples[i - 1].first < x;
  }
  if (!resolved) {
    auto it = std::lower_bound(samples.begin(), samples.end(), x,
                               [](const std::pair<double, double>& p, double v) {
                                 return p.first < v;
                               });
    i = static_cast<size_t>(it - samples.begin());
  }
  if (hint != nullptr) {
    *hint = i;
  }
  const std::pair<double, double>& prev = samples[i - 1];
  const std::pair<double, double>& next = samples[i];
  const double t = (x - prev.first) / (next.first - prev.first);
  return prev.second + t * (next.second - prev.second);
}

double Curve::min_x() const { return points().front().first; }

double Curve::max_x() const { return points().back().first; }

}  // namespace flo
