#include "workload/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/check.hpp"

namespace uavcov::workload {

namespace {
/// Flag values reach these, so a bad one is a configuration error.
void require_dimensions(std::int32_t n, double width, double height) {
  if (n < 0 || !(width > 0) || !(height > 0)) {
    throw std::invalid_argument("invalid workload dimensions (n = " +
                                std::to_string(n) + ")");
  }
}

Vec2 clamp_to_area(Vec2 p, double width, double height) {
  return {std::clamp(p.x, 0.0, width), std::clamp(p.y, 0.0, height)};
}

/// Sample an index from a normalized cumulative weight vector.
std::size_t sample_cdf(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.uniform01();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf.begin()),
                  cdf.size() - 1);
}
}  // namespace

std::vector<Vec2> fat_tailed_positions(std::int32_t n, double width,
                                       double height,
                                       const FatTailedConfig& config,
                                       Rng& rng) {
  require_dimensions(n, width, height);
  UAVCOV_CHECK_MSG(config.cluster_count >= 1, "need at least one cluster");
  UAVCOV_CHECK_MSG(
      config.background_fraction >= 0 && config.background_fraction <= 1,
      "background fraction must be in [0, 1]");

  // Cluster centers and Pareto-heavy weights.
  std::vector<Vec2> centers;
  std::vector<double> weights;
  centers.reserve(static_cast<std::size_t>(config.cluster_count));
  for (std::int32_t c = 0; c < config.cluster_count; ++c) {
    centers.push_back({rng.uniform(0, width), rng.uniform(0, height)});
    weights.push_back(rng.pareto(config.pareto_alpha, 1.0));
  }
  std::vector<double> cdf(weights.size());
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i] / total;
    cdf[i] = acc;
  }

  std::vector<Vec2> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    if (rng.chance(config.background_fraction)) {
      out.push_back({rng.uniform(0, width), rng.uniform(0, height)});
      continue;
    }
    const Vec2 center = centers[sample_cdf(cdf, rng)];
    const Vec2 p{center.x + rng.normal(0.0, config.cluster_sigma_m),
                 center.y + rng.normal(0.0, config.cluster_sigma_m)};
    out.push_back(clamp_to_area(p, width, height));
  }
  return out;
}

std::vector<Vec2> uniform_positions(std::int32_t n, double width,
                                    double height, Rng& rng) {
  require_dimensions(n, width, height);
  std::vector<Vec2> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    out.push_back({rng.uniform(0, width), rng.uniform(0, height)});
  }
  return out;
}

std::vector<Vec2> hotspot_positions(std::int32_t n, double width,
                                    double height,
                                    const std::vector<Hotspot>& hotspots,
                                    double background_fraction, Rng& rng) {
  UAVCOV_CHECK_MSG(!hotspots.empty(), "need at least one hotspot");
  UAVCOV_CHECK_MSG(background_fraction >= 0 && background_fraction <= 1,
                   "background fraction must be in [0, 1]");
  std::vector<double> cdf(hotspots.size());
  double total = 0.0;
  for (const Hotspot& h : hotspots) {
    UAVCOV_CHECK_MSG(h.weight > 0 && h.radius_m > 0, "invalid hotspot");
    total += h.weight;
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < hotspots.size(); ++i) {
    acc += hotspots[i].weight / total;
    cdf[i] = acc;
  }
  std::vector<Vec2> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    if (rng.chance(background_fraction)) {
      out.push_back({rng.uniform(0, width), rng.uniform(0, height)});
      continue;
    }
    const Hotspot& h = hotspots[sample_cdf(cdf, rng)];
    // Uniform in the disc: radius ~ sqrt(U), angle ~ U.
    const double r = h.radius_m * std::sqrt(rng.uniform01());
    const double phi = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
    out.push_back(clamp_to_area(
        {h.center.x + r * std::cos(phi), h.center.y + r * std::sin(phi)},
        width, height));
  }
  return out;
}

}  // namespace uavcov::workload
