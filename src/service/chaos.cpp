#include "service/chaos.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/fingerprint.hpp"
#include "common/rng.hpp"

namespace uavcov::service {

/// Attempts poisoned by the unrecoverable fault: the whole ladder
/// (max_attempts + 1 tries) of any policy with max_attempts < 64.
constexpr std::int32_t kUnrecoverableDepth = 64;

const char* to_string(ShardFaultKind kind) {
  switch (kind) {
    case ShardFaultKind::kSolverException: return "solver_exception";
    case ShardFaultKind::kDeadlineOverrun: return "deadline_overrun";
    case ShardFaultKind::kCorruptResult: return "corrupt_result";
    case ShardFaultKind::kFlake: return "flake";
  }
  return "unknown";
}

void ShardFaultPlan::validate(std::int32_t tile_count) const {
  TileId prev = TileId::invalid();
  for (const ShardFault& f : faults) {
    if (!f.tile.valid() || f.tile.value() >= tile_count) {
      throw std::invalid_argument("ShardFaultPlan: tile " +
                                  std::to_string(f.tile.value()) +
                                  " outside [0, " +
                                  std::to_string(tile_count) + ")");
    }
    if (f.attempts < 1) {
      throw std::invalid_argument(
          "ShardFaultPlan: attempts must be >= 1 (tile " +
          std::to_string(f.tile.value()) + ")");
    }
    if (prev.valid() && !(prev < f.tile)) {
      throw std::invalid_argument(
          "ShardFaultPlan: faults must be sorted by tile, one per tile "
          "(tile " + std::to_string(f.tile.value()) + ")");
    }
    prev = f.tile;
  }
}

const ShardFault* ShardFaultPlan::fault_for(TileId tile) const {
  const auto it = std::lower_bound(
      faults.begin(), faults.end(), tile,
      [](const ShardFault& f, TileId t) { return f.tile < t; });
  if (it == faults.end() || it->tile != tile) return nullptr;
  return &*it;
}

std::uint64_t ShardFaultPlan::fingerprint() const {
  Fnv1a h;
  h.mix(static_cast<std::int64_t>(faults.size()));
  for (const ShardFault& f : faults) {
    h.mix(f.tile.value())
        .mix(static_cast<std::int32_t>(f.kind))
        .mix(f.attempts);
  }
  return h.digest();
}

ShardFaultPlan make_shard_fault_plan(std::int32_t tile_count,
                                     const ShardFaultConfig& config,
                                     std::uint64_t seed) {
  if (tile_count < 1) {
    throw std::invalid_argument("make_shard_fault_plan: tile_count must be "
                                ">= 1");
  }
  if (config.faults < 0 || config.max_poison_depth < 1) {
    throw std::invalid_argument("make_shard_fault_plan: bad config");
  }
  Rng rng(seed);
  std::vector<std::int32_t> pool(static_cast<std::size_t>(tile_count));
  std::iota(pool.begin(), pool.end(), 0);
  rng.shuffle(pool);
  const std::int32_t n = std::min(config.faults, tile_count);

  ShardFaultPlan plan;
  plan.faults.reserve(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    ShardFault f;
    f.tile = TileId{pool[static_cast<std::size_t>(i)]};
    f.kind = static_cast<ShardFaultKind>(rng.uniform_int(0, 3));
    f.attempts = static_cast<std::int32_t>(
        rng.uniform_int(1, config.max_poison_depth));
    if (i == 0 && config.include_unrecoverable) {
      f.attempts = kUnrecoverableDepth;
    }
    plan.faults.push_back(f);
  }
  std::sort(plan.faults.begin(), plan.faults.end(),
            [](const ShardFault& a, const ShardFault& b) {
              return a.tile < b.tile;
            });
  return plan;
}

}  // namespace uavcov::service
