#include "netsim/service_sim.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "analysis/audit.hpp"
#include "channel/link_budget.hpp"
#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace uavcov::netsim {

namespace {

/// Service-loop metrics (docs/OBSERVABILITY.md): one tick = one scheduler
/// slot across every UAV.  tests/netsim_test.cpp asserts ticks == the
/// simulated slot count and that tick latencies land in the histogram.
struct NetsimMetrics {
  obs::Counter runs = obs::counter("netsim.runs");
  obs::Counter ticks = obs::counter("netsim.ticks");
  obs::Histogram tick_seconds = obs::histogram("netsim.tick_seconds");
};

const NetsimMetrics& netsim_metrics() {
  static const NetsimMetrics metrics;
  return metrics;
}

struct Packet {
  std::int32_t flow = -1;   ///< index into the attached-user flow table.
  double arrival_s = 0.0;
  double remaining_bits = 0.0;
};

struct Flow {
  UserId user = UserId::invalid();
  std::int32_t deployment = -1;
  double link_rate_bps = 0.0;
  double arrival_credit = 0.0;   ///< fractional packets accumulated.
  double delivered_bits = 0.0;
  double delay_sum_s = 0.0;
  std::int64_t delivered = 0;
  std::int64_t dropped = 0;
};

/// Per-UAV scheduler state: a shared server FIFO feeding per-flow air
/// queues drained round-robin.
struct UavState {
  std::vector<std::int32_t> flows;       // flow indices attached here
  std::deque<Packet> server_queue;
  double server_credit = 0.0;            // fractional packets processable
  std::vector<std::deque<Packet>> air;   // parallel to `flows`
  std::size_t rr_cursor = 0;
  std::int64_t busy_slots = 0;
  std::int64_t processed_pkts = 0;
};

constexpr std::size_t kServerQueueCap = 4096;

/// num / den with a zero-duration / zero-slot guard: an empty observation
/// window has zero throughput and utilization, not NaN.  The fault_drill
/// example legitimately produces zero-length phases when two faults
/// coincide.
double safe_div(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

std::int32_t sustainable_users(const ServiceSimConfig& config) {
  UAVCOV_CHECK_MSG(config.offered_load_bps > 0 && config.packet_bits > 0 &&
                       config.server_pkts_per_s > 0,
                   "invalid service-sim config");
  const double per_user_pkts_s = config.offered_load_bps / config.packet_bits;
  return static_cast<std::int32_t>(
      std::floor(config.server_pkts_per_s / per_user_pkts_s));
}

ServiceSimResult simulate_service(const Scenario& scenario,
                                  const Solution& solution,
                                  const ServiceSimConfig& config) {
  UAVCOV_CHECK_MSG(config.duration_s >= 0 && config.slot_s > 0,
                   "invalid simulation horizon");
  if (analysis::audit_env_enabled()) {
    // Simulating an infeasible assignment silently produces garbage
    // throughput numbers; under UAVCOV_AUDIT refuse loudly instead.
    const CoverageModel audit_coverage(scenario);
    analysis::AuditReport report =
        analysis::audit_solution(scenario, audit_coverage, solution);
    report.subject = "netsim.simulate_service";
    analysis::require_clean(report);
  }
  UAVCOV_CHECK_MSG(config.packet_bits > 0 && config.offered_load_bps > 0 &&
                       config.server_pkts_per_s > 0,
                   "invalid traffic model");
  UAVCOV_CHECK_MSG(
      solution.user_to_deployment.size() == scenario.users.size(),
      "solution does not match scenario");

  // Build flows (one per served user) and per-UAV state.
  std::vector<Flow> flows;
  std::vector<UavState> uavs(solution.deployments.size());
  for (const UserId u : scenario.user_ids()) {
    const std::int32_t d = solution.user_to_deployment[u];
    if (d < 0) continue;
    const Deployment& dep = solution.deployments[static_cast<std::size_t>(d)];
    const UavSpec& spec = scenario.fleet[dep.uav];
    Flow flow;
    flow.user = u;
    flow.deployment = d;
    flow.link_rate_bps = a2g_rate_bps(
        scenario.channel, spec.radio, scenario.receiver,
        distance(scenario.users[u].pos, scenario.grid.center(dep.loc)),
        scenario.altitude_m);
    UAVCOV_CHECK_MSG(flow.link_rate_bps > 0, "served user with zero rate");
    uavs[static_cast<std::size_t>(d)].flows.push_back(
        static_cast<std::int32_t>(flows.size()));
    flows.push_back(flow);
  }
  for (UavState& s : uavs) {
    s.air.resize(s.flows.size());
    // Stagger flow phases (golden-ratio sequence) so packet arrivals are
    // spread over time instead of bursting in lockstep — constant-bit-rate
    // sources in the field are never phase-aligned.
    for (std::size_t fi = 0; fi < s.flows.size(); ++fi) {
      const double phase = std::fmod(0.6180339887498949 *
                                         static_cast<double>(fi + 1),
                                     1.0);
      flows[static_cast<std::size_t>(s.flows[fi])].arrival_credit = phase;
    }
  }

  const auto slots =
      static_cast<std::int64_t>(std::ceil(config.duration_s / config.slot_s));
  const double pkts_per_slot_per_user =
      config.offered_load_bps * config.slot_s / config.packet_bits;
  const double server_pkts_per_slot =
      config.server_pkts_per_s * config.slot_s;

  netsim_metrics().runs.inc();
  std::vector<double> delays;
  for (std::int64_t t = 0; t < slots; ++t) {
    netsim_metrics().ticks.inc();
    const obs::ScopedTimer tick_timer(netsim_metrics().tick_seconds);
    const double now = static_cast<double>(t) * config.slot_s;
    for (std::size_t d = 0; d < uavs.size(); ++d) {
      UavState& uav = uavs[d];
      if (uav.flows.empty()) continue;

      // 1. Arrivals: each flow accrues fractional packets.
      for (std::size_t fi = 0; fi < uav.flows.size(); ++fi) {
        Flow& flow = flows[static_cast<std::size_t>(uav.flows[fi])];
        flow.arrival_credit += pkts_per_slot_per_user;
        while (flow.arrival_credit >= 1.0) {
          flow.arrival_credit -= 1.0;
          if (uav.server_queue.size() >= kServerQueueCap) {
            ++flow.dropped;  // on-board server overloaded
            continue;
          }
          uav.server_queue.push_back(
              {static_cast<std::int32_t>(fi), now, config.packet_bits});
        }
      }

      // 2. On-board server: control/data-plane processing at a fixed
      //    packet rate (the SkyCore bottleneck).
      uav.server_credit += server_pkts_per_slot;
      while (uav.server_credit >= 1.0 && !uav.server_queue.empty()) {
        uav.server_credit -= 1.0;
        ++uav.processed_pkts;
        Packet pkt = uav.server_queue.front();
        uav.server_queue.pop_front();
        uav.air[static_cast<std::size_t>(pkt.flow)].push_back(pkt);
      }
      if (uav.server_queue.empty() && uav.server_credit > 1.0) {
        uav.server_credit = 1.0;  // idle server does not bank work
      }

      // 3. Air interface: round-robin one flow per slot (OFDMA TTI).
      bool transmitted = false;
      for (std::size_t step = 0; step < uav.flows.size(); ++step) {
        const std::size_t fi =
            (uav.rr_cursor + step) % uav.flows.size();
        auto& queue = uav.air[fi];
        if (queue.empty()) continue;
        Flow& flow = flows[static_cast<std::size_t>(uav.flows[fi])];
        Packet& pkt = queue.front();
        const double bits = flow.link_rate_bps * config.slot_s;
        pkt.remaining_bits -= bits;
        flow.delivered_bits += std::min(bits, pkt.remaining_bits + bits);
        if (pkt.remaining_bits <= 0) {
          const double delay = now + config.slot_s - pkt.arrival_s;
          flow.delay_sum_s += delay;
          ++flow.delivered;
          delays.push_back(delay);
          queue.pop_front();
        }
        uav.rr_cursor = (fi + 1) % uav.flows.size();
        transmitted = true;
        break;
      }
      if (transmitted) ++uav.busy_slots;
    }
  }

  // Collect statistics.
  ServiceSimResult result;
  double total_bits = 0.0, total_delay = 0.0;
  std::int64_t total_delivered = 0;
  for (const Flow& flow : flows) {
    UserServiceStats stats;
    stats.user = flow.user;
    stats.mean_throughput_bps = safe_div(flow.delivered_bits,
                                         config.duration_s);
    stats.mean_delay_s =
        flow.delivered > 0
            ? flow.delay_sum_s / static_cast<double>(flow.delivered)
            : config.duration_s;  // nothing arrived: saturated
    stats.packets_delivered = flow.delivered;
    stats.packets_dropped = flow.dropped;
    result.users.push_back(stats);
    total_bits += flow.delivered_bits;
    total_delay += stats.mean_delay_s;
    total_delivered += flow.delivered;
  }
  (void)total_delivered;
  for (std::size_t d = 0; d < uavs.size(); ++d) {
    const UavState& uav = uavs[d];
    UavServiceStats stats;
    stats.deployment = static_cast<std::int32_t>(d);
    stats.attached_users = static_cast<std::int32_t>(uav.flows.size());
    stats.airtime_utilization = safe_div(
        static_cast<double>(uav.busy_slots), static_cast<double>(slots));
    stats.server_utilization =
        safe_div(static_cast<double>(uav.processed_pkts),
                 config.server_pkts_per_s * config.duration_s);
    double delay_sum = 0.0;
    for (std::int32_t fi : uav.flows) {
      const Flow& flow = flows[static_cast<std::size_t>(fi)];
      delay_sum += flow.delivered > 0 ? flow.delay_sum_s /
                                            static_cast<double>(flow.delivered)
                                      : config.duration_s;
    }
    stats.mean_delay_s =
        uav.flows.empty() ? 0.0
                          : delay_sum / static_cast<double>(uav.flows.size());
    result.uavs.push_back(stats);
  }
  result.network_throughput_bps = safe_div(total_bits, config.duration_s);
  result.mean_delay_s =
      result.users.empty()
          ? 0.0
          : total_delay / static_cast<double>(result.users.size());
  if (!delays.empty()) {
    std::sort(delays.begin(), delays.end());
    result.p95_delay_s =
        delays[static_cast<std::size_t>(0.95 * (delays.size() - 1))];
  }
  return result;
}

}  // namespace uavcov::netsim
