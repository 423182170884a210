// sim_fleet: a real sim::ControlPlaneHarness -- one inline
// AllocatorService and 10k real EndpointAgents on sim::SimTransport --
// run to convergence in virtual time. No socket, no thread.
//
// A run converges several fleets, one per sub-seed of --seed, each from
// scratch. The benchmark regenerates the harness's flowlet arrivals
// (same generator, same seed derivation) to know each flowlet's start
// time and route: the rate each agent holds is read after every
// allocation period, and the settled rates are checked against
// core::solve_exact.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "common/ratecode.h"
#include "common/time.h"
#include "obs/trace.h"
#include "sim/control_plane_harness.h"
#include "workload/traffic_gen.h"

namespace perfbench {
namespace {

constexpr int kEndpoints = 10'000;
constexpr int kFlowsPerEndpoint = 2;
constexpr double kPassSeconds = 1.5;  // rough wall time of one fleet
// A flowlet has converged once its held rate stays within this share of
// its final rate (the paper's Fig 4 criterion).
constexpr double kConvergedBand = 0.10;

struct Arrival {
  std::int64_t start_us = 0;
  std::uint32_t key = 0;
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
};

// The harness's own arrival stream: wl::TrafficGenerator seeded with
// mix(seed, 0xf1071e75), keys 1..N in generation order, registered at
// connect_spread_us + start (control_plane_harness.cc).
std::vector<Arrival> regenerate(const ft::sim::HarnessConfig& cfg) {
  ft::wl::TrafficConfig tc;
  tc.num_hosts = cfg.num_endpoints;
  tc.host_link_bps = cfg.host_link_bps;
  tc.seed = mix_seed(cfg.seed, 0xf1071e75ULL);
  ft::wl::TrafficGenerator gen(tc);
  const std::size_t n = static_cast<std::size_t>(cfg.num_endpoints) *
                        static_cast<std::size_t>(cfg.flows_per_endpoint);
  std::vector<Arrival> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    const ft::wl::FlowletEvent ev = gen.next();
    out[k] = {cfg.connect_spread_us + ev.start / ft::kMicrosecond,
              static_cast<std::uint32_t>(k + 1),
              static_cast<std::uint16_t>(ev.src_host),
              static_cast<std::uint16_t>(ev.dst_host)};
  }
  return out;
}

ft::topo::ClosConfig clos_of(const ft::sim::HarnessConfig& cfg) {
  ft::topo::ClosConfig c;
  c.servers_per_rack = cfg.servers_per_rack;
  c.racks = (cfg.num_endpoints + cfg.servers_per_rack - 1) /
            cfg.servers_per_rack;
  c.spines = cfg.spines;
  c.host_link_bps = cfg.host_link_bps;
  c.fabric_link_bps = cfg.fabric_link_bps;
  return c;
}

struct Pass {
  double setup_s = 0.0;
  double run_s = 0.0;  // wall time inside the harness, set-up excluded
  ft::sim::ConvergeStats conv;
  std::vector<double> first_rate_us;  // per rated flowlet
  std::vector<double> converge_us;    // per rated flowlet, to kConvergedBand
  std::size_t rated = 0;              // flowlets rated by convergence
  ft::net::ServiceStats svc;
  ft::core::AllocatorStats alloc;
  ft::sim::SimTransportStats tr;
  std::vector<LiveFlow> live;  // filled when asked
  std::size_t inactive = 0;    // regenerated flowlets an agent lacks
};

// Steps the harness one allocation period at a time, reading every
// started flowlet's held rate code after each step, until the harness's
// own convergence rule holds (ControlPlaneHarness::run_to_convergence:
// every flowlet registered and rated, then max(stable_rounds,
// refresh_rounds + 1) periods without an organic update). Stepping from
// outside is what lets the benchmark see each flowlet's rate history;
// the trajectory is the one run_to_convergence produces.
Pass run_pass(const ft::sim::HarnessConfig& cfg,
              const std::vector<Arrival>& arrivals, bool collect,
              bool traced) {
  static SpanStat setup_span("bench.sim.harness_setup");
  static SpanStat step_span("bench.sim.run_for");
  Pass p;
  const double t0 = wall_s();
  std::unique_ptr<ft::sim::ControlPlaneHarness> h;
  {
    Span s(setup_span, traced);
    h = std::make_unique<ft::sim::ControlPlaneHarness>(cfg);
  }
  p.setup_s = wall_s() - t0;

  const std::size_t n = arrivals.size();
  std::vector<std::uint16_t> code(n, 0);
  // Per flowlet: (virtual us, rate code) at every change of the held code.
  std::vector<std::vector<std::pair<std::int64_t, std::uint16_t>>> hist(n);
  std::size_t started = 0;
  const auto organic = [&] {
    const ft::core::AllocatorStats a = h->allocator().stats();
    return a.updates_emitted - a.updates_refreshed;
  };
  const int need = std::max(cfg.stable_rounds, cfg.alloc.refresh_rounds + 1);
  std::uint64_t last = organic();
  int stable = 0;
  while (h->virtual_now_us() < cfg.max_virtual_us) {
    const double ts = wall_s();
    {
      Span s(step_span, traced);
      h->run_for(cfg.iteration_period_us);
    }
    p.run_s += wall_s() - ts;
    const std::int64_t now = h->virtual_now_us();
    while (started < n && arrivals[started].start_us <= now) ++started;
    for (std::size_t i = 0; i < started; ++i) {
      const Arrival& a = arrivals[i];
      const std::uint16_t c = h->agent(a.src).rate_code(a.key);
      if (c == code[i]) continue;
      code[i] = c;
      hist[i].emplace_back(now, c);
    }
    const std::uint64_t u = organic();
    const bool whole = h->flows_seen() == h->total_flows() &&
                       h->allocator().num_active_flowlets() == n;
    if (whole && u == last) {
      if (++stable >= need) {
        p.conv.converged = true;
        break;
      }
    } else {
      stable = 0;
    }
    last = u;
  }
  p.svc = h->service().stats();
  p.alloc = h->allocator().stats();
  p.tr = h->transport().stats();
  p.conv.rounds = p.svc.iterations;
  p.conv.updates_sent = p.svc.updates_sent;
  p.conv.virtual_us = h->virtual_now_us();
  p.conv.events_processed = h->transport().events().processed();
  p.conv.trajectory_hash = h->trajectory_hash();
  for (int i = 0; i < h->num_agents(); ++i) {
    p.conv.updates_received += h->agent(i).stats().updates_received;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = arrivals[i];
    ft::net::EndpointAgent& ag = h->agent(a.src);
    if (!ag.is_active(a.key)) ++p.inactive;
    if (collect) p.live.push_back({a.key, a.src, a.dst, ag.rate_bps(a.key)});
    if (hist[i].empty()) continue;
    ++p.rated;
    p.first_rate_us.push_back(
        static_cast<double>(hist[i].front().first - a.start_us));
    // Converged: the earliest change after which every held rate stays
    // within the band around the final one.
    const double fin = ft::decode_rate(code[i]);
    std::int64_t at = hist[i].back().first;
    for (auto it = hist[i].rbegin(); it != hist[i].rend(); ++it) {
      const double v = ft::decode_rate(it->second);
      if (std::abs(v - fin) > kConvergedBand * fin) break;
      at = it->first;
    }
    p.converge_us.push_back(static_cast<double>(at - a.start_us));
  }
  return p;
}

bool same_trajectory(const Pass& a, const Pass& b) {
  return a.conv.trajectory_hash == b.conv.trajectory_hash &&
         a.conv.virtual_us == b.conv.virtual_us &&
         a.conv.rounds == b.conv.rounds &&
         a.conv.updates_sent == b.conv.updates_sent &&
         a.conv.updates_received == b.conv.updates_received &&
         a.conv.events_processed == b.conv.events_processed &&
         a.converge_us == b.converge_us;
}

double pct(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] * (1 - frac) + v[i + 1] * frac : v[i];
}

}  // namespace

Report run_sim_fleet(const Options& o) {
  pin_this_thread(0);
  Report r;
  // A run converges `units` fleets, each from its own sub-seed, so the
  // modelled figures average over several traffic draws. A traced run
  // converges half as many untraced, then re-runs sub-seed 0 traced: it
  // must replay bit-identically, and the difference in wall time is the
  // tracing overhead.
  const int units =
      std::max(2, static_cast<int>(std::lround(o.seconds / kPassSeconds)));
  const int untraced = o.trace ? std::max(1, units / 2) : units;
  std::vector<ft::sim::HarnessConfig> cfgs;
  std::vector<std::vector<Arrival>> arrivals;
  std::vector<Pass> passes;
  for (int i = 0; i < untraced; ++i) {
    ft::sim::HarnessConfig cfg;
    cfg.num_endpoints = kEndpoints;
    cfg.flows_per_endpoint = kFlowsPerEndpoint;
    cfg.seed = mix_seed(o.seed, static_cast<std::uint64_t>(i));
    cfgs.push_back(cfg);
    arrivals.push_back(regenerate(cfg));
    passes.push_back(run_pass(cfg, arrivals.back(), i == 0, false));
  }
  const Pass& p = passes.front();

  // --- failures and checks ---
  std::vector<double> setup, first, conv, flowlets_per_s;
  double run_s = 0.0, updates = 0.0, flows = 0.0, virt_ms = 0.0;
  double rounds = 0.0, sent = 0.0, events = 0.0;
  std::uint64_t hash = 1469598103934665603ULL;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& q = passes[i];
    const std::size_t n = arrivals[i].size();
    r.attempted += n;
    r.failed += n - q.rated;
    r.check(q.conv.converged, "sim_fleet: harness did not converge");
    r.check(q.inactive == 0,
            "sim_fleet: regenerated flowlets missing from their agents");
    setup.push_back(q.setup_s);
    run_s += q.run_s;
    // Flowlets converged per wall second inside the harness.
    flowlets_per_s.push_back(static_cast<double>(n) / q.run_s);
    updates += static_cast<double>(q.conv.updates_received);
    flows += static_cast<double>(n);
    virt_ms += static_cast<double>(q.conv.virtual_us) / 1e3;
    rounds += static_cast<double>(q.conv.rounds);
    sent += static_cast<double>(q.conv.updates_sent);
    events += static_cast<double>(q.conv.events_processed);
    hash = (hash ^ q.conv.trajectory_hash) * 1099511628211ULL;
    first.insert(first.end(), q.first_rate_us.begin(), q.first_rate_us.end());
    conv.insert(conv.end(), q.converge_us.begin(), q.converge_us.end());
  }
  const ft::topo::ClosTopology clos(clos_of(cfgs.front()));
  report_exact(r, check_against_exact(clos, p.live));

  // --- end to end ---
  const double period = static_cast<double>(cfgs.front().iteration_period_us);
  const double c50 = pct(conv, 0.50), c99 = pct(conv, 0.99);
  r.e2e["setup_s"] = median(setup);
  r.e2e["flowlets_per_s"] = median(flowlets_per_s);
  r.e2e["update_msgs_per_flow"] = updates / flows;
  r.e2e["slowdown_p50"] = c50 / period;
  r.e2e["slowdown_p99"] = c99 / period;

  const double units_d = static_cast<double>(passes.size());
  r.note("fleets", units_d, "count");
  r.note("sim_wall_s", run_s / units_d, "s");
  r.note("converge_virtual_ms", virt_ms / units_d, "ms");
  r.note("update_msgs_per_endpoint", sent / (units_d * kEndpoints), "msg");
  r.note("flow_converge_p50_virtual_us", c50, "us");
  r.note("flow_converge_p99_virtual_us", c99, "us");
  r.note("first_rate_p50_virtual_us", pct(first, 0.50), "us");
  r.note("first_rate_p99_virtual_us", pct(first, 0.99), "us");
  r.note("rated_flows", static_cast<double>(conv.size()), "flows");
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  r.info.emplace_back("trajectory_hash", hex);
  r.det["converge_virtual_ms"] = virt_ms / units_d;
  r.det["rounds"] = rounds;
  r.det["updates_sent"] = sent;
  r.det["events"] = events;
  r.det["update_msgs_per_flow"] = r.e2e["update_msgs_per_flow"];
  r.det["slowdown_p50"] = r.e2e["slowdown_p50"];
  r.det["slowdown_p99"] = r.e2e["slowdown_p99"];
  r.det["trajectory_hash_lo32"] = static_cast<double>(hash & 0xffffffffULL);

  if (!o.trace) return r;
  // --- per-layer ledger, from the traced re-run of sub-seed 0 ---
  ft::obs::PhaseTracer::set_enabled(true);
  const Pass t = run_pass(cfgs.front(), arrivals.front(), false, true);
  ft::obs::PhaseTracer::set_enabled(false);
  r.check(same_trajectory(p, t), "sim_fleet: same-seed passes diverged");
  const double ev = static_cast<double>(t.conv.events_processed);
  const double upd = static_cast<double>(t.conv.updates_received);
  r.layer["sim.events"] = ev;
  r.layer["sim.ns_per_event"] = 1e9 * t.run_s / ev;
  r.layer["sim.events_per_update"] = ev / upd;
  r.layer["sim.svc_recv_calls_per_update"] =
      static_cast<double>(t.svc.recv_calls) / upd;
  r.layer["sim.stream_bytes_per_update"] =
      static_cast<double>(t.tr.bytes_delivered) / upd;
  r.layer["sim.rounds_to_converge"] = static_cast<double>(t.conv.rounds);
  r.layer["sim.converge_virtual_ms"] =
      static_cast<double>(t.conv.virtual_us) / 1e3;
  r.layer["sim.refreshed_update_frac"] =
      static_cast<double>(t.alloc.updates_refreshed) /
      static_cast<double>(t.alloc.updates_emitted);
  const double msgs_in = static_cast<double>(
      t.svc.flowlet_starts + t.svc.flowlet_ends + t.svc.replayed_starts);
  const double out = static_cast<double>(t.svc.updates_sent);
  r.layer["net.svc.recv_calls_per_kmsg"] =
      1e3 * static_cast<double>(t.svc.recv_calls) / msgs_in;
  r.layer["net.svc.send_calls_per_kupdate"] =
      1e3 * static_cast<double>(t.svc.send_calls) / out;
  r.layer["net.svc.wire_bytes_per_update"] =
      static_cast<double>(t.svc.wire_bytes_out) / out;
  r.layer["core.updates_per_round"] =
      static_cast<double>(t.alloc.updates_emitted) /
      static_cast<double>(t.alloc.iterations);
  std::vector<Record> recs;
  for (const Arrival& a : arrivals.front()) {
    recs.push_back({true, a.key, a.src, a.dst});
  }
  replay_codec(recs, r);
  replay_round(clos, p.live, r);
  r.layer["bench.trace_overhead_pct"] = 100.0 * (t.run_s - p.run_s) / p.run_s;
  r.note("untraced_sim_wall_s", p.run_s, "s");
  r.note("traced_sim_wall_s", t.run_s, "s");
  return r;
}

}  // namespace perfbench
