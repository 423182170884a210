// paper_web: transport::run_experiment with the Flowtune scheme, the Web
// flow-size mix and the paper's 9x16 Clos at high load -- the packet-level
// sim::Network plus the transport-layer allocator model.
//
// A run simulates a fixed number of experiments, one per sub-seed of
// --seed. Each is deterministic for its seed; its arrivals are
// regenerated with wl::TrafficGenerator to check the per-bucket flow
// counts.
#include <algorithm>
#include <array>
#include <cmath>

#include "bench.h"
#include "obs/trace.h"
#include "transport/experiment.h"
#include "workload/size_dist.h"
#include "workload/traffic_gen.h"

namespace perfbench {
namespace {

constexpr double kLoad = 0.8;
constexpr int kSetupsPerGap = 5;
constexpr double kExpSeconds = 7.5;  // rough wall time of one experiment

ft::transport::ExpConfig config(std::uint64_t seed) {
  ft::transport::ExpConfig c;  // paper topology: 9 racks x 16 hosts
  c.scheme = ft::transport::Scheme::kFlowtune;
  c.traffic.load = kLoad;
  c.traffic.workload = ft::wl::Workload::kWeb;
  c.traffic.seed = seed;
  // The repo's own warm-up (ExpConfig, bench_fig8). The fabric is still
  // filling with long Web flows then: README.md, "paper_web warm-up".
  c.warmup = 5 * ft::kMillisecond;
  c.duration = 4 * ft::kMillisecond;
  // Long enough that every measured flow finishes (checked below): at
  // 20 ms and a 2 ms warm-up, one experiment in four still had 1-3 flows
  // open.
  c.drain = 60 * ft::kMillisecond;
  return c;
}

bool same_result(const ft::transport::ExpResult& a,
                 const ft::transport::ExpResult& b) {
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    if (a.buckets[i].count != b.buckets[i].count ||
        a.buckets[i].p50_norm_fct != b.buckets[i].p50_norm_fct ||
        a.buckets[i].p99_norm_fct != b.buckets[i].p99_norm_fct) {
      return false;
    }
  }
  return a.flows_started == b.flows_started &&
         a.flows_completed == b.flows_completed &&
         a.goodput_gbps == b.goodput_gbps &&
         a.allocator_updates == b.allocator_updates &&
         a.p99_queue_2hop_us == b.p99_queue_2hop_us;
}

struct Regen {
  std::size_t measured = 0;           // flows started in the window
  double window_offered_gbps = 0.0;   // their bytes over the window
};

// Regenerates one experiment's arrivals and checks its outputs against
// them.
Regen check_experiment(const ft::transport::ExpConfig& cfg,
                       const ft::transport::ExpResult& x, Report& r) {
  ft::wl::TrafficConfig tc = cfg.traffic;
  tc.num_hosts = cfg.topo.num_hosts();
  tc.host_link_bps = cfg.topo.host_link_bps;
  ft::wl::TrafficGenerator gen(tc);
  const ft::Time end = cfg.warmup + cfg.duration;
  std::array<std::size_t, ft::wl::kNumSizeBuckets> want{};
  Regen g;
  std::size_t launched = 0;
  double offered_bytes = 0.0, window_bytes = 0.0;
  for (ft::wl::FlowletEvent ev = gen.next(); ev.start < end; ev = gen.next()) {
    ++launched;
    offered_bytes += static_cast<double>(ev.bytes);
    if (ev.start < cfg.warmup) continue;
    ++want[static_cast<std::size_t>(ft::wl::size_bucket(ev.bytes))];
    ++g.measured;
    window_bytes += static_cast<double>(ev.bytes);
  }
  r.check(x.flows_started == launched,
          "paper_web: launched flows differ from the regenerated arrivals");
  for (std::size_t b = 0; b < want.size(); ++b) {
    const auto& bk = x.buckets[b];
    r.check(bk.count == want[b] || x.flows_unfinished != 0,
            std::string("paper_web: flow count differs in bucket ") +
                ft::wl::size_bucket_name(static_cast<ft::wl::SizeBucket>(b)));
    r.check(bk.count == 0 || bk.p50_norm_fct >= 1.0,
            "paper_web: a bucket's p50 normalized FCT is below 1");
  }
  // Bytes acked in the window cannot exceed the bytes offered up to its
  // end.
  const double to_gbps = 8.0 / ft::to_sec(cfg.duration) / 1e9;
  r.check(x.goodput_gbps <= offered_bytes * to_gbps,
          "paper_web: goodput exceeds the offered load");
  g.window_offered_gbps = window_bytes * to_gbps;
  return g;
}

}  // namespace

Report run_paper_web(const Options& o) {
  pin_this_thread(0);
  Report r;
  static SpanStat exp_span("bench.transport.run_experiment");

  // Set-up: the experiment's fixed cost (topology, network, queues,
  // allocator model) with an empty measurement window, repeated before,
  // between and after the experiments so the median spans the run.
  std::vector<double> setup;
  const auto time_setups = [&] {
    for (int i = 0; i < kSetupsPerGap; ++i) {
      ft::transport::ExpConfig empty = config(o.seed);
      empty.warmup = 0;
      empty.duration = 1 * ft::kMicrosecond;
      empty.drain = 0;
      const double t0 = wall_s();
      (void)ft::transport::run_experiment(empty);
      setup.push_back(wall_s() - t0);
    }
  };

  // A run simulates `units` experiments, each from its own sub-seed. A
  // traced run simulates half as many untraced, then re-runs sub-seed 0
  // traced: it must repeat exactly, and the difference in wall time is
  // the tracing overhead.
  const int units =
      std::max(1, static_cast<int>(std::lround(o.seconds / kExpSeconds)));
  const int untraced = o.trace ? std::max(1, units / 2) : units;
  std::vector<ft::transport::ExpConfig> cfgs;
  std::vector<ft::transport::ExpResult> res;
  std::vector<double> flows_per_s;
  double wall = 0.0, flows = 0.0, upd = 0.0, started = 0.0, offered = 0.0;
  double p50_1 = 0.0, p99_1 = 0.0, p99_mid = 0.0, goodput = 0.0;
  for (int i = 0; i < untraced; ++i) {
    time_setups();
    cfgs.push_back(config(mix_seed(o.seed, static_cast<std::uint64_t>(i))));
    const double t0 = wall_s();
    res.push_back(ft::transport::run_experiment(cfgs.back()));
    const double el = wall_s() - t0;
    wall += el;
    const ft::transport::ExpResult& x = res.back();
    const Regen g = check_experiment(cfgs.back(), x, r);
    const std::size_t measured = g.measured;
    flows_per_s.push_back(static_cast<double>(measured) / el);
    offered += g.window_offered_gbps;
    r.attempted += measured;
    r.failed += x.flows_unfinished;
    flows += static_cast<double>(measured);
    upd += static_cast<double>(x.allocator_updates);
    started += static_cast<double>(x.flows_started);
    p50_1 += x.buckets[0].p50_norm_fct;
    p99_1 += x.buckets[0].p99_norm_fct;
    p99_mid += x.buckets[2].p99_norm_fct;
    goodput += x.goodput_gbps;
  }
  time_setups();
  const double n = static_cast<double>(untraced);

  // --- end to end; FCT percentiles are means over the experiments ---
  r.e2e["setup_s"] = median(setup);
  r.e2e["flowlets_per_s"] = median(flows_per_s);
  r.e2e["update_msgs_per_flow"] = upd / flows;
  r.e2e["slowdown_p50"] = p50_1 / n;
  r.e2e["slowdown_p99"] = p99_1 / n;
  r.note("experiments", n, "count");
  r.note("sim_wall_s", wall / n, "s");
  r.note("flows_measured", flows, "flows");
  r.note("fct_p50_1pkt", p50_1 / n, "x");
  r.note("fct_p99_1pkt", p99_1 / n, "x");
  r.note("fct_p99_10to100pkt", p99_mid / n, "x");
  r.note("goodput_gbps", goodput / n, "Gbit/s");
  r.note("window_offered_gbps", offered / n, "Gbit/s");
  r.det["fct_p50_1pkt"] = p50_1 / n;
  r.det["fct_p99_1pkt"] = p99_1 / n;
  r.det["fct_p99_10to100pkt"] = p99_mid / n;
  r.det["allocator_updates"] = upd;
  r.det["goodput_gbps"] = goodput / n;
  r.det["flows_started"] = started;

  if (!o.trace) return r;
  // --- per-layer ledger, from the traced re-run of sub-seed 0 ---
  ft::obs::PhaseTracer::set_enabled(true);
  const double t0 = wall_s();
  ft::transport::ExpResult x;
  {
    Span s(exp_span, true);
    x = ft::transport::run_experiment(cfgs.front());
  }
  const double traced_wall = wall_s() - t0;
  ft::obs::PhaseTracer::set_enabled(false);
  r.check(same_result(res.front(), x),
          "paper_web: same-seed experiments differ");
  r.layer["transport.host_ns_per_flow"] =
      1e9 * traced_wall / static_cast<double>(x.flows_started);
  r.layer["transport.allocator_updates"] =
      static_cast<double>(x.allocator_updates);
  r.layer["transport.ctrl_gbps"] = x.to_allocator_gbps + x.from_allocator_gbps;
  r.layer["transport.queue_p99_2hop_us"] = x.p99_queue_2hop_us;
  r.layer["transport.goodput_gbps"] = x.goodput_gbps;
  r.layer["transport.fct_p99_10to100pkt"] = x.buckets[2].p99_norm_fct;
  const double untraced_wall = wall / n;
  r.layer["bench.trace_overhead_pct"] =
      100.0 * (traced_wall - untraced_wall) / untraced_wall;
  r.note("untraced_sim_wall_s", untraced_wall, "s");
  r.note("traced_sim_wall_s", traced_wall, "s");
  return r;
}

}  // namespace perfbench
