#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "core/allocator.h"
#include "core/exact.h"
#include "common/ratecode.h"
#include "core/problem.h"
#include "net/frame.h"
#include "obs/trace.h"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

void Report::note(const std::string& name, double value, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g %s", value, unit);
  info.emplace_back(name, buf);
}

void SpanStat::add(std::int64_t t0_ns, std::int64_t t1_ns) {
  ++count_;
  total_ns_ += t1_ns - t0_ns;
  ft::obs::PhaseTracer::record(name_, t0_ns / 1000, (t1_ns - t0_ns) / 1000);
}

void UsHisto::add_ns(std::int64_t ns) {
  const std::int64_t last = static_cast<std::int64_t>(bins_.size()) - 1;
  const std::int64_t us = std::clamp<std::int64_t>(ns / 1000, 0, last);
  ++bins_[static_cast<std::size_t>(us)];
  ++count_;
}

void UsHisto::merge(const UsHisto& o) {
  const std::size_t n = std::min(bins_.size(), o.bins_.size());
  for (std::size_t i = 0; i < n; ++i) bins_[i] += o.bins_[i];
  count_ += o.count_;
}

double UsHisto::percentile_us(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double seen = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double n = bins_[i];
    if (n > 0 && seen + n >= target) {
      return static_cast<double>(i) + (target - seen) / n;
    }
    seen += n;
  }
  return static_cast<double>(bins_.size());
}

ft::obs::HistoSnapshot histo_delta(const ft::obs::HistoSnapshot& later,
                                   const ft::obs::HistoSnapshot& earlier) {
  ft::obs::HistoSnapshot d;
  for (int b = 0; b < ft::obs::kHistoBuckets; ++b) {
    const auto i = static_cast<std::size_t>(b);
    d.buckets[i] = later.buckets[i] - earlier.buckets[i];
  }
  d.count = later.count - earlier.count;
  d.sum = later.sum - earlier.sum;
  return d;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC_RAW, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void pin_this_thread(int cpu) {
  const unsigned n = std::thread::hardware_concurrency();
  if (n < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu) % n, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::vector<double> capacities(const ft::topo::ClosTopology& c) {
  std::vector<double> caps;
  caps.reserve(c.graph().links().size());
  for (const auto& l : c.graph().links()) caps.push_back(l.capacity_bps);
  return caps;
}

namespace {

ft::topo::Path route_of(const ft::topo::ClosTopology& clos,
                        const LiveFlow& f) {
  return clos.host_path(clos.host(f.src), clos.host(f.dst), f.key);
}

double quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[i];
}

}  // namespace

ExactCheck check_against_exact(const ft::topo::ClosTopology& clos,
                               const std::vector<LiveFlow>& flows) {
  ExactCheck x;
  x.flows = flows.size();
  if (flows.empty()) return x;
  const std::vector<double> caps = capacities(clos);
  // The problem holds only the links some flow crosses: solve_exact's
  // slackness test never passes on a link no flow crosses (NED leaves
  // its price where it is), so idle links would keep it from converging.
  std::vector<std::uint32_t> compact(caps.size(), UINT32_MAX);
  std::vector<double> used_caps;
  std::vector<std::array<ft::LinkId, ft::topo::Path::kMaxHops>> routes(
      flows.size());
  std::vector<std::size_t> hops(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const ft::topo::Path p = route_of(clos, flows[i]);
    hops[i] = p.size();
    for (std::size_t h = 0; h < p.size(); ++h) {
      std::uint32_t& c = compact[p[h].value()];
      if (c == UINT32_MAX) {
        c = static_cast<std::uint32_t>(used_caps.size());
        used_caps.push_back(caps[p[h].value()]);
      }
      routes[i][h] = ft::LinkId(c);
    }
  }
  ft::core::NumProblem problem(used_caps);
  problem.reserve(flows.size());
  std::vector<double> load(used_caps.size(), 0.0);
  std::vector<ft::core::FlowIndex> slot(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const std::span<const ft::LinkId> route(routes[i].data(), hops[i]);
    slot[i] = problem.add_flow(route, ft::core::Utility::log_utility());
    for (const ft::LinkId l : route) load[l.value()] += flows[i].held_bps;
  }
  for (std::size_t l = 0; l < used_caps.size(); ++l) {
    x.max_link_load = std::max(x.max_link_load, load[l] / used_caps[l]);
  }
  // gamma 0.5: at the default 1.0 NED limit-cycles on these topologies
  // until solve_exact's own damping halves it.
  ft::core::ExactOptions opt;
  opt.gamma = 0.5;
  const ft::core::ExactResult ex = ft::core::solve_exact(problem, opt);
  x.kkt_residual = ex.kkt_residual;
  x.solved = ex.converged && ex.kkt_residual <= kMaxKkt;
  std::vector<double> ratio;
  ratio.reserve(flows.size());
  double gap = 0.0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const double opt = ex.rates[slot[i]];
    const double held = std::max(flows[i].held_bps, 1.0);
    ratio.push_back(held / opt);
    gap += std::log(opt / held);
  }
  x.utility_gap = gap / static_cast<double>(flows.size());
  x.ratio_p01 = quantile(ratio, 0.01);
  x.ratio_p50 = quantile(ratio, 0.50);
  x.ratio_p99 = quantile(ratio, 0.99);
  return x;
}

void report_exact(Report& r, const ExactCheck& x) {
  r.note("check.exact_flows", static_cast<double>(x.flows), "flows");
  r.note("check.max_link_load", x.max_link_load, "x capacity");
  r.note("check.held_over_exact_p01", x.ratio_p01, "x");
  r.note("check.held_over_exact_p50", x.ratio_p50, "x");
  r.note("check.held_over_exact_p99", x.ratio_p99, "x");
  r.note("check.mean_log_gap", x.utility_gap, "nats");
  r.note("check.exact_kkt_residual", x.kkt_residual, "");
  r.check(x.flows > 0, "exact check: no live flows to check");
  r.check(x.solved, "exact check: solve_exact did not converge");
  r.check(x.max_link_load <= 1.0 + ft::kRateCodeMaxRelError,
          "exact check: held rates load a link past capacity");
  r.check(x.ratio_p01 >= kBandLow && x.ratio_p99 <= kBandHigh,
          "exact check: held rates outside the band of the exact optimum");
}

namespace {

// Counts what the parser hands back, so decode work cannot be elided.
class CountingSink final : public ft::net::MessageSink {
 public:
  void on_flowlet_start(const ft::core::FlowletStartMsg& m) override {
    ++records;
    keys += m.flow_key;
  }
  void on_flowlet_end(const ft::core::FlowletEndMsg& m) override {
    ++records;
    keys += m.flow_key;
  }
  std::uint64_t records = 0;
  std::uint64_t keys = 0;
};

// Records per frame: what an agent batches before its 16 KiB flush.
constexpr std::size_t kRecordsPerFrame = 1024;

}  // namespace

void replay_codec(const std::vector<Record>& recs, Report& r) {
  if (recs.empty()) return;
  std::vector<std::uint8_t> wire;
  std::vector<double> enc_ns, dec_ns;
  std::uint64_t expect_keys = 0;
  for (const Record& rec : recs) expect_keys += rec.key;
  for (int rep = 0; rep < 5; ++rep) {
    ft::net::FrameWriter w;
    wire.clear();
    const std::int64_t t0 = wall_ns();
    std::size_t in_frame = 0;
    for (const Record& rec : recs) {
      if (rec.start) {
        ft::core::FlowletStartMsg m;
        m.flow_key = rec.key;
        m.src_host = rec.src;
        m.dst_host = rec.dst;
        w.add(m);
      } else {
        w.add(ft::core::FlowletEndMsg{rec.key});
      }
      if (++in_frame == kRecordsPerFrame) {
        w.flush(wire);
        in_frame = 0;
      }
    }
    w.flush(wire);
    const std::int64_t t1 = wall_ns();
    ft::net::FrameParser p;
    CountingSink sink;
    const bool ok = p.feed(wire, sink);
    const std::int64_t t2 = wall_ns();
    r.check(ok && sink.records == recs.size() && sink.keys == expect_keys,
            "codec replay: decoded records differ from encoded ones");
    enc_ns.push_back(static_cast<double>(t1 - t0) / recs.size());
    dec_ns.push_back(static_cast<double>(t2 - t1) / recs.size());
  }
  r.layer["net.frame.encode_ns_per_record"] = median(enc_ns);
  r.layer["net.frame.decode_ns_per_record"] = median(dec_ns);
}

void replay_round(const ft::topo::ClosTopology& clos,
                  const std::vector<LiveFlow>& flows, Report& r) {
  if (flows.empty()) return;
  ft::core::Allocator alloc(capacities(clos), ft::core::AllocatorConfig{});
  alloc.reserve(flows.size());
  for (const LiveFlow& f : flows) {
    const ft::topo::Path p = route_of(clos, f);
    (void)alloc.flowlet_start(f.key, p.links());
  }
  std::vector<ft::core::RateUpdate> out;
  std::vector<double> us;
  constexpr int kRounds = 60;
  for (int i = 0; i < kRounds; ++i) {
    out.clear();
    const std::int64_t t0 = wall_ns();
    alloc.run_iteration(out);
    us.push_back(static_cast<double>(wall_ns() - t0) / 1e3);
  }
  // The first rounds notify every flow; the rest are the steady state.
  us.erase(us.begin(), us.begin() + 10);
  r.layer["core.replay_round_us"] = median(us);
}

}  // namespace perfbench
