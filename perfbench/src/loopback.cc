// loopback_closed / loopback_paced: the real AllocatorService (default
// config, inline, on its own thread with an EpollLoop) and two
// EndpointAgents on two more threads, talking TCP over 127.0.0.1. The
// traffic never leaves the host's loopback interface.
//
// closed: each connection keeps a window of flowlets waiting for their
//   first rate; a flowlet that gets it is ended and replaced at once.
// paced: flowlet starts follow a seeded Poisson schedule; each lives a
//   floor plus an exponential time. Latency is timed from the start's
//   due time, so a late generator counts against the service.
//
// A run is four segments, each with its own set-up and sub-seed: warm
// up, measure in fixed windows, then stop churn and let the plane
// settle, after which the rates the agents hold are checked against
// core::solve_exact. Throughput and latency percentiles are taken per
// window and the reported figure is the median over all windows, so a
// short stall of the host moves one window, not the run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/rng.h"
#include "core/allocator.h"
#include "net/client.h"
#include "net/epoll_loop.h"
#include "net/server.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using ft::net::AgentStats;
using ft::net::ServiceStats;

constexpr int kAgents = 2;
constexpr int kSegments = 4;
constexpr int kExtraSetupsPerGap = 10;  // set-up-only repetitions
constexpr int kWindow = 512;         // closed: flowlets awaiting a rate
constexpr double kStartsPerSec = 8000;  // paced, both connections
constexpr double kMeanLifeS = 0.25;
constexpr double kLifeFloorS = 0.05;
constexpr double kWindowS = 0.25;    // measurement window
constexpr std::size_t kWindowHistoUs = 50'000;
constexpr std::size_t kMaxRecords = 200'000;  // per agent, codec replay
constexpr std::int64_t kQuietNs = 30'000'000;      // settled: no update
constexpr std::int64_t kSettleLimitNs = 5'000'000'000;
const double kPeriodUs =
    static_cast<double>(ft::net::ServerConfig{}.iteration_period_us);

enum Phase : int { kWarmup = 0, kMeasure = 1, kSettle = 2, kStop = 3 };

std::int64_t now_ns() { return wall_ns(); }

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

double msgs_of(const AgentStats& s) {
  return static_cast<double>(s.starts_sent + s.ends_sent + s.replayed_starts +
                             s.updates_received);
}

double flowlets_of(const AgentStats& s) {
  return static_cast<double>(s.starts_sent);
}

struct AgentCtx {
  int id = 0;
  bool paced = false;
  bool traced = false;
  std::uint64_t seed = 0;
  int hosts = 0;
  int windows = 0;
  ft::net::EndpointAgent* agent = nullptr;
  const std::atomic<int>* phase = nullptr;
  const std::atomic<std::int64_t>* t_measure = nullptr;
  std::atomic<std::uint64_t> updates{0};  // published for settle watch
  std::atomic<std::int64_t> unrated{0};
  std::atomic<bool> lost{false};

  // Written by the agent thread, read after join.
  std::vector<UsHisto> latency;   // per window: first rate - start (due)
  std::vector<AgentStats> at_window_end;
  UsHisto lateness;               // paced: send time - due time
  std::uint64_t flowlets = 0;       // starts issued, all phases
  std::uint64_t unrated_ends = 0;   // ended before their first rate
  AgentStats at_begin;
  std::unordered_map<std::uint32_t, std::pair<std::uint16_t, std::uint16_t>>
      live;
  std::vector<Record> records;
  SpanStat send{"bench.agent.send"};
  SpanStat poll{"bench.agent.poll"};
};

void agent_main(AgentCtx& c) {
  pin_this_thread(2 + c.id);
  ft::net::EndpointAgent& agent = *c.agent;
  ft::Rng rng(mix_seed(c.seed, static_cast<std::uint64_t>(c.id)));
  std::unordered_map<std::uint32_t, std::int64_t> waiting;  // key -> t0
  std::vector<std::uint32_t> rated;
  agent.set_rate_callback([&](std::uint32_t key, double, std::uint16_t) {
    if (waiting.contains(key)) rated.push_back(key);
  });
  std::uint32_t next_key = (static_cast<std::uint32_t>(c.id) + 1) << 28;
  using Due = std::pair<std::int64_t, std::uint32_t>;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> ends;
  c.latency.assign(static_cast<std::size_t>(c.windows),
                   UsHisto(kWindowHistoUs));
  c.at_window_end.resize(static_cast<std::size_t>(c.windows));

  const auto start_one = [&](std::int64_t t0) {
    const auto src = static_cast<std::uint16_t>(rng.below(c.hosts));
    auto dst = static_cast<std::uint16_t>(rng.below(c.hosts - 1));
    if (dst >= src) ++dst;
    const std::uint32_t key = next_key++;
    {
      Span s(c.send, c.traced);
      (void)agent.flowlet_start(key, src, dst);
    }
    waiting.emplace(key, t0);
    c.live.emplace(key, std::make_pair(src, dst));
    if (c.records.size() < kMaxRecords) {
      c.records.push_back({true, key, src, dst});
    }
    ++c.flowlets;
    return key;
  };
  const auto end_one = [&](std::uint32_t key) {
    {
      Span s(c.send, c.traced);
      (void)agent.flowlet_end(key);
    }
    c.live.erase(key);
    if (c.records.size() < kMaxRecords) c.records.push_back({false, key, 0, 0});
  };

  const double gap_ns = 1e9 * kAgents / kStartsPerSec;
  const auto win_ns = static_cast<std::int64_t>(kWindowS * 1e9);
  std::int64_t next_due = now_ns();
  if (!c.paced) {
    for (int i = 0; i < kWindow; ++i) start_one(now_ns());
  }
  int win = -1;  // current measurement window, -1 before the first
  std::int64_t t0 = 0;
  while (true) {
    const int ph = c.phase->load(std::memory_order_acquire);
    if (ph == kStop) break;
    std::int64_t now = now_ns();
    if (ph >= kMeasure && win < c.windows) {
      if (win < 0) {
        t0 = c.t_measure->load(std::memory_order_acquire);
        c.at_begin = agent.stats();
        win = 0;
      }
      const auto w = static_cast<int>(std::min<std::int64_t>(
          (now - t0) / win_ns, c.windows));
      for (; win < w; ++win) {
        c.at_window_end[static_cast<std::size_t>(win)] = agent.stats();
      }
    }
    const bool measuring = win >= 0 && win < c.windows;
    const bool churn = ph <= kMeasure;
    if (c.paced && churn) {
      while (next_due <= now) {
        const std::uint32_t key = start_one(next_due);
        if (measuring) c.lateness.add_ns(now_ns() - next_due);
        const double life =
            kLifeFloorS + rng.exponential(kMeanLifeS - kLifeFloorS);
        ends.emplace(next_due + static_cast<std::int64_t>(life * 1e9), key);
        next_due += static_cast<std::int64_t>(rng.exponential(gap_ns));
        now = now_ns();
      }
      while (!ends.empty() && ends.top().first <= now) {
        const std::uint32_t key = ends.top().second;
        ends.pop();
        if (waiting.erase(key) != 0) ++c.unrated_ends;
        end_one(key);
      }
    }
    bool ok;
    {
      Span s(c.poll, c.traced);
      ok = agent.poll();
    }
    if (!ok) {
      c.lost.store(true);
      break;
    }
    if (!rated.empty()) {
      now = now_ns();
      for (const std::uint32_t key : rated) {
        const auto it = waiting.find(key);
        if (it == waiting.end()) continue;  // rated twice in one poll
        if (measuring && it->second >= t0) {
          c.latency[static_cast<std::size_t>(win)].add_ns(now - it->second);
        }
        waiting.erase(it);
        if (!c.paced && churn) {
          end_one(key);
          start_one(now);
        }
      }
      rated.clear();
      agent.flush();
    }
    c.updates.store(agent.stats().updates_received, std::memory_order_relaxed);
    c.unrated.store(static_cast<std::int64_t>(waiting.size()),
                    std::memory_order_relaxed);
  }
  agent.set_rate_callback(nullptr);
}

// The program under test, as one segment sets it up.
struct Plane {
  ft::topo::ClosTopology clos{ft::topo::ClosConfig{}};
  ft::obs::MetricsRegistry reg;
  std::unique_ptr<ft::core::Allocator> alloc;
  ft::net::EpollLoop loop;
  std::unique_ptr<ft::net::AllocatorService> svc;
  std::vector<std::unique_ptr<ft::net::EndpointAgent>> agents;

  // Returns false when an agent cannot connect.
  bool set_up() {
    ft::core::AllocatorConfig ac;
    ac.metrics = &reg;
    alloc = std::make_unique<ft::core::Allocator>(capacities(clos), ac);
    ft::net::ServerConfig sc;
    sc.tcp_port = 0;
    sc.metrics = &reg;
    svc = std::make_unique<ft::net::AllocatorService>(loop, *alloc, clos, sc);
    for (int i = 0; i < kAgents; ++i) {
      agents.push_back(std::make_unique<ft::net::EndpointAgent>());
      if (!agents.back()->connect_tcp("127.0.0.1", svc->tcp_port())) {
        return false;
      }
    }
    return true;
  }
};

// Service-thread snapshots at phase changes (ServiceStats are the
// service thread's own counters).
struct SvcSnap {
  ServiceStats st;
  ft::core::AllocatorStats al;
  double cpu_s = 0.0;
  std::int64_t t_ns = 0;
};

struct Accum {
  std::vector<double> setup_s;
  std::vector<double> win_flowlets_per_s, win_msgs_per_s, win_p50_us,
      win_p99_us;
  double updates = 0.0, starts = 0.0;
  UsHisto latency, lateness;
  std::vector<double> seg_primary;  // per segment: flowlets/s or p50 us
};

void run_segment(bool paced, std::uint64_t seed, double warmup_s,
                 int windows, bool traced, Report& r, Accum& acc) {
  const std::int64_t t_setup0 = now_ns();
  auto plane = std::make_unique<Plane>();
  const bool connected = plane->set_up();
  acc.setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t_setup0));
  r.check(connected, "loopback: agent could not connect to the service");
  if (!connected) return;

  ft::obs::PhaseTracer::set_enabled(traced);
  std::atomic<int> phase{kWarmup};
  std::atomic<std::int64_t> t_measure{0};
  std::atomic<bool> svc_stop{false};
  SvcSnap snap[4];
  ServiceStats final_st;
  std::thread svc_thread([&] {
    pin_this_thread(1);
    int seen = kWarmup;
    const auto take = [&](int i) {
      snap[i].st = plane->svc->stats();
      snap[i].al = plane->alloc->stats();
      snap[i].cpu_s = thread_cpu_s();
      snap[i].t_ns = now_ns();
    };
    while (!svc_stop.load(std::memory_order_acquire)) {
      plane->loop.run_once(500);
      const int ph = phase.load(std::memory_order_acquire);
      for (int i = seen + 1; i <= ph; ++i) take(i);
      seen = ph;
    }
    final_st = plane->svc->stats();
  });

  std::vector<std::unique_ptr<AgentCtx>> ctx;
  std::vector<std::thread> threads;
  for (int i = 0; i < kAgents; ++i) {
    auto c = std::make_unique<AgentCtx>();
    c->id = i;
    c->paced = paced;
    c->traced = traced;
    c->seed = seed;
    c->hosts = plane->clos.num_hosts();
    c->windows = windows;
    c->agent = plane->agents[static_cast<std::size_t>(i)].get();
    c->phase = &phase;
    c->t_measure = &t_measure;
    ctx.push_back(std::move(c));
  }
  for (auto& c : ctx) threads.emplace_back(agent_main, std::ref(*c));

  const auto reg_histos = [&] {
    return std::array<ft::obs::HistoSnapshot, 4>{
        plane->reg.histo("svc.round_us").snapshot(),
        plane->reg.histo("svc.fanout_us").snapshot(),
        plane->reg.histo("core.solve_us").snapshot(),
        plane->reg.histo("core.emit_us").snapshot()};
  };
  sleep_s(warmup_s);
  const auto h0 = reg_histos();
  t_measure.store(now_ns(), std::memory_order_release);
  phase.store(kMeasure, std::memory_order_release);
  sleep_s(kWindowS * windows + 0.002);  // the last window closes first
  phase.store(kSettle, std::memory_order_release);
  const auto h1 = reg_histos();

  // Settle: churn has stopped; wait until every live flowlet holds a
  // rate and no update has arrived for kQuietNs.
  const std::int64_t t_settle = now_ns();
  std::uint64_t last = ~0ULL;
  std::int64_t last_change = t_settle;
  bool settled = false;
  bool lost = false;
  while (!lost && now_ns() - t_settle < kSettleLimitNs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::uint64_t u = 0;
    std::int64_t unrated = 0;
    for (auto& c : ctx) {
      u += c->updates.load(std::memory_order_relaxed);
      unrated += c->unrated.load(std::memory_order_relaxed);
      lost |= c->lost.load();
    }
    const std::int64_t now = now_ns();
    if (u != last) {
      last = u;
      last_change = now;
    } else if (unrated == 0 && now - last_change >= kQuietNs) {
      settled = true;
      break;
    }
  }
  const double settle_s = 1e-9 * static_cast<double>(now_ns() - t_settle);
  phase.store(kStop, std::memory_order_release);
  for (auto& t : threads) t.join();
  ft::obs::PhaseTracer::set_enabled(false);

  // Rates the agents hold, for the flowlets the benchmark left live.
  std::vector<LiveFlow> live;
  for (auto& c : ctx) {
    for (const auto& [key, sd] : c->live) {
      live.push_back({key, sd.first, sd.second, c->agent->rate_bps(key)});
    }
  }
  std::sort(live.begin(), live.end(),
            [](const LiveFlow& a, const LiveFlow& b) { return a.key < b.key; });
  for (auto& a : plane->agents) a->disconnect();
  svc_stop.store(true, std::memory_order_release);
  svc_thread.join();

  // --- failures: flowlets never rated, records never consumed ---
  std::uint64_t sent = 0, unrated_ends = 0, flowlets = 0;
  for (auto& c : ctx) {
    const AgentStats& s = c->agent->stats();
    sent += s.starts_sent + s.ends_sent + s.replayed_starts;
    unrated_ends += c->unrated_ends;
    flowlets += c->flowlets;
    lost |= c->lost.load();
  }
  const ServiceStats& at_settle = snap[kStop].st;
  const std::uint64_t consumed =
      at_settle.flowlet_starts + at_settle.flowlet_ends +
      at_settle.replayed_starts + at_settle.rejected_starts +
      at_settle.unknown_ends;
  const std::uint64_t unconsumed = sent > consumed ? sent - consumed : 0;
  r.attempted += flowlets;
  r.failed += unrated_ends + unconsumed + final_st.protocol_errors +
              at_settle.rejected_starts + at_settle.unknown_ends;
  r.check(!lost, "loopback: an agent lost its connection");
  r.check(settled, "loopback: plane did not settle after churn stopped");
  r.note("settle_s", settle_s, "s");
  report_exact(r, check_against_exact(plane->clos, live));

  // --- end to end, per measurement window ---
  double seg_flowlets = 0.0;
  UsHisto seg_lat;
  for (int w = 0; w < windows; ++w) {
    const auto i = static_cast<std::size_t>(w);
    double msgs = 0.0, flowlets = 0.0;
    UsHisto lat(kWindowHistoUs);
    for (auto& c : ctx) {
      const AgentStats& prev = w == 0 ? c->at_begin : c->at_window_end[i - 1];
      msgs += msgs_of(c->at_window_end[i]) - msgs_of(prev);
      flowlets += flowlets_of(c->at_window_end[i]) - flowlets_of(prev);
      lat.merge(c->latency[i]);
    }
    acc.win_flowlets_per_s.push_back(flowlets / kWindowS);
    acc.win_msgs_per_s.push_back(msgs / kWindowS);
    acc.win_p50_us.push_back(lat.percentile_us(0.50));
    acc.win_p99_us.push_back(lat.percentile_us(0.99));
    seg_flowlets += flowlets;
    seg_lat.merge(lat);
  }
  for (auto& c : ctx) {
    const AgentStats& end = c->at_window_end.back();
    acc.updates += static_cast<double>(end.updates_received -
                                       c->at_begin.updates_received);
    acc.starts +=
        static_cast<double>(end.starts_sent - c->at_begin.starts_sent);
    acc.lateness.merge(c->lateness);
  }
  acc.latency.merge(seg_lat);
  acc.seg_primary.push_back(paced ? seg_lat.percentile_us(0.5)
                                  : seg_flowlets / (kWindowS * windows));

  if (!traced) return;
  // --- per-layer ledger, from the traced segment ---
  const ServiceStats& b = snap[kMeasure].st;
  const ServiceStats& e = snap[kSettle].st;
  const double el_s =
      1e-9 * static_cast<double>(snap[kSettle].t_ns - snap[kMeasure].t_ns);
  const double msgs_in = static_cast<double>(
      (e.flowlet_starts + e.flowlet_ends + e.replayed_starts) -
      (b.flowlet_starts + b.flowlet_ends + b.replayed_starts));
  const double upd = static_cast<double>(e.updates_sent - b.updates_sent);
  const double cpu = snap[kSettle].cpu_s - snap[kMeasure].cpu_s;
  r.layer["net.svc.cpu_ns_per_msg"] = 1e9 * cpu / (msgs_in + upd);
  r.layer["net.svc.recv_calls_per_kmsg"] =
      1e3 * static_cast<double>(e.recv_calls - b.recv_calls) / msgs_in;
  r.layer["net.svc.send_calls_per_kupdate"] =
      1e3 * static_cast<double>(e.send_calls - b.send_calls) / upd;
  r.layer["net.svc.wire_bytes_per_update"] =
      static_cast<double>(e.wire_bytes_out - b.wire_bytes_out) / upd;
  r.layer["net.svc.rounds_per_s"] =
      static_cast<double>(e.iterations - b.iterations) / el_s;
  const auto& ab = snap[kMeasure].al;
  const auto& ae = snap[kSettle].al;
  r.layer["core.updates_per_round"] =
      static_cast<double>(ae.updates_emitted - ab.updates_emitted) /
      static_cast<double>(ae.iterations - ab.iterations);
  const auto d = [&](int i) {
    const auto k = static_cast<std::size_t>(i);
    return histo_delta(h1[k], h0[k]);
  };
  r.layer["net.svc.round_us_p50"] = d(0).p50();
  r.layer["net.svc.round_us_p99"] = d(0).p99();
  r.layer["net.svc.fanout_us_p50"] = d(1).p50();
  r.layer["core.solve_us_p50"] = d(2).p50();
  r.layer["core.solve_us_p99"] = d(2).p99();
  r.layer["core.emit_us_p50"] = d(3).p50();
  SpanStat send("bench.agent.send"), poll("bench.agent.poll");
  std::vector<Record> recs;
  std::uint64_t refreshes = 0, replayed = 0;
  for (auto& c : ctx) {
    send.merge(c->send);
    poll.merge(c->poll);
    recs.insert(recs.end(), c->records.begin(), c->records.end());
    refreshes += c->agent->stats().registration_refreshes;
    replayed += c->agent->stats().replayed_starts;
  }
  r.layer["net.agent.send_ns_per_record"] = send.mean_ns();
  r.layer["net.agent.poll_ns"] = poll.mean_ns();
  replay_codec(recs, r);
  replay_round(plane->clos, live, r);
  r.note("agent.registration_refreshes", static_cast<double>(refreshes),
         "count");
  r.note("agent.replayed_starts", static_cast<double>(replayed), "count");
}

}  // namespace

Report run_loopback(const Options& o, bool paced) {
  pin_this_thread(0);
  Report r;
  Accum acc;
  const double warmup_s = paced ? 1.0 : 0.25;
  const int windows = std::max(
      1, static_cast<int>((o.seconds / kSegments - warmup_s) / kWindowS));
  // Set-up-only repetitions run before, between and after the segments,
  // so the set-up median spans the whole run.
  const auto extra_setups = [&] {
    for (int i = 0; i < kExtraSetupsPerGap; ++i) {
      const std::int64_t t0 = now_ns();
      Plane p;
      r.check(p.set_up(), "loopback: set-up-only agent could not connect");
      acc.setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
    }
  };
  for (int seg = 0; seg < kSegments; ++seg) {
    extra_setups();
    // A traced run traces only its last segment; the others give the
    // untraced figure the tracing overhead is measured against.
    const bool traced = o.trace && seg == kSegments - 1;
    run_segment(paced, mix_seed(o.seed, static_cast<std::uint64_t>(seg)),
                warmup_s, windows, traced, r, acc);
  }
  extra_setups();

  r.e2e["setup_s"] = median(acc.setup_s);
  r.e2e["flowlets_per_s"] = median(acc.win_flowlets_per_s);
  r.e2e["update_msgs_per_flow"] = acc.updates / acc.starts;
  r.e2e["slowdown_p50"] = median(acc.win_p50_us) / kPeriodUs;
  r.e2e["slowdown_p99"] = median(acc.win_p99_us) / kPeriodUs;
  r.note("windows", static_cast<double>(acc.win_p99_us.size()), "count");
  r.note("ctrl_msgs_per_s", median(acc.win_msgs_per_s), "msg/s");
  r.note("window_update_p50_us", median(acc.win_p50_us), "us");
  r.note("window_update_p99_us", median(acc.win_p99_us), "us");
  r.note("pooled_update_p50_us", acc.latency.percentile_us(0.50), "us");
  r.note("pooled_update_p99_us", acc.latency.percentile_us(0.99), "us");
  r.note("pooled_update_max_us", acc.latency.percentile_us(1.0), "us");
  r.note("latency_samples", static_cast<double>(acc.latency.count()), "flows");
  if (paced) {
    r.note("gen_late_p99_us", acc.lateness.percentile_us(0.99), "us");
  }
  std::string segs;
  for (const double v : acc.seg_primary) segs += std::to_string(v) + " ";
  r.info.emplace_back(paced ? "segment_update_p50_us" : "segment_flowlets_per_s",
                      segs);
  if (o.trace && acc.seg_primary.size() == kSegments) {
    const double tr = acc.seg_primary.back();
    acc.seg_primary.pop_back();
    const double un = median(acc.seg_primary);
    // The share by which tracing worsened the workload's primary metric.
    r.layer["bench.trace_overhead_pct"] =
        paced ? 100.0 * (tr - un) / un : 100.0 * (un - tr) / un;
    r.note(paced ? "untraced_update_p50_us" : "untraced_flowlets_per_s", un,
           paced ? "us" : "1/s");
    r.note(paced ? "traced_update_p50_us" : "traced_flowlets_per_s", tr,
           paced ? "us" : "1/s");
  }
  return r;
}

}  // namespace perfbench
