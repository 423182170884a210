// Shared pieces of the perfbench program: the report every workload
// fills, the benchmark's own span recorder, a fixed-resolution latency
// histogram, and the checks and replays that more than one workload uses.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"
#include "obs/metrics.h"
#include "topo/clos.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // directory for chrome-trace dumps
};

// What a run reports. `e2e` is keyed by the end-to-end metric names of
// BENCHMARK.json, `layer` by the per-layer names (main.cc fills every
// per-layer name a workload leaves out with 0: that layer did no work).
// `info` and `det` are printed for people; `det` holds the modelled
// outputs that must repeat exactly for a given seed.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<std::pair<std::string, std::string>> info;  // name, text
  std::map<std::string, double> det;
  std::vector<std::string> problems;  // failed correctness checks

  void check(bool ok, const std::string& what);
  void note(const std::string& name, double value, const char* unit);
};

// Benchmark-side spans around calls into the program's layers. When
// tracing is on each span is accumulated here (count, total ns) and
// recorded into obs::PhaseTracer, whose rings are dumped as chrome-trace
// JSON at the end of the run. When off, a span costs one branch.
class SpanStat {
 public:
  explicit SpanStat(const char* name) : name_(name) {}
  void add(std::int64_t t0_ns, std::int64_t t1_ns);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean_ns() const {
    return count_ ? static_cast<double>(total_ns_) / count_ : 0.0;
  }
  [[nodiscard]] std::int64_t total_ns() const { return total_ns_; }
  void merge(const SpanStat& o) {
    count_ += o.count_;
    total_ns_ += o.total_ns_;
  }

 private:
  const char* name_;
  std::uint64_t count_ = 0;
  std::int64_t total_ns_ = 0;
};

// CLOCK_MONOTONIC_RAW nanoseconds: the clock obs::now_ns reads when no
// virtual clock overrides it (the sim harness installs one), so spans
// line up with the program's own in the dump, and stay wall time in sim.
[[nodiscard]] std::int64_t wall_ns();
[[nodiscard]] inline double wall_s() { return 1e-9 * static_cast<double>(wall_ns()); }

class Span {
 public:
  Span(SpanStat& stat, bool on) : stat_(on ? &stat : nullptr) {
    if (stat_ != nullptr) t0_ = wall_ns();
  }
  ~Span() {
    if (stat_ != nullptr) stat_->add(t0_, wall_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanStat* stat_;
  std::int64_t t0_ = 0;
};

// Latency histogram with 1 us bins up to `max_us` (larger values land in
// the last bin). Percentiles interpolate within a bin.
class UsHisto {
 public:
  explicit UsHisto(std::size_t max_us = 200'000) : bins_(max_us, 0) {}
  void add_ns(std::int64_t ns);
  void merge(const UsHisto& o);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double percentile_us(double q) const;

 private:
  std::vector<std::uint32_t> bins_;
  std::uint64_t count_ = 0;
};

// Difference of two snapshots of one obs histogram (later - earlier).
[[nodiscard]] ft::obs::HistoSnapshot histo_delta(
    const ft::obs::HistoSnapshot& later, const ft::obs::HistoSnapshot& earlier);

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);
[[nodiscard]] double thread_cpu_s();
// Pins the calling thread to one CPU (modulo the CPUs there are), so the
// loopback threads do not migrate between measurements. Best effort.
void pin_this_thread(int cpu);

// One live flowlet as the benchmark recorded it: what the endpoint asked
// for and the rate it held once the plane settled.
struct LiveFlow {
  std::uint32_t key = 0;
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
  double held_bps = 0.0;
};

// The exact-optimum check: routes from ClosTopology::host_path, the
// proportional-fair optimum from core::solve_exact on the full link
// capacities. Held rates must load no link past capacity (plus the rate
// code's rounding) and sit within the stated band of the optimum.
struct ExactCheck {
  std::size_t flows = 0;
  bool solved = false;
  double max_link_load = 0.0;     // worst link, held load / capacity
  double ratio_p01 = 0.0;         // held / exact, 1st percentile
  double ratio_p50 = 0.0;
  double ratio_p99 = 0.0;
  double utility_gap = 0.0;       // mean log(exact/held) over flows
  double kkt_residual = 0.0;      // of the exact solution
};
// The allocator holds back 1% headroom and re-notifies a flow only when
// its rate moves by more than 1%, so held rates sit near 0.98-1.0 of the
// optimum on full capacities.
inline constexpr double kBandLow = 0.95;   // held / exact, 1st pct floor
inline constexpr double kBandHigh = 1.01;  // held / exact, 99th pct cap
inline constexpr double kMaxKkt = 1e-5;    // exact solution accepted
[[nodiscard]] ExactCheck check_against_exact(const ft::topo::ClosTopology& clos,
                                             const std::vector<LiveFlow>& flows);
void report_exact(Report& r, const ExactCheck& x);

// A flowlet control record as an endpoint emits it, for codec replay.
struct Record {
  bool start = true;
  std::uint32_t key = 0;
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
};
// Replays `recs` through net::FrameWriter (encode) and net::FrameParser
// (decode); fills net.frame.{encode,decode}_ns_per_record.
void replay_codec(const std::vector<Record>& recs, Report& r);
// Times core::Allocator::run_iteration on a fresh allocator holding the
// live set; fills core.replay_round_us (median of the timed rounds).
void replay_round(const ft::topo::ClosTopology& clos,
                  const std::vector<LiveFlow>& flows, Report& r);

// Link capacities of a topology, in link-id order.
[[nodiscard]] std::vector<double> capacities(const ft::topo::ClosTopology& c);

// Workloads.
Report run_loopback(const Options& o, bool paced);
Report run_sim_fleet(const Options& o);
Report run_paper_web(const Options& o);

}  // namespace perfbench
