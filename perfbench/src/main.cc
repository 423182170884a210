// perfbench: the one program behind the flowtune control-plane benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <dir>]
//
// Workloads: loopback_closed, loopback_paced, sim_fleet, paper_web (see
// README.md). Prints every metric by name and unit, the correctness
// checks, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ledger, measured in a traced phase that follows an untraced
// one (the difference between the two is the tracing overhead). A traced
// run also writes the recorded spans as chrome-trace JSON.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <string>

#include "bench.h"
#include "obs/trace.h"

namespace {

using perfbench::Options;
using perfbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"flowlets_per_s", "1/s"},
    {"update_msgs_per_flow", "msg"},
    {"slowdown_p50", "x"},
    {"slowdown_p99", "x"},
};

constexpr MetricDef kPerLayer[] = {
    {"net.frame.encode_ns_per_record", "ns"},
    {"net.frame.decode_ns_per_record", "ns"},
    {"net.svc.recv_calls_per_kmsg", "count/kmsg"},
    {"net.svc.send_calls_per_kupdate", "count/kupdate"},
    {"net.svc.wire_bytes_per_update", "B"},
    {"core.updates_per_round", "count"},
    {"core.replay_round_us", "us"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_update", "count"},
    {"sim.svc_recv_calls_per_update", "count"},
    {"sim.stream_bytes_per_update", "B"},
    {"sim.rounds_to_converge", "count"},
    {"sim.converge_virtual_ms", "ms"},
    {"sim.refreshed_update_frac", "frac"},
    {"transport.host_ns_per_flow", "ns"},
    {"transport.allocator_updates", "count"},
    {"transport.ctrl_gbps", "Gbit/s"},
    {"transport.queue_p99_2hop_us", "us"},
    {"transport.goodput_gbps", "Gbit/s"},
    {"transport.fct_p99_10to100pkt", "x"},
    {"bench.trace_overhead_pct", "%"},
};

// Per-layer metrics only the loopback workloads measure. Neither loopback
// workload is in BENCHMARK.json (README.md, "Why the loopback workloads are not
// gated"), so these are printed in the report but not in the JSON line.
constexpr MetricDef kLoopbackLayer[] = {
    {"net.svc.cpu_ns_per_msg", "ns"},
    {"net.agent.send_ns_per_record", "ns"},
    {"net.agent.poll_ns", "ns"},
    {"net.svc.round_us_p50", "us"},
    {"net.svc.round_us_p99", "us"},
    {"net.svc.fanout_us_p50", "us"},
    {"net.svc.rounds_per_s", "1/s"},
    {"core.solve_us_p50", "us"},
    {"core.solve_us_p99", "us"},
    {"core.emit_us_p50", "us"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<loopback_closed|loopback_paced|sim_fleet|paper_web> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || o.seconds <= 0) usage("--seconds takes s > 0");
    } else if (flag == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      o.trace = t == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

void print_json_line(const Report& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& d, double v) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", d.name, v, d.unit);
    out += buf;
    first = false;
  };
  if (trace) {
    for (const MetricDef& d : kPerLayer) emit(d, r.layer.at(d.name));
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d, r.e2e.at(d.name));
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Report r;
  if (o.workload == "loopback_closed") {
    r = perfbench::run_loopback(o, /*paced=*/false);
  } else if (o.workload == "loopback_paced") {
    r = perfbench::run_loopback(o, /*paced=*/true);
  } else if (o.workload == "sim_fleet") {
    r = perfbench::run_sim_fleet(o);
  } else if (o.workload == "paper_web") {
    r = perfbench::run_paper_web(o);
  } else {
    usage(("unknown workload " + o.workload).c_str());
  }

  for (const MetricDef& d : kEndToEnd) {
    if (!r.e2e.contains(d.name)) {
      std::fprintf(stderr, "perfbench: %s reported no %s\n",
                   o.workload.c_str(), d.name);
      return 1;
    }
  }
  // A layer the workload never enters did no work: 0.
  for (const MetricDef& d : kPerLayer) r.layer.try_emplace(d.name, 0.0);
  for (auto* m : {&r.e2e, &r.layer}) {
    for (auto& [name, v] : *m) {
      if (std::isfinite(v)) continue;
      r.check(false, name + " is not a finite number");
      v = 0.0;
    }
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  for (const auto& [name, text] : r.info) {
    std::printf("  %-34s %s\n", name.c_str(), text.c_str());
  }
  for (const MetricDef& d : kEndToEnd) {
    std::printf("e2e   %-34s %.6g %s\n", d.name, r.e2e.at(d.name), d.unit);
  }
  if (o.trace) {
    for (const MetricDef& d : kPerLayer) {
      std::printf("layer %-34s %.6g %s\n", d.name, r.layer.at(d.name),
                  d.unit);
    }
    for (const MetricDef& d : kLoopbackLayer) {
      if (!r.layer.contains(d.name)) continue;
      std::printf("layer %-34s %.6g %s\n", d.name, r.layer.at(d.name),
                  d.unit);
    }
  }
  for (const std::string& p : r.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::string det = "{";
  for (const auto& [name, v] : r.det) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", det.size() > 1 ? ", " : "",
                  name.c_str(), v);
    det += buf;
  }
  std::printf("deterministic %s}\n", det.c_str());

  if (o.trace && !o.trace_out.empty()) {
    ::mkdir(o.trace_out.c_str(), 0755);
    const std::string path = o.trace_out + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    if (ft::obs::PhaseTracer::dump_json(path)) {
      std::printf("spans written to %s\n", path.c_str());
    }
  }
  print_json_line(r, o.trace);
  return 0;
}
