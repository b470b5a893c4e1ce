// comma_perfbench: runs one workload of the Comma benchmark.
//
//   comma_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--tiny] [--inject flip-byte|stall|drop-response]
//                   [--trace-out <file>]
//
// A run repeats one unit of work — build the workload (timed as setup_s),
// advance it through a fixed span of simulated time in slices on the serial
// epoch loop (the timed region), drain the ops still open, check every op —
// until --seconds of wall time are used. Every repetition must produce the same witness; wall-clock
// figures are medians over repetitions. --trace 0 prints the end-to-end
// metrics; --trace 1 alternates untraced and traced repetitions and prints
// the per-layer metrics. The last stdout line is one JSON object; the exit
// code is non-zero when any check failed.
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/sim/witness.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  Params params;
};

// Each RunFor advances this much simulated time; the benchmark samples
// peaks and injects scripted faults between slices.
constexpr sim::Duration kSlice = 100 * sim::kMillisecond;

// Peaks the benchmark samples at every slice boundary.
struct SliceSample {
  size_t queue_size = 0;
  uint64_t tcp_connections = 0;
  uint64_t proxy_streams = 0;
  uint64_t proxy_attachments = 0;
  uint64_t proxy_queue_cache = 0;
  double ttsf_held = 0;
};

// Everything one repetition measured.
struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double sim_s = 0;
  uint64_t proxied = 0;
  uint64_t events = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t verified_bytes = 0;
  uint64_t span_verified_bytes = 0;  // Verified by the end of the timed span.
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  uint64_t witness = 0;
  std::string witness_text;
  std::map<std::string, double> layer;
  std::vector<uint32_t> snapshot_ns;
  // Traced repetitions only: allocations inside the proxies' OnPacket.
  uint64_t tap_allocs = 0;
  uint64_t tap_packets = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// The per-layer metrics a traced run prints, in order, with their units.
// BENCHMARK.json lists the same names; perfbench/README.md says which
// end-to-end metric each should move and on which workload.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.events_per_pkt", "events/pkt"},
    {"sim.queue_size_max", "count"},
    {"sim.slice_self_share", "ratio"},
    {"process.allocs_per_pkt", "allocs/pkt"},
    {"process.alloc_bytes_per_pkt", "B/pkt"},
    {"process.cpu_s", "s"},
    {"net.wire_bytes_per_app_byte", "ratio"},
    {"net.drops_queue", "count"},
    {"net.drops_error", "count"},
    {"net.drops_down", "count"},
    {"net.corrupted", "count"},
    {"net.ip_forwarded", "count"},
    {"tcp.segments_per_op", "segments/op"},
    {"tcp.retransmit_ratio", "ratio"},
    {"tcp.retransmit_timeouts", "count"},
    {"tcp.fast_retransmits", "count"},
    {"tcp.checksum_failures", "count"},
    {"tcp.connections_max", "count"},
    {"tcp.send_call_ns_p50", "ns"},
    {"proxy.on_packet_ns_p50", "ns"},
    {"proxy.on_packet_ns_p99", "ns"},
    {"proxy.busy_share", "ratio"},
    {"proxy.allocs_per_pkt", "allocs/pkt"},
    {"proxy.resolve_work_mean", "count"},
    {"proxy.streams_max", "count"},
    {"proxy.attachments_max", "count"},
    {"proxy.queue_cache_entries_max", "count"},
    {"proxy.modified_ratio", "ratio"},
    {"proxy.dropped", "count"},
    {"proxy.injected", "count"},
    {"proxy.ckpt_bytes_per_sim_s", "B/s"},
    {"proxy.ckpt_unchanged_ratio", "ratio"},
    {"proxy.recovery_detection_ms", "ms"},
    {"proxy.streams_restored_ratio", "ratio"},
    {"filters.invocations_per_pkt", "calls/pkt"},
    {"filters.bytes_dropped", "B"},
    {"filters.bytes_shrunk", "B"},
    {"filters.ttsf_segments_transformed", "count"},
    {"filters.ttsf_held_packets", "count"},
    {"filters.ttsf_acks_remapped", "count"},
    {"filters.ttsf_bypass_entries", "count"},
    {"filters.dnscache_hit_ratio", "ratio"},
    {"reassembly.compress_ratio", "ratio"},
    {"reassembly.responses_transcoded", "count"},
    {"reassembly.fail_open", "count"},
    {"reassembly.media_frames_dropped", "count"},
    {"monitor.eem_updates_sent", "count"},
    {"monitor.eem_notifies_sent", "count"},
    {"obs.snapshot_us_p50", "us"},
    {"mobileip.handoff_latency_ms", "ms"},
    {"mobileip.ha_tunnelled_pkts", "count"},
    {"apps.ops_attempted", "count"},
    {"apps.ops_failed", "count"},
    {"apps.callback_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

// One repetition. `tracer` is null for an untraced repetition.
Rep RunRep(const Options& opt, Tracer* tracer) {
  Rep rep;
  const int64_t setup_start = WallNs();
  std::unique_ptr<Workload> w = MakeWorkload(opt.workload, opt.params);
  rep.setup_s = static_cast<double>(WallNs() - setup_start) * 1e-9;
  if (tracer != nullptr) {
    w->EnableTrace(tracer);
  }
  sim::Simulator& sim = w->sim();
  std::vector<core::Host*> hosts = w->hosts();

  SliceSample peak;
  const sim::TimePoint start = sim.Now();
  sim::TimePoint next_poll = start + sim::kSecond;
  const uint64_t events_before = sim.EventsRun();
  const uint64_t allocs_before = AllocCount();
  const uint64_t alloc_bytes_before = AllocBytes();
  const double cpu_before = CpuSeconds();
  const int64_t timed_start = WallNs();
  while (sim.Now() - start < w->span()) {
    {
      ScopedSpan span(tracer, "sim.run_slice");
      sim.RunFor(kSlice);
    }
    w->AfterSlice();
    peak.queue_size = std::max(peak.queue_size, sim.QueueSize());
    uint64_t conns = 0;
    for (core::Host* h : hosts) {
      conns += h->tcp().ActiveConnections();
    }
    peak.tcp_connections = std::max(peak.tcp_connections, conns);
    uint64_t streams = 0;
    uint64_t attachments = 0;
    uint64_t cache = 0;
    double held = 0;
    for (proxy::ServiceProxy* sp : w->proxies()) {
      streams += sp->streams().size();
      attachments += static_cast<uint64_t>(sp->metrics().Read("sp.attachments").value_or(0));
      cache += sp->queue_cache().size();
      held += sp->metrics().Read("ttsf.held_packets").value_or(0);
    }
    peak.proxy_streams = std::max(peak.proxy_streams, streams);
    peak.proxy_attachments = std::max(peak.proxy_attachments, attachments);
    peak.proxy_queue_cache = std::max(peak.proxy_queue_cache, cache);
    peak.ttsf_held = std::max(peak.ttsf_held, held);
    if (sim.Now() >= next_poll) {
      // What an operator's `stats` poll costs, once per simulated second.
      ScopedSpan span(tracer, "obs.snapshot");
      const int64_t t0 = WallNs();
      const std::string text = w->operator_registry()->RenderText();
      rep.snapshot_ns.push_back(static_cast<uint32_t>(WallNs() - t0));
      next_poll += sim::kSecond;
    }
  }
  rep.wall_s = static_cast<double>(WallNs() - timed_start) * 1e-9;
  rep.cpu_s = CpuSeconds() - cpu_before;
  rep.allocs = AllocCount() - allocs_before;
  rep.alloc_bytes = AllocBytes() - alloc_bytes_before;
  rep.events = sim.EventsRun() - events_before;
  rep.sim_s = sim::DurationToSeconds(sim.Now() - start);
  rep.proxied = w->ProxiedPackets();
  rep.span_verified_bytes = w->ops().verified_bytes();

  // Drain (untimed): no new op starts; the ops still open run until they
  // finish or their deadline passes, so every op started in the span is
  // judged.
  w->StopStarting();
  const sim::TimePoint drain_start = sim.Now();
  while (w->InFlight() > 0 && sim.Now() - drain_start <= w->deadline()) {
    sim.RunFor(kSlice);
    w->AfterSlice();
  }

  std::string witness;
  std::map<std::string, double>& L = rep.layer;
  w->Finish(&witness, &L);
  for (const ForwardingTap* tap : w->taps()) {
    rep.tap_allocs += tap->allocs();
    rep.tap_packets += tap->packets();
  }
  const OpLog& ops = w->ops();
  rep.attempted = ops.attempted();
  rep.failed = ops.failed();
  rep.verified_bytes = ops.verified_bytes();
  rep.p50_ms = ops.PercentileMs(50);
  rep.p99_ms = ops.PercentileMs(99);
  rep.max_ms = ops.PercentileMs(100);

  // --- Deterministic per-layer counts (identical in every repetition) ---
  const double pkts = static_cast<double>(rep.proxied);
  L["sim.events_per_pkt"] = Ratio(static_cast<double>(rep.events), pkts);
  L["sim.queue_size_max"] = static_cast<double>(peak.queue_size);

  net::LinkSideStats drops;
  uint64_t wire_bytes = 0;
  for (net::Link* link : w->links()) {
    for (int side = 0; side < 2; ++side) {
      const net::LinkSideStats& s = link->stats(side);
      wire_bytes += s.tx_bytes;
      drops.drops_queue += s.drops_queue;
      drops.drops_error += s.drops_error;
      drops.drops_down += s.drops_down;
      drops.corrupted += s.corrupted;
    }
  }
  uint64_t forwarded = 0;
  tcp::TcpStats tcp_totals;
  uint64_t checksum_failures = 0;
  for (core::Host* h : hosts) {
    forwarded += h->stats().ip_forw_datagrams;
    const tcp::TcpStats t = h->tcp().Totals();
    tcp_totals.bytes_sent += t.bytes_sent;
    tcp_totals.bytes_retransmitted += t.bytes_retransmitted;
    tcp_totals.segments_sent += t.segments_sent;
    tcp_totals.retransmit_timeouts += t.retransmit_timeouts;
    tcp_totals.fast_retransmits += t.fast_retransmits;
    checksum_failures += h->tcp().checksum_failures();
  }
  L["net.wire_bytes_per_app_byte"] =
      Ratio(static_cast<double>(wire_bytes), static_cast<double>(rep.verified_bytes));
  L["net.drops_queue"] = static_cast<double>(drops.drops_queue);
  L["net.drops_error"] = static_cast<double>(drops.drops_error);
  L["net.drops_down"] = static_cast<double>(drops.drops_down);
  L["net.corrupted"] = static_cast<double>(drops.corrupted);
  L["net.ip_forwarded"] = static_cast<double>(forwarded);

  L["tcp.segments_per_op"] =
      Ratio(static_cast<double>(tcp_totals.segments_sent), static_cast<double>(rep.attempted));
  L["tcp.retransmit_ratio"] = Ratio(static_cast<double>(tcp_totals.bytes_retransmitted),
                                    static_cast<double>(tcp_totals.bytes_sent));
  L["tcp.retransmit_timeouts"] = static_cast<double>(tcp_totals.retransmit_timeouts);
  L["tcp.fast_retransmits"] = static_cast<double>(tcp_totals.fast_retransmits);
  L["tcp.checksum_failures"] = static_cast<double>(checksum_failures);
  L["tcp.connections_max"] = static_cast<double>(peak.tcp_connections);

  const double inspected = w->Metric("sp.packets_inspected");
  L["proxy.resolve_work_mean"] = 0;
  uint64_t resolve_count = 0;
  double resolve_sum = 0;
  for (proxy::ServiceProxy* sp : w->proxies()) {
    const double n = sp->metrics().Read("sp.queue_resolve_work.count").value_or(0);
    resolve_count += static_cast<uint64_t>(n);
    resolve_sum += n * sp->metrics().Read("sp.queue_resolve_work.mean").value_or(0);
  }
  L["proxy.resolve_work_mean"] = Ratio(resolve_sum, static_cast<double>(resolve_count));
  L["proxy.streams_max"] = static_cast<double>(peak.proxy_streams);
  L["proxy.attachments_max"] = static_cast<double>(peak.proxy_attachments);
  L["proxy.queue_cache_entries_max"] = static_cast<double>(peak.proxy_queue_cache);
  L["proxy.modified_ratio"] = Ratio(w->Metric("sp.packets_modified"), inspected);
  L["proxy.dropped"] = w->Metric("sp.packets_dropped");
  L["proxy.injected"] = w->Metric("sp.packets_injected");

  L["filters.invocations_per_pkt"] = Ratio(w->FilterField("in_packets"), inspected);
  L["filters.bytes_dropped"] = w->FilterField("bytes_dropped");
  L["filters.bytes_shrunk"] = w->FilterField("bytes_shrunk");
  L["filters.ttsf_segments_transformed"] = w->Metric("ttsf.segments_transformed");
  L["filters.ttsf_held_packets"] = peak.ttsf_held;
  L["filters.ttsf_acks_remapped"] = w->Metric("ttsf.acks_remapped");
  L["filters.ttsf_bypass_entries"] = w->Metric("ttsf.bypass_entries");
  const double hits = w->Metric("dns.cache_hits");
  L["filters.dnscache_hit_ratio"] = Ratio(hits, hits + w->Metric("dns.cache_misses"));

  L["reassembly.compress_ratio"] = Ratio(w->Metric("http.bytes_out"), w->Metric("http.bytes_in"));
  L["reassembly.responses_transcoded"] = w->Metric("http.responses_transcoded");
  L["reassembly.fail_open"] = w->Metric("http.fail_open");
  L["reassembly.media_frames_dropped"] = w->Metric("http.media_frames_dropped");

  L["monitor.eem_updates_sent"] = w->Metric("eem.server.updates_sent");
  L["monitor.eem_notifies_sent"] = w->Metric("eem.server.notifies_sent");

  L["apps.ops_attempted"] = static_cast<double>(rep.attempted);
  L["apps.ops_failed"] = static_cast<double>(rep.failed);

  // Workload-specific keys Finish did not set default to 0.
  for (const char* key : {"proxy.ckpt_bytes_per_sim_s", "proxy.ckpt_unchanged_ratio",
                          "proxy.recovery_detection_ms", "proxy.streams_restored_ratio",
                          "mobileip.handoff_latency_ms", "mobileip.ha_tunnelled_pkts"}) {
    L.emplace(key, 0.0);
  }

  // The witness: per-op outcomes plus every deterministic count above.
  char line[160];
  std::snprintf(line, sizeof(line),
                "ops=%" PRIu64 " failed=%" PRIu64 " bytes=%" PRIu64 " oplog=%016" PRIx64
                " events=%" PRIu64 " proxied=%" PRIu64 "\n",
                rep.attempted, rep.failed, rep.verified_bytes, ops.witness(), rep.events,
                rep.proxied);
  witness += line;
  for (const auto& [name, value] : L) {
    std::snprintf(line, sizeof(line), "%s=%.17g\n", name.c_str(), value);
    witness += line;
  }
  rep.witness_text = witness;
  rep.witness = sim::WitnessHash(witness);
  return rep;
}

void AddMetric(std::string* json, const std::string& name, double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json->empty() ? "" : ", ", name.c_str(), std::isfinite(value) ? value : -1.0,
                unit);
  *json += buf;
}

void WriteTrace(const Tracer& tracer, const std::string& path) {
  if (path.empty()) {
    return;
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  for (const Tracer::Span& s : tracer.spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                 ",\"parent\":%" PRId64 ",\"stream\":\"%016" PRIx64 "\"}\n",
                 s.name, s.start_ns, s.end_ns, s.parent, s.stream);
  }
  std::fclose(f);
}

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Moves the (single) thread to the turn-th allowed CPU.
void MoveToCpu(const std::vector<int>& cpus, size_t turn) {
  if (cpus.size() < 2) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[turn % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

int Usage() {
  std::fprintf(stderr,
               "usage: comma_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--inject flip-byte|stall|drop-response] "
               "[--trace-out <file>]\nworkloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt.params.tiny = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.params.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--inject" && has_value) {
      opt.params.inject = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return Usage();
    }
  }
  if (std::find(WorkloadNames().begin(), WorkloadNames().end(), opt.workload) ==
      WorkloadNames().end()) {
    return Usage();
  }

  // Repetitions rotate over the allowed CPUs, one at a time: on the 4-vCPU
  // machine the README describes, one vCPU ran this program 10-25% slower
  // than the others, and a run the scheduler leaves on one vCPU measures
  // that vCPU alone (the README gives paired spreads with and without).
  const std::vector<int> cpus = AllowedCpus();
  size_t turn = 0;

  // Extra set-up-only samples (each a few milliseconds) so setup_s is a
  // median of many even when repetitions are long.
  std::vector<double> setup_samples;
  for (int i = 0; i < 24; ++i) {
    MoveToCpu(cpus, turn++);
    const int64_t t0 = WallNs();
    std::unique_ptr<Workload> w = MakeWorkload(opt.workload, opt.params);
    setup_samples.push_back(static_cast<double>(WallNs() - t0) * 1e-9);
  }

  std::vector<Rep> plain;
  std::vector<Rep> traced;
  Tracer tracer;
  const int64_t run_start = WallNs();
  const double budget = opt.seconds;
  double longest = 0;
  for (;;) {
    const bool do_trace = opt.trace && plain.size() > traced.size();
    MoveToCpu(cpus, turn++);
    Rep rep = RunRep(opt, do_trace ? &tracer : nullptr);
    longest = std::max(longest, rep.setup_s + rep.wall_s);
    std::fprintf(stderr, "rep %zu%s: setup_s=%.6f wall_s=%.4f cpu_s=%.4f pkts/s=%.0f\n",
                 plain.size() + traced.size(), do_trace ? " traced" : "", rep.setup_s, rep.wall_s,
                 rep.cpu_s, static_cast<double>(rep.proxied) / rep.wall_s);
    setup_samples.push_back(rep.setup_s);
    (do_trace ? traced : plain).push_back(std::move(rep));
    const double elapsed = static_cast<double>(WallNs() - run_start) * 1e-9;
    const size_t min_reps = opt.trace ? 1 : 2;
    const bool enough = plain.size() >= min_reps && (!opt.trace || !traced.empty());
    // Tiny mode proves the checks, not the speed: the fewest repetitions.
    if (enough && (opt.params.tiny || elapsed + longest > budget)) {
      break;
    }
  }

  // --- Correctness gates ---
  bool correct = true;
  const Rep& first = plain.front();
  std::vector<const Rep*> all;
  for (const Rep& r : plain) {
    all.push_back(&r);
  }
  for (const Rep& r : traced) {
    all.push_back(&r);
  }
  for (const Rep* r : all) {
    if (r->witness != first.witness) {
      std::fprintf(stderr, "FAIL: witness differs between repetitions\n--- first\n%s--- other\n%s",
                   first.witness_text.c_str(), r->witness_text.c_str());
      correct = false;
      break;
    }
  }
  for (const Rep& r : plain) {
    if (r.allocs != first.allocs) {
      std::fprintf(stderr, "FAIL: allocation count differs between repetitions (%" PRIu64
                           " vs %" PRIu64 ")\n",
                   first.allocs, r.allocs);
      correct = false;
      break;
    }
  }
  if (first.failed != 0) {
    std::fprintf(stderr, "FAIL: %" PRIu64 " of %" PRIu64 " ops failed their checks\n",
                 first.failed, first.attempted);
    correct = false;
  }
  if (first.attempted == 0 || first.proxied == 0) {
    std::fprintf(stderr, "FAIL: the workload completed no op\n");
    correct = false;
  }

  std::string metrics;
  if (!opt.trace) {
    std::vector<double> pps;
    std::vector<double> speed;
    for (const Rep& r : plain) {
      pps.push_back(static_cast<double>(r.proxied) / r.wall_s);
      speed.push_back(r.sim_s / r.wall_s);
    }
    AddMetric(&metrics, "proxied_pkts_per_s", Median(pps), "1/s");
    AddMetric(&metrics, "sim_s_per_wall_s", Median(speed), "ratio");
    AddMetric(&metrics, "setup_s", Median(setup_samples), "s");
    AddMetric(&metrics, "peak_rss_mb", PeakRssMb(), "MB");
    AddMetric(&metrics, "ops_ok_ratio",
              Ratio(static_cast<double>(first.attempted - first.failed),
                    static_cast<double>(first.attempted)),
              "ratio");
    AddMetric(&metrics, "sim_goodput_kbps",
              static_cast<double>(first.span_verified_bytes) * 8.0 / 1000.0 / first.sim_s, "kbit/s");
    AddMetric(&metrics, "sim_op_p50_ms", first.p50_ms, "ms");
    AddMetric(&metrics, "sim_op_p99_ms", first.p99_ms, "ms");
    std::printf("workload=%s seed=%" PRIu64 " reps=%zu setup_samples=%zu sim_op_samples=%" PRIu64
                " sim_op_max_ms=%.3f witness=%016" PRIx64 "\n",
                opt.workload.c_str(), opt.params.seed, plain.size(), setup_samples.size(),
                first.attempted, first.max_ms, first.witness);
  } else {
    std::map<std::string, double> L = traced.front().layer;
    std::vector<double> plain_wall;
    std::vector<double> traced_wall;
    for (const Rep& r : plain) {
      plain_wall.push_back(r.wall_s);
    }
    for (const Rep& r : traced) {
      traced_wall.push_back(r.wall_s);
    }
    const double pkts = static_cast<double>(first.proxied);
    L["process.allocs_per_pkt"] = Ratio(static_cast<double>(first.allocs), pkts);
    L["process.alloc_bytes_per_pkt"] = Ratio(static_cast<double>(first.alloc_bytes), pkts);
    std::vector<double> cpu;
    for (const Rep& r : plain) {
      cpu.push_back(r.cpu_s);
    }
    L["process.cpu_s"] = Median(cpu);

    // The tracer accumulates over every traced repetition.
    double traced_total_s = 0;
    for (const double s : traced_wall) {
      traced_total_s += s;
    }
    const double slice_ns = static_cast<double>(tracer.totals("sim.run_slice").total_ns);
    const double proxy_ns = static_cast<double>(tracer.totals("proxy.on_packet").total_ns);
    const double callback_ns = static_cast<double>(tracer.totals("apps.callback").total_ns);
    const double timed_ns = traced_total_s * 1e9;
    const Tracer::Totals slice = tracer.totals("sim.run_slice");
    L["sim.slice_self_share"] = Ratio(static_cast<double>(slice.self_ns), slice_ns);
    L["proxy.on_packet_ns_p50"] = NearestRank(tracer.durations("proxy.on_packet"), 50);
    L["proxy.on_packet_ns_p99"] = NearestRank(tracer.durations("proxy.on_packet"), 99);
    L["proxy.busy_share"] = Ratio(proxy_ns, timed_ns);
    L["proxy.allocs_per_pkt"] = Ratio(static_cast<double>(traced.front().tap_allocs),
                                      static_cast<double>(traced.front().tap_packets));
    L["tcp.send_call_ns_p50"] = NearestRank(tracer.durations("tcp.send"), 50);
    std::vector<uint32_t> snaps;
    for (const Rep& r : plain) {
      snaps.insert(snaps.end(), r.snapshot_ns.begin(), r.snapshot_ns.end());
    }
    L["obs.snapshot_us_p50"] = NearestRank(snaps, 50) / 1000.0;
    L["apps.callback_share"] = Ratio(callback_ns, timed_ns);
    L["trace.overhead_ratio"] = Ratio(Median(traced_wall), Median(plain_wall));
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = L.find(m.name);
      if (it == L.end()) {
        std::fprintf(stderr, "FAIL: per-layer metric %s was not measured\n", m.name);
        correct = false;
        continue;
      }
      AddMetric(&metrics, m.name, it->second, m.unit);
    }
    std::printf("workload=%s seed=%" PRIu64 " plain_reps=%zu traced_reps=%zu spans=%zu "
                "spans_dropped=%" PRIu64 " witness=%016" PRIx64 "\n",
                opt.workload.c_str(), opt.params.seed, plain.size(), traced.size(),
                tracer.spans().size(), tracer.dropped(), first.witness);
    WriteTrace(tracer, opt.trace_out);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", first.attempted, first.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
