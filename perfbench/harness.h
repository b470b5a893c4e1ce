// Shared machinery of the Comma benchmark: wall and CPU clocks, the
// process-wide allocation counter, the seeded payload generator, the span
// recorder behind the traced run, the forwarding tap that times the Service
// Proxy from outside, and the per-op outcome log every workload fills.
//
// Everything here observes the program through its public interfaces; no
// file under src/ knows the benchmark exists.
#ifndef COMMA_PERFBENCH_HARNESS_H_
#define COMMA_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/host.h"
#include "src/net/link.h"
#include "src/net/node.h"
#include "src/obs/metric_registry.h"
#include "src/proxy/service_proxy.h"
#include "src/sim/simulator.h"

namespace perfbench {

using namespace comma;

// --- Clocks -----------------------------------------------------------------

int64_t WallNs();      // steady_clock, nanoseconds.
double CpuSeconds();   // Process CPU time (user + system).
double PeakRssMb();    // getrusage ru_maxrss, in MiB.

// Nearest-rank percentile (p in [0, 100]) of `v`; 0 when `v` is empty.
template <typename T>
double NearestRank(std::vector<T> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  idx = std::clamp<size_t>(idx, 1, v.size());
  return static_cast<double>(v[idx - 1]);
}

// --- Allocation counter -------------------------------------------------------
// The benchmark binary replaces global operator new/delete; these read the
// running totals (relaxed atomics, never reset).
uint64_t AllocCount();
uint64_t AllocBytes();

// --- Seeded payloads ----------------------------------------------------------
// Byte i of the stream named `key` is a pure function of (key, i), so a
// receiver can check bytes as they arrive without keeping what it received.
void FillPayload(uint64_t key, uint64_t offset, uint8_t* out, size_t n);
uint64_t Mix(uint64_t a, uint64_t b);

// --- Spans --------------------------------------------------------------------
// Records layer-boundary spans around the benchmark's own calls into the
// program. Self time (duration minus the part covered by child spans) is
// aggregated online per span name; the first kMaxStored spans are kept in
// memory and written out at exit.
class Tracer {
 public:
  static constexpr size_t kMaxStored = 50'000;

  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // Index into spans(), or -1 (root / not stored).
    uint64_t stream;
  };
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  // Opens a span; the returned token must be passed to End in LIFO order.
  size_t Begin(const char* name, uint64_t stream = 0);
  void End(size_t token);

  const std::vector<Span>& spans() const { return spans_; }
  // Totals and per-call durations (ns) for one span name; empty if the
  // name never closed.
  Totals totals(const std::string& name) const;
  std::vector<uint32_t> durations(const std::string& name) const;
  uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
    int64_t stored;  // Index in spans_, or -1.
    uint64_t stream;
  };
  // Span names are string literals: a handful of them, matched by pointer.
  struct PerName {
    const char* name;
    Totals totals;
    std::vector<uint32_t> durations;
  };
  PerName& Entry(const char* name);

  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::vector<PerName> per_name_;
  uint64_t dropped_ = 0;
};

// RAII span; a null tracer makes it free.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t stream = 0)
      : tracer_(tracer), token_(tracer != nullptr ? tracer->Begin(name, stream) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(token_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t token_;
};

// --- Forwarding tap -------------------------------------------------------------
// Stands in for a ServiceProxy on its node: forwards every packet to the
// proxy's OnPacket with the proxy's own verdict, and brackets the call with
// a `proxy.on_packet` span and an allocation count.
class ForwardingTap : public net::PacketTap {
 public:
  ForwardingTap(proxy::ServiceProxy* sp, Tracer* tracer);
  ~ForwardingTap() override;
  ForwardingTap(const ForwardingTap&) = delete;
  ForwardingTap& operator=(const ForwardingTap&) = delete;

  net::TapVerdict OnPacket(net::PacketPtr& packet, const net::TapContext& ctx) override;

  uint64_t allocs() const { return allocs_; }
  uint64_t packets() const { return packets_; }

 private:
  proxy::ServiceProxy* sp_;
  Tracer* tracer_;
  uint64_t allocs_ = 0;
  uint64_t packets_ = 0;
};

// Moves `sp` behind a ForwardingTap. The proxy must be the last tap its
// node installed (true for every gateway the workloads build), so removing
// it and appending the forwarder keeps the node's tap order.
std::unique_ptr<ForwardingTap> InterposeTap(proxy::ServiceProxy* sp, Tracer* tracer);

// Must-fire helper: the tap for Params::inject on `node`, acting on the
// `nth` data-bearing TCP segment; null unless `inject` is "flip-byte" or
// "stall".
std::unique_ptr<net::PacketTap> MakeInjectTap(const std::string& inject, net::Node* node,
                                              uint64_t nth);

// --- Op log -----------------------------------------------------------------------
// One record per finished operation, in completion order. A failed op has
// latency +inf so it misses every limit.
class OpLog {
 public:
  void Record(uint32_t kind, bool ok, sim::Duration latency, uint64_t verified_bytes);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t verified_bytes() const { return verified_bytes_; }
  uint64_t witness() const { return witness_; }
  // Latency percentile in ms over every op (failed = +inf).
  double PercentileMs(double p) const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t verified_bytes_ = 0;
  uint64_t witness_ = 1469598103934665603ULL;
  std::vector<double> latencies_ms_;
};

// --- Workload interface ------------------------------------------------------------

struct Params {
  uint64_t seed = 1;
  bool tiny = false;
  // Must-fire fault injection for the benchmark's own tests:
  // "flip-byte" corrupts one delivered payload byte (checksums fixed up so
  // only the benchmark's byte check can notice); "stall" silently drops
  // every packet of one stream; "drop-response" hides one HTTP response
  // from the verifier.
  std::string inject;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual sim::Simulator& sim() = 0;
  // Simulated time the timed region covers.
  virtual sim::Duration span() const = 0;
  // How long the drain waits for open ops; one still open then has failed.
  // Each workload sets it well above its slowest op at seeds 1-10 plus one
  // lost SYN (TCP's 3 s initial retransmission timeout).
  virtual sim::Duration deadline() const = 0;
  // Ops started and not yet finished.
  virtual size_t InFlight() const = 0;
  // Every Service Proxy the workload runs (the ones alive now).
  virtual std::vector<proxy::ServiceProxy*> proxies() = 0;
  // The registry an operator's `stats` would poll once per simulated second.
  virtual obs::MetricRegistry* operator_registry() = 0;
  virtual std::vector<core::Host*> hosts() = 0;
  virtual std::vector<net::Link*> links() = 0;
  // Wraps every proxy in a ForwardingTap and routes the workload's own
  // callbacks through `tracer` (traced run only).
  virtual void EnableTrace(Tracer* tracer) = 0;
  // Harness work between slices, such as a scripted fault.
  virtual void AfterSlice() {}
  // Final checks, after the drain: fails every op still in flight (it has
  // been open longer than deadline()) and adds the workload's deterministic
  // counters to `witness` and its per-layer counts to `layer`.
  virtual void Finish(std::string* witness, std::map<std::string, double>* layer) = 0;

  // Starts the drain: from now on no client starts a new op.
  void StopStarting() { draining_ = true; }

  OpLog& ops() { return ops_; }
  // Packets every proxy inspected so far, torn-down proxies included.
  uint64_t ProxiedPackets() { return static_cast<uint64_t>(Metric("sp.packets_inspected")); }
  std::vector<ForwardingTap*> taps();
  // A registry metric summed over the live proxies plus those already torn
  // down (see Retire); 0 when no proxy has it.
  double Metric(const std::string& name);
  // Sum of every sp.filter.<filter>.<field>, live and retired.
  double FilterField(const std::string& field);

 protected:
  // Keeps a proxy's final counter values before the workload destroys it.
  void Retire(proxy::ServiceProxy& sp);

  OpLog ops_;
  bool draining_ = false;
  std::vector<std::unique_ptr<ForwardingTap>> taps_;
  std::map<std::string, double> retired_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const Params& params);
const std::vector<std::string>& WorkloadNames();

// Per-workload constructors (one translation unit each).
std::unique_ptr<Workload> MakeChurn(const Params& params);
std::unique_ptr<Workload> MakeWeb(const Params& params);
std::unique_ptr<Workload> MakeRoam(const Params& params);

}  // namespace perfbench

#endif  // COMMA_PERFBENCH_HARNESS_H_
