// obs::Counter, split out of metric_registry.h so layers *below* the
// registry can bump a pre-bound handle without seeing the registry.
//
// This is the one obs header the DESIGN.md layer DAG lets src/net include
// (enforced by comma-lint include-layering): the TraceTap sits in the net
// layer but reports capture volume through raw counter handles bound by
// whoever owns a registry. Keep this header dependency-free and the type
// header-only; anything that needs names, snapshots, or gauges belongs in
// metric_registry.h.
#ifndef COMMA_OBS_COUNTER_H_
#define COMMA_OBS_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace comma::obs {

// Monotonic event count. A relaxed atomic: handles are bumped straight from
// the packet path, and with the parallel simulator (DESIGN.md §7) those
// paths run on worker threads while `stats`/the EEM bridge snapshot from
// another. Relaxed ordering is enough — each counter is an independent
// monotone value, readers only need *a* recent value, and on the
// architectures we build for a relaxed fetch_add is a single locked add
// (~9 ns in BM_MetricCounterInc: Release build, 2.0 GHz Xeon vCPU), cheap
// enough that benches can still leave metrics on.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

}  // namespace comma::obs

#endif  // COMMA_OBS_COUNTER_H_
