#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <new>

// --- Global allocation counting ---------------------------------------------
// Relaxed counters: the benchmark is single-threaded, and the totals only
// need to be exact, not ordered against other memory.

namespace {

std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (std::max<std::size_t>(n, 1) + a - 1) / a * a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfbench {

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

uint64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }
uint64_t AllocBytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }

// --- Payloads ---------------------------------------------------------------------

uint64_t Mix(uint64_t a, uint64_t b) {
  // splitmix64 finalizer over a combined word.
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void FillPayload(uint64_t key, uint64_t offset, uint8_t* out, size_t n) {
  size_t i = 0;
  while (i < n) {
    const uint64_t pos = offset + i;
    const uint64_t word = Mix(key, pos / 8);
    const size_t start = pos % 8;
    const size_t take = std::min<size_t>(8 - start, n - i);
    for (size_t b = 0; b < take; ++b) {
      out[i + b] = static_cast<uint8_t>(word >> (8 * (start + b)));
    }
    i += take;
  }
}

// --- Tracer -------------------------------------------------------------------------

size_t Tracer::Begin(const char* name, uint64_t stream) {
  int64_t stored = -1;
  const int64_t parent = stack_.empty() ? -1 : stack_.back().stored;
  const int64_t now = WallNs();
  if (spans_.size() < kMaxStored) {
    stored = static_cast<int64_t>(spans_.size());
    spans_.push_back({name, now, now, parent, stream});
  } else {
    ++dropped_;
  }
  stack_.push_back({name, now, 0, stored, stream});
  return stack_.size() - 1;
}

void Tracer::End(size_t token) {
  const int64_t now = WallNs();
  const Open open = stack_[token];
  stack_.resize(token);
  const int64_t duration = now - open.start_ns;
  if (open.stored >= 0) {
    spans_[static_cast<size_t>(open.stored)].end_ns = now;
  }
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  PerName& entry = Entry(open.name);
  ++entry.totals.count;
  entry.totals.total_ns += duration;
  entry.totals.self_ns += duration - open.child_ns;
  entry.durations.push_back(
      static_cast<uint32_t>(std::min<int64_t>(duration, std::numeric_limits<uint32_t>::max())));
}

Tracer::PerName& Tracer::Entry(const char* name) {
  for (PerName& e : per_name_) {
    if (e.name == name || std::strcmp(e.name, name) == 0) {
      return e;
    }
  }
  per_name_.push_back({name, {}, {}});
  return per_name_.back();
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  for (const PerName& e : per_name_) {
    if (name == e.name) {
      return e.totals;
    }
  }
  return {};
}

std::vector<uint32_t> Tracer::durations(const std::string& name) const {
  for (const PerName& e : per_name_) {
    if (name == e.name) {
      return e.durations;
    }
  }
  return {};
}

// --- ForwardingTap --------------------------------------------------------------------

ForwardingTap::ForwardingTap(proxy::ServiceProxy* sp, Tracer* tracer)
    : sp_(sp), tracer_(tracer) {}

ForwardingTap::~ForwardingTap() = default;

net::TapVerdict ForwardingTap::OnPacket(net::PacketPtr& packet, const net::TapContext& ctx) {
  uint64_t stream = 0;
  if (packet->has_tcp() || packet->has_udp()) {
    const proxy::StreamKey key = proxy::StreamKey::FromPacket(*packet);
    stream = Mix(Mix(key.src.value(), key.src_port), Mix(key.dst.value(), key.dst_port));
  }
  const size_t token = tracer_->Begin("proxy.on_packet", stream);
  const uint64_t allocs_before = AllocCount();
  const net::TapVerdict verdict = sp_->OnPacket(packet, ctx);
  allocs_ += AllocCount() - allocs_before;
  tracer_->End(token);
  ++packets_;
  return verdict;
}

std::unique_ptr<ForwardingTap> InterposeTap(proxy::ServiceProxy* sp, Tracer* tracer) {
  auto tap = std::make_unique<ForwardingTap>(sp, tracer);
  sp->node()->RemoveTap(sp);
  sp->node()->AddTap(tap.get());
  return tap;
}

namespace {

// Flips one byte in the payload of the `nth` data-bearing TCP segment that
// arrives at `node`, then repairs the checksums so the transport accepts
// the damage and only an end-to-end byte check can see it.
class ByteFlipTap : public net::PacketTap {
 public:
  ByteFlipTap(net::Node* node, uint64_t nth) : node_(node), nth_(nth) { node_->AddTap(this); }
  ~ByteFlipTap() override { node_->RemoveTap(this); }

  net::TapVerdict OnPacket(net::PacketPtr& packet, const net::TapContext& ctx) override {
    if (!ctx.outbound && packet->has_tcp() && !packet->payload().empty() && ++seen_ == nth_) {
      packet->payload()[packet->payload().size() / 2] ^= 0x5a;
      packet->UpdateChecksums();
    }
    return net::TapVerdict::kPass;
  }

 private:
  net::Node* node_;
  uint64_t nth_;
  uint64_t seen_ = 0;
};

// From the `nth` data-bearing TCP segment that crosses `node` on, drops
// every packet of that segment's stream in both directions. The op it
// carries stalls without an error, so only the workload's deadline can
// notice.
class StallTap : public net::PacketTap {
 public:
  StallTap(net::Node* node, uint64_t nth) : node_(node), nth_(nth) { node_->AddTap(this); }
  ~StallTap() override { node_->RemoveTap(this); }

  net::TapVerdict OnPacket(net::PacketPtr& packet, const net::TapContext&) override {
    if (!packet->has_tcp()) {
      return net::TapVerdict::kPass;
    }
    const proxy::StreamKey key = proxy::StreamKey::FromPacket(*packet);
    if (!stalled_ && !packet->payload().empty() && ++seen_ == nth_) {
      stalled_ = true;
      key_ = key;
    }
    if (stalled_ && (key == key_ || key == key_.Reversed())) {
      return net::TapVerdict::kDrop;
    }
    return net::TapVerdict::kPass;
  }

 private:
  net::Node* node_;
  uint64_t nth_;
  uint64_t seen_ = 0;
  bool stalled_ = false;
  proxy::StreamKey key_;
};

}  // namespace

std::unique_ptr<net::PacketTap> MakeInjectTap(const std::string& inject, net::Node* node,
                                              uint64_t nth) {
  if (inject == "flip-byte") {
    return std::make_unique<ByteFlipTap>(node, nth);
  }
  if (inject == "stall") {
    return std::make_unique<StallTap>(node, nth);
  }
  return nullptr;
}

std::vector<ForwardingTap*> Workload::taps() {
  std::vector<ForwardingTap*> out;
  for (const auto& tap : taps_) {
    out.push_back(tap.get());
  }
  return out;
}

// --- OpLog --------------------------------------------------------------------------

void OpLog::Record(uint32_t kind, bool ok, sim::Duration latency, uint64_t verified_bytes) {
  ++attempted_;
  if (!ok) {
    ++failed_;
  } else {
    verified_bytes_ += verified_bytes;
  }
  latencies_ms_.push_back(ok ? static_cast<double>(latency) / 1000.0
                             : std::numeric_limits<double>::infinity());
  for (const uint64_t v : {static_cast<uint64_t>(kind), static_cast<uint64_t>(ok),
                           static_cast<uint64_t>(latency), verified_bytes}) {
    witness_ = Mix(witness_, v);
  }
}

double OpLog::PercentileMs(double p) const { return NearestRank(latencies_ms_, p); }

// --- Registry helpers ---------------------------------------------------------------------

double Workload::Metric(const std::string& name) {
  double sum = 0;
  for (proxy::ServiceProxy* sp : proxies()) {
    if (const auto v = sp->metrics().Read(name)) {
      sum += *v;
    }
  }
  const auto it = retired_.find(name);
  return it == retired_.end() ? sum : sum + it->second;
}

double Workload::FilterField(const std::string& field) {
  const std::string pattern = "sp.filter.*." + field;
  double sum = 0;
  for (proxy::ServiceProxy* sp : proxies()) {
    for (const obs::MetricSample& s : sp->metrics().Snapshot(pattern)) {
      sum += s.value;
    }
  }
  for (const auto& [name, value] : retired_) {
    if (obs::MetricRegistry::Matches(pattern, name)) {
      sum += value;
    }
  }
  return sum;
}

void Workload::Retire(proxy::ServiceProxy& sp) {
  for (const obs::MetricSample& s : sp.metrics().Snapshot()) {
    if (s.kind != obs::MetricKind::kHistogram) {
      retired_[s.name] += s.value;
    }
  }
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"conn-churn", "web-adapt", "roam-failover"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const Params& params) {
  if (name == "conn-churn") {
    return MakeChurn(params);
  }
  if (name == "web-adapt") {
    return MakeWeb(params);
  }
  if (name == "roam-failover") {
    return MakeRoam(params);
  }
  return nullptr;
}

}  // namespace perfbench
