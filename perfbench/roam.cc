// roam-failover: the FailoverSystem — Mobile IP with the home agent
// tunnelling every data packet to FA1, whose proxy checkpoints its streams
// to the warm standby FA2 every 100 ms. A few hundred streams from the
// correspondent to the mobile run request/response exchanges through the
// chaos soak's services (`tcp`, `ttsf`, `tdrop 0`). The primary crashes once
// at a fixed simulated time and the standby takes over, restores the
// checkpointed streams and re-registers the mobile. This is the only
// workload where mobileip tunnelling and proxy checkpoint export,
// replication and restore run.
#include <cstring>
#include <memory>
#include <vector>

#include "perfbench/harness.h"
#include "src/core/failover_system.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace perfbench {
namespace {

constexpr uint16_t kPort = 7000;
constexpr size_t kHeader = 16;  // u64 op key, u32 request length, u32 response length.
constexpr size_t kMaxRequest = kHeader + 240;
constexpr size_t kMaxResponse = 2048;

struct Stream {
  uint64_t id = 0;
  uint64_t op = 0;
  tcp::TcpConnection* conn = nullptr;
  uint64_t key = 0;
  uint32_t response_len = 0;
  uint32_t received = 0;
  bool mismatch = false;
  bool in_flight = false;
  sim::TimePoint started = 0;
};

class RoamWorkload : public Workload {
 public:
  explicit RoamWorkload(const Params& params) : params_(params), system_(Config(params)) {
    mobileip::MobileIpScenario& sc = system_.scenario();
    system_.Start();
    ckpt_from_ = sim().Now();
    std::string error;
    const proxy::StreamKey wildcard{net::Ipv4Address(), 0, sc.mobile_home_addr(), kPort};
    COMMA_CHECK(system_.primary_sp()->AddService(
        "launcher", wildcard, {"tcp", "ttsf", "tdrop:0:" + std::to_string(params.seed)}, &error))
        << error;

    pool_.resize(params.tiny ? 256 * 1024 : 4 * 1024 * 1024);
    FillPayload(params.seed, 0, pool_.data(), pool_.size());
    sc.mobile().tcp().Listen(kPort, [this](tcp::TcpConnection* conn) { AcceptServer(conn); });

    const size_t streams = params.tiny ? 20 : 600;
    for (size_t i = 0; i < streams; ++i) {
      auto s = std::make_unique<Stream>();
      s->id = i;
      streams_.push_back(std::move(s));
    }
    inject_ = MakeInjectTap(params.inject, &sc.correspondent(), 100);
    // Streams open once the first registration has settled (as in the
    // chaos soak), spread over 200 ms.
    for (auto& stream : streams_) {
      Stream* s = stream.get();
      sim().Schedule(sim::kSecond + static_cast<sim::Duration>(
                                        Mix(params.seed ^ 0x0bee, s->id) % (200 * sim::kMillisecond)),
                     [this, s] { Open(s); });
    }
  }

  ~RoamWorkload() override { streams_.clear(); }

  sim::Simulator& sim() override { return system_.sim(); }
  sim::Duration span() const override {
    return params_.tiny ? 5 * sim::kSecond : 12 * sim::kSecond;
  }
  // An exchange caught by the crash waits out crash detection, the
  // takeover and re-registration: up to 3.2 simulated seconds.
  sim::Duration deadline() const override { return 10 * sim::kSecond; }
  size_t InFlight() const override {
    size_t n = 0;
    for (const auto& s : streams_) {
      n += s->in_flight ? 1 : 0;
    }
    return n;
  }
  std::vector<proxy::ServiceProxy*> proxies() override {
    std::vector<proxy::ServiceProxy*> out;
    if (system_.primary_sp() != nullptr) {
      out.push_back(system_.primary_sp());
    }
    out.push_back(&system_.standby_sp());
    return out;
  }
  obs::MetricRegistry* operator_registry() override {
    return system_.primary_sp() != nullptr ? &system_.primary_sp()->metrics()
                                           : &system_.standby_sp().metrics();
  }
  std::vector<core::Host*> hosts() override {
    mobileip::MobileIpScenario& sc = system_.scenario();
    return {&sc.correspondent(), &sc.backbone(),   &sc.ha_router(),
            &sc.fa1_router(),    &sc.fa2_router(), &sc.mobile()};
  }
  std::vector<net::Link*> links() override {
    mobileip::MobileIpScenario& sc = system_.scenario();
    return {&sc.backhaul1(), &sc.backhaul2(), &sc.home_link(), &sc.wireless1(), &sc.wireless2()};
  }
  void EnableTrace(Tracer* tracer) override {
    tracer_ = tracer;
    for (proxy::ServiceProxy* sp : proxies()) {
      taps_.push_back(InterposeTap(sp, tracer));
    }
  }
  void AfterSlice() override {
    if (crashed_ || sim().Now() < CrashAt()) {
      return;
    }
    // The unplanned primary crash, at a slice boundary so the benchmark can
    // keep the dying proxy's counters and unhook its forwarding tap first.
    crashed_ = true;
    proxy::ServiceProxy* primary = system_.primary_sp();
    if (const proxy::CheckpointManager* m = system_.checkpoint_manager()) {
      ckpt_ = m->stats();
      ckpt_until_ = sim().Now();
    }
    Retire(*primary);
    for (auto& tap : taps_) {
      primary->node()->RemoveTap(tap.get());
    }
    system_.CrashPrimary();
  }
  void Finish(std::string* witness, std::map<std::string, double>* layer) override {
    uint64_t overdue = 0;
    for (auto& s : streams_) {
      if (s->in_flight) {
        Fail(s.get());
        ++overdue;
      }
    }
    const core::FailoverRecovery& r = system_.recovery();
    // The primary replicated from Start until the crash.
    const double ckpt_s = sim::DurationToSeconds(ckpt_until_ - ckpt_from_);
    (*layer)["proxy.ckpt_bytes_per_sim_s"] =
        ckpt_s > 0 ? static_cast<double>(ckpt_.bytes_sent) / ckpt_s : 0.0;
    (*layer)["proxy.ckpt_unchanged_ratio"] =
        static_cast<double>(ckpt_.blobs_unchanged) /
        static_cast<double>(std::max<uint64_t>(1, ckpt_.blobs_sent + ckpt_.blobs_unchanged));
    (*layer)["proxy.recovery_detection_ms"] =
        r.taken_over ? static_cast<double>(r.takeover_at - r.crash_at) / 1000.0 : 0.0;
    (*layer)["proxy.streams_restored_ratio"] =
        static_cast<double>(r.restore.streams_restored) /
        static_cast<double>(std::max<uint64_t>(1, r.pre_crash_streams));
    (*layer)["mobileip.handoff_latency_ms"] = Metric("mip.last_handoff_latency_us") / 1000.0;
    (*layer)["mobileip.ha_tunnelled_pkts"] =
        static_cast<double>(system_.scenario().home_agent().stats().packets_tunneled);
    *witness += util::Format(
        "overdue=%llu crashed=%d taken_over=%d crash_at=%lld takeover_at=%lld pre_crash=%llu "
        "restored=%llu rebuilt=%llu\n",
        static_cast<unsigned long long>(overdue), r.crashed ? 1 : 0, r.taken_over ? 1 : 0,
        static_cast<long long>(r.crash_at), static_cast<long long>(r.takeover_at),
        static_cast<unsigned long long>(r.pre_crash_streams),
        static_cast<unsigned long long>(r.restore.streams_restored),
        static_cast<unsigned long long>(r.restore.streams_rebuilt));
    if (!r.taken_over) {
      ops_.Record(0, false, 0, 0);  // The standby never took over: the run fails.
    }
  }

 private:
  static constexpr sim::Duration kThinkMin = 150 * sim::kMillisecond;
  static constexpr sim::Duration kThinkMax = 350 * sim::kMillisecond;

  sim::TimePoint CrashAt() const { return params_.tiny ? 2 * sim::kSecond : 5 * sim::kSecond; }

  static core::FailoverConfig Config(const Params& params) {
    core::FailoverConfig config;
    config.scenario.seed = params.seed;
    config.scenario.sim.num_workers = 1;
    config.scenario.wired.bandwidth_bps = 100'000'000;
    config.scenario.wired.queue_limit_packets = 1024;
    config.scenario.wireless.bandwidth_bps = 20'000'000;
    config.scenario.wireless.loss_probability = 0.0001;
    config.scenario.wireless.queue_limit_packets = 1024;
    return config;
  }

  const uint8_t* RequestBody(uint64_t key) const {
    return pool_.data() + key % (pool_.size() - kMaxRequest);
  }
  const uint8_t* ResponseBody(uint64_t key) const {
    return pool_.data() + (key >> 24) % (pool_.size() - kMaxResponse);
  }

  // The stream's first op starts with the connect, so a stream that never
  // connects still leaves an op to judge.
  void Open(Stream* s) {
    s->in_flight = true;
    s->started = sim().Now();
    mobileip::MobileIpScenario& sc = system_.scenario();
    s->conn = sc.correspondent().tcp().Connect(sc.mobile_home_addr(), kPort);
    s->conn->set_on_connected([this, s] { Exchange(s); });
    // A reset (the mobile rejects a damaged request) fails the open op and
    // ends the stream.
    s->conn->set_on_error([this, s](const std::string&) { Fail(s); });
    s->conn->set_on_data([this, s](const util::Bytes& data) {
      ScopedSpan span(tracer_, "apps.callback");
      if (s->received + data.size() > s->response_len ||
          std::memcmp(data.data(), ResponseBody(s->key) + s->received, data.size()) != 0) {
        s->mismatch = true;
      }
      s->received += static_cast<uint32_t>(data.size());
      if (s->received >= s->response_len && s->in_flight) {
        s->in_flight = false;
        const bool ok = !s->mismatch && s->received == s->response_len;
        ops_.Record(0, ok, sim().Now() - s->started, ok ? s->response_len : 0);
        ++s->op;
        const uint64_t think = Mix(params_.seed ^ 0x7417, s->id * 1'000'003 + s->op);
        sim().Schedule(kThinkMin + static_cast<sim::Duration>(think % (kThinkMax - kThinkMin)),
                       [this, s] { Exchange(s); });
      }
    });
  }

  void Fail(Stream* s) {
    if (s->in_flight) {
      s->in_flight = false;
      ops_.Record(0, false, 0, 0);
    }
  }

  void Exchange(Stream* s) {
    if (!s->in_flight) {
      if (draining_) {
        return;
      }
      s->in_flight = true;
      s->started = sim().Now();
    }
    ScopedSpan span(tracer_, "apps.callback");
    const uint64_t draw = Mix(params_.seed, s->id * 1'000'003 + s->op);
    s->key = draw;
    s->response_len = static_cast<uint32_t>(256 + (draw >> 16) % (kMaxResponse - 256));
    s->received = 0;
    s->mismatch = false;
    const uint32_t request_len = static_cast<uint32_t>(kHeader + (draw >> 40) % (kMaxRequest - kHeader));
    util::Bytes request(request_len);
    std::memcpy(request.data(), &s->key, 8);
    std::memcpy(request.data() + 8, &request_len, 4);
    std::memcpy(request.data() + 12, &s->response_len, 4);
    std::memcpy(request.data() + kHeader, RequestBody(s->key), request_len - kHeader);
    ScopedSpan send(tracer_, "tcp.send");
    s->conn->Send(request);
  }

  // Mobile-side server: answers each complete request on the connection in
  // turn, or resets the connection when a request's bytes are damaged.
  void AcceptServer(tcp::TcpConnection* conn) {
    auto buffer = std::make_shared<util::Bytes>();
    conn->set_on_data([this, conn, buffer](const util::Bytes& data) {
      buffer->insert(buffer->end(), data.begin(), data.end());
      while (buffer->size() >= kHeader) {
        uint64_t key = 0;
        uint32_t request_len = 0;
        uint32_t response_len = 0;
        std::memcpy(&key, buffer->data(), 8);
        std::memcpy(&request_len, buffer->data() + 8, 4);
        std::memcpy(&response_len, buffer->data() + 12, 4);
        if (request_len < kHeader || request_len > kMaxRequest || response_len > kMaxResponse ||
            (buffer->size() >= request_len &&
             std::memcmp(buffer->data() + kHeader, RequestBody(key), request_len - kHeader) != 0)) {
          conn->Abort();
          return;
        }
        if (buffer->size() < request_len) {
          return;
        }
        buffer->erase(buffer->begin(), buffer->begin() + request_len);
        conn->Send(ResponseBody(key), response_len);
      }
    });
    conn->set_on_remote_close([conn] { conn->Close(); });
  }

  Params params_;
  core::FailoverSystem system_;
  std::vector<uint8_t> pool_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::unique_ptr<net::PacketTap> inject_;
  proxy::CheckpointStats ckpt_;
  sim::TimePoint ckpt_from_ = 0;
  sim::TimePoint ckpt_until_ = 0;
  bool crashed_ = false;
  Tracer* tracer_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> MakeRoam(const Params& params) {
  return std::make_unique<RoamWorkload>(params);
}

}  // namespace perfbench
