// conn-churn: one gateway and a closed loop of 1,500 clients on the mobile.
// Each client thinks, connects to the wired server, sends a small request,
// reads a small response, closes with FIN, and starts over; about one op in
// ten is instead a DNS lookup from a fresh UDP port through `dnscache`, and
// those flows never close. A wildcard launcher gives every TCP stream the
// read-only `tcp` and `meter` services, so thousands of live streams,
// attachments and armed TCP timers put the cost in proxy classify/resolve
// and the simulator's timer queue, while small packets keep checksum work
// small.
#include <cstring>
#include <memory>
#include <vector>

#include "perfbench/harness.h"
#include "src/apps/dns.h"
#include "src/core/comma_system.h"
#include "src/util/check.h"

namespace perfbench {
namespace {

constexpr uint16_t kServerPort = 80;
constexpr size_t kHeader = 16;  // u64 op key, u32 request length, u32 response length.
constexpr size_t kMaxRequest = kHeader + 200;
constexpr size_t kMaxResponse = 1400;
constexpr uint32_t kKindTcp = 1;
constexpr uint32_t kKindDns = 2;

struct Client {
  uint64_t id = 0;
  uint64_t op = 0;
  sim::TimePoint started = 0;
  // TCP op state.
  tcp::TcpConnection* conn = nullptr;
  uint64_t key = 0;
  uint32_t response_len = 0;
  uint32_t received = 0;
  bool mismatch = false;
  // DNS op state.
  std::unique_ptr<apps::DnsClient> dns;
  bool in_flight = false;
};

// Server half of one connection: collects the request, checks it, answers.
struct ServerConn {
  util::Bytes request;
  bool answered = false;
};

class ChurnWorkload : public Workload {
 public:
  explicit ChurnWorkload(const Params& params) : params_(params), system_(Config(params)) {
    core::WirelessScenario& sc = system_.scenario();
    server_addr_ = sc.wired_addr();
    std::string error;
    const proxy::StreamKey web{net::Ipv4Address(), 0, server_addr_, kServerPort};
    COMMA_CHECK(system_.sp().AddService("launcher", web, {"tcp", "meter"}, &error)) << error;
    const proxy::StreamKey dns{net::Ipv4Address(), 0, server_addr_, apps::DnsServer::kDnsPort};
    COMMA_CHECK(system_.sp().AddService("dnscache", dns, {"4096"}, &error)) << error;

    dns_server_ = std::make_unique<apps::DnsServer>(&sc.wired_host(), 30);
    sc.wired_host().tcp().Listen(kServerPort,
                                 [this](tcp::TcpConnection* conn) { AcceptServer(conn); });
    // Request and response bodies are windows of one seeded pool, chosen by
    // the op key; both ends check bytes against it as they arrive.
    pool_.resize(params.tiny ? 256 * 1024 : 4 * 1024 * 1024);
    FillPayload(params.seed, 0, pool_.data(), pool_.size());
    const size_t names = params.tiny ? 16 : 256;
    for (size_t i = 0; i < names; ++i) {
      names_.push_back("host" + std::to_string(Mix(params.seed, i) % 100000) + ".comma.test");
    }
    const size_t clients = params.tiny ? 100 : 1500;
    for (size_t i = 0; i < clients; ++i) {
      auto client = std::make_unique<Client>();
      client->id = i;
      clients_.push_back(std::move(client));
    }
    inject_ = MakeInjectTap(params.inject, &sc.mobile_host(), 100);
    // First ops start spread over one think interval.
    for (auto& client : clients_) {
      Client* c = client.get();
      sim().Schedule(static_cast<sim::Duration>(Mix(params.seed ^ 0x5eed, c->id) % kThinkMax),
                     [this, c] { StartOp(c); });
    }
  }

  ~ChurnWorkload() override {
    // Client sockets unbind from the mobile's UDP stack, which the system owns.
    clients_.clear();
  }

  sim::Simulator& sim() override { return system_.sim(); }
  sim::Duration span() const override {
    return params_.tiny ? 3 * sim::kSecond : 6 * sim::kSecond;
  }
  // Ops take at most 37 simulated milliseconds; the deadline also covers a
  // lost SYN (3 s initial retransmission timeout).
  sim::Duration deadline() const override { return 5 * sim::kSecond; }
  size_t InFlight() const override {
    size_t n = 0;
    for (const auto& client : clients_) {
      n += client->in_flight ? 1 : 0;
    }
    return n;
  }
  std::vector<proxy::ServiceProxy*> proxies() override { return {&system_.sp()}; }
  obs::MetricRegistry* operator_registry() override { return &system_.sp().metrics(); }
  std::vector<core::Host*> hosts() override {
    core::WirelessScenario& sc = system_.scenario();
    return {&sc.wired_host(), &sc.gateway(), &sc.mobile_host()};
  }
  std::vector<net::Link*> links() override {
    return {&system_.scenario().wired_link(), &system_.scenario().wireless_link()};
  }
  void EnableTrace(Tracer* tracer) override {
    tracer_ = tracer;
    taps_.push_back(InterposeTap(&system_.sp(), tracer));
  }
  void Finish(std::string* witness, std::map<std::string, double>*) override {
    uint64_t overdue = 0;
    for (auto& client : clients_) {
      if (client->in_flight) {
        ops_.Record(client->conn != nullptr ? kKindTcp : kKindDns, false, 0, 0);
        ++overdue;
      }
    }
    *witness += "overdue=" + std::to_string(overdue) + " dns_answered=" +
                std::to_string(dns_server_->queries_answered()) + "\n";
  }

 private:
  static constexpr sim::Duration kThinkMin = 1000 * sim::kMillisecond;
  static constexpr sim::Duration kThinkMax = 2000 * sim::kMillisecond;

  static core::CommaSystemConfig Config(const Params& params) {
    core::CommaSystemConfig config;
    config.scenario.seed = params.seed;
    config.scenario.sim.num_workers = 1;
    config.scenario.wired.bandwidth_bps = 100'000'000;
    config.scenario.wireless.bandwidth_bps = 100'000'000;
    config.scenario.wireless.loss_probability = 0;
    config.scenario.wireless.queue_limit_packets = 2048;
    config.scenario.wired.queue_limit_packets = 2048;
    config.start_command_server = false;
    config.start_eem = false;
    return config;
  }

  void StartOp(Client* c) {
    if (draining_) {
      return;
    }
    ScopedSpan span(tracer_, "apps.callback");
    const uint64_t draw = Mix(params_.seed, c->id * 1'000'003 + c->op);
    c->started = sim().Now();
    c->in_flight = true;
    c->conn = nullptr;
    if (draw % 10 == 0) {
      const std::string& name = names_[(draw >> 8) % names_.size()];
      c->dns = std::make_unique<apps::DnsClient>(&system_.scenario().mobile_host(), server_addr_);
      c->dns->Resolve(name, [this, c, name](const reassembly::DnsMessage& response) {
        ScopedSpan span(tracer_, "apps.callback");
        const uint32_t want = apps::DnsAddressFor(name).value();
        const util::Bytes expected = {static_cast<uint8_t>(want >> 24),
                                      static_cast<uint8_t>(want >> 16),
                                      static_cast<uint8_t>(want >> 8), static_cast<uint8_t>(want)};
        const bool ok = response.answers.size() == 1 && response.answers[0].rdata == expected;
        Complete(c, kKindDns, ok, ok ? name.size() : 0);
      });
      return;
    }
    c->key = draw;
    c->response_len = static_cast<uint32_t>(200 + (draw >> 16) % (kMaxResponse - 200));
    c->received = 0;
    c->mismatch = false;
    const uint32_t request_len = static_cast<uint32_t>(kHeader + (draw >> 32) % (kMaxRequest - kHeader));
    c->conn = system_.scenario().mobile_host().tcp().Connect(server_addr_, kServerPort);
    tcp::TcpConnection* conn = c->conn;
    conn->set_on_connected([this, c, conn, request_len] {
      ScopedSpan span(tracer_, "apps.callback");
      util::Bytes request(request_len);
      std::memcpy(request.data(), &c->key, 8);
      std::memcpy(request.data() + 8, &request_len, 4);
      std::memcpy(request.data() + 12, &c->response_len, 4);
      std::memcpy(request.data() + kHeader, RequestBody(c->key), request_len - kHeader);
      ScopedSpan send(tracer_, "tcp.send");
      conn->Send(request);
    });
    // A reset (the server rejects a damaged request) or a close before the
    // whole response arrived fails the op.
    conn->set_on_error([this, c, conn](const std::string&) { Fail(c, conn); });
    conn->set_on_remote_close([this, c, conn] { Fail(c, conn); });
    conn->set_on_data([this, c](const util::Bytes& data) {
      ScopedSpan span(tracer_, "apps.callback");
      if (c->received + data.size() > c->response_len ||
          std::memcmp(data.data(), ResponseBody(c->key) + c->received, data.size()) != 0) {
        c->mismatch = true;
      }
      c->received += static_cast<uint32_t>(data.size());
      if (c->received >= c->response_len) {
        c->conn->Close();
        Complete(c, kKindTcp, !c->mismatch, c->response_len);
      }
    });
  }

  void Complete(Client* c, uint32_t kind, bool ok, uint64_t bytes) {
    if (!c->in_flight) {
      return;
    }
    c->in_flight = false;
    ops_.Record(kind, ok, sim().Now() - c->started, ok ? bytes : 0);
    ++c->op;
    const uint64_t draw = Mix(params_.seed ^ 0x7417, c->id * 1'000'003 + c->op);
    sim().Schedule(kThinkMin + static_cast<sim::Duration>(draw % (kThinkMax - kThinkMin)),
                   [this, c] { StartOp(c); });
  }

  void Fail(Client* c, tcp::TcpConnection* conn) {
    if (c->conn == conn) {
      Complete(c, kKindTcp, false, 0);
    }
  }

  void AcceptServer(tcp::TcpConnection* conn) {
    auto state = std::make_shared<ServerConn>();
    conn->set_on_data([this, conn, state](const util::Bytes& data) {
      state->request.insert(state->request.end(), data.begin(), data.end());
      if (state->answered || state->request.size() < kHeader) {
        return;
      }
      uint64_t key = 0;
      uint32_t request_len = 0;
      uint32_t response_len = 0;
      std::memcpy(&key, state->request.data(), 8);
      std::memcpy(&request_len, state->request.data() + 8, 4);
      std::memcpy(&response_len, state->request.data() + 12, 4);
      if (state->request.size() < request_len) {
        return;
      }
      state->answered = true;
      // A damaged request resets the connection, which fails the client's op.
      const bool intact = state->request.size() == request_len && request_len <= kMaxRequest &&
                          response_len <= kMaxResponse &&
                          std::memcmp(state->request.data() + kHeader, RequestBody(key),
                                      request_len - kHeader) == 0;
      if (!intact) {
        conn->Abort();
        return;
      }
      conn->Send(ResponseBody(key), response_len);
    });
    conn->set_on_remote_close([conn] { conn->Close(); });
  }

  const uint8_t* RequestBody(uint64_t key) const {
    return pool_.data() + key % (pool_.size() - kMaxRequest);
  }
  const uint8_t* ResponseBody(uint64_t key) const {
    return pool_.data() + (key >> 24) % (pool_.size() - kMaxResponse);
  }

  Params params_;
  core::CommaSystem system_;
  std::vector<uint8_t> pool_;
  net::Ipv4Address server_addr_;
  std::unique_ptr<apps::DnsServer> dns_server_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unique_ptr<net::PacketTap> inject_;
  Tracer* tracer_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> MakeChurn(const Params& params) {
  return std::make_unique<ChurnWorkload>(params);
}

}  // namespace perfbench
