// web-adapt: the full CommaSystem (EEM server and metrics bridge, command
// server) with the web-adaptive services (`tcp`, `ttsf`, `hrewrite`,
// `htype 1`) launched on every stream to the origin. A few dozen pipelining
// apps::HttpClients fetch text, layered media, images and POSTs over a
// lightly lossy wireless hop. Here the proxy rewrites payload: request
// headers, text recompressed into frames, media layers above 1 discarded,
// TTSF remapping sequence space. Every response is checked against the
// origin's deterministic body as the services should have shaped it.
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/apps/bulk.h"
#include "src/apps/http.h"
#include "src/core/comma_system.h"
#include "src/filters/http_filters.h"
#include "src/filters/transform_filters.h"
#include "src/monitor/eem_client.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace perfbench {
namespace {

constexpr uint16_t kOriginPort = 80;
constexpr int kMaxLayer = 1;  // htype's argument: media layers above 1 are discarded.

// The media body htype should deliver: `body` without frames above max_layer.
util::Bytes KeepLayers(const util::Bytes& body, int max_layer) {
  util::Bytes out;
  size_t pos = 0;
  while (body.size() - pos >= 4) {
    const size_t len = (static_cast<size_t>(body[pos + 2]) << 8) | body[pos + 3];
    if (body[pos] <= max_layer) {
      out.insert(out.end(), body.begin() + static_cast<std::ptrdiff_t>(pos),
                 body.begin() + static_cast<std::ptrdiff_t>(pos + 4 + len));
    }
    pos += 4 + len;
  }
  return out;
}

// One request kind the clients draw from, with the body the mobile must see.
struct Variant {
  apps::HttpRequestSpec spec;
  util::Bytes expected;
};

struct Page {
  std::unique_ptr<apps::HttpClient> client;
  std::vector<const Variant*> requests;
  sim::TimePoint started = 0;
  uint64_t count = 0;  // Pages this client has started.
  bool done = true;
};

class WebWorkload : public Workload {
 public:
  explicit WebWorkload(const Params& params) : params_(params), system_(Config(params)) {
    core::WirelessScenario& sc = system_.scenario();
    origin_ = sc.wired_addr();
    std::string error;
    const proxy::StreamKey web{net::Ipv4Address(), 0, origin_, kOriginPort};
    // The catalog's web-adaptive recipe (tcp, ttsf, htype 1) plus request
    // header rewriting.
    COMMA_CHECK(system_.sp().AddService(
        "launcher", web, {"tcp", "ttsf", "hrewrite", "htype:" + std::to_string(kMaxLayer)},
        &error))
        << error;
    server_ = std::make_unique<apps::HttpServer>(&sc.wired_host(), kOriginPort);
    BuildVariants();
    // An operator's monitor on the mobile: periodic updates of two bridged
    // proxy metrics and an interrupt once the proxy has transcoded anything.
    monitor_ = std::make_unique<monitor::EemClient>(&sc.mobile_host());
    for (const char* name : {"sp.packets_inspected", "http.bytes_out"}) {
      monitor_->Register({name, 0, sc.gateway_wireless_addr()}, monitor::Attr::Always());
    }
    monitor_->Register({"http.responses_transcoded", 0, sc.gateway_wireless_addr()},
                       monitor::Attr::Unary(monitor::Op::kGt, int64_t{0},
                                            monitor::NotifyMode::kInterrupt));
    const size_t clients = params.tiny ? 4 : 32;
    pages_.resize(clients);
    inject_ = MakeInjectTap(params.inject, &sc.mobile_host(), 200);
    for (size_t i = 0; i < clients; ++i) {
      sim().Schedule(static_cast<sim::Duration>(Mix(params.seed ^ 0xface, i) % kThink),
                     [this, i] { StartPage(i); });
    }
  }

  ~WebWorkload() override { pages_.clear(); }

  sim::Simulator& sim() override { return system_.sim(); }
  sim::Duration span() const override {
    return params_.tiny ? 3 * sim::kSecond : 5 * sim::kSecond;
  }
  // A page whose SYN is lost waits out TCP's 3 s initial retransmission
  // timeout; other pages take at most about 650 simulated milliseconds.
  sim::Duration deadline() const override { return 10 * sim::kSecond; }
  size_t InFlight() const override {
    size_t n = 0;
    for (const Page& page : pages_) {
      n += page.done ? 0 : page.requests.size();
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
    for (Page& page : pages_) {
      if (!page.done) {
        for (size_t i = 0; i < page.requests.size(); ++i) {
          ops_.Record(0, false, 0, 0);
        }
        ++overdue;
      }
    }
    *witness += util::Format("overdue=%llu served=%llu parse_failures=%llu\n",
                             static_cast<unsigned long long>(overdue),
                             static_cast<unsigned long long>(server_->requests_served()),
                             static_cast<unsigned long long>(server_->parse_failures()));
  }

 private:
  static constexpr sim::Duration kThink = 200 * sim::kMillisecond;

  static core::CommaSystemConfig Config(const Params& params) {
    core::CommaSystemConfig config;
    config.scenario.seed = params.seed;
    config.scenario.sim.num_workers = 1;
    config.scenario.wired.bandwidth_bps = 100'000'000;
    config.scenario.wireless.bandwidth_bps = 100'000'000;
    config.scenario.wireless.loss_probability = 0.0001;
    config.scenario.wireless.queue_limit_packets = 4096;
    config.eem.update_interval = sim::kSecond;  // The monitor below sees one update a second.
    config.scenario.wired.queue_limit_packets = 4096;
    return config;
  }

  // The request mix: text, images, layered media and POST uploads. Sizes are
  // stratified over fixed ranges — variant i of n lands in the i-th of n
  // equal slices, at a seeded point inside it — so every seed sees the same
  // size distribution while the bodies, mix and page composition change.
  // Expected bodies are generated here, at set-up.
  void BuildVariants() {
    const size_t scale = params_.tiny ? 8 : 1;
    uint64_t n = 0;
    const auto stratified = [&](size_t i, size_t count, uint64_t lo, uint64_t hi) {
      const uint64_t range = hi - lo + 1;
      return lo + (i * range + Mix(params_.seed ^ 0x3eb, n++) % range) / count;
    };
    const size_t texts = 96 / scale;
    for (size_t i = 0; i < texts; ++i) {
      const size_t len = stratified(i, texts, 4'000, 24'000);
      variants_.push_back({{"GET", util::Format("/text/%zu", len), {}}, apps::TextPayload(len)});
    }
    const size_t images = 64 / scale;
    for (size_t i = 0; i < images; ++i) {
      const size_t len = stratified(i, images, 2'000, 16'000);
      variants_.push_back(
          {{"GET", util::Format("/image/%zu", len), {}}, apps::PatternPayload(len)});
    }
    const size_t media = 64 / scale;
    for (size_t i = 0; i < media; ++i) {
      // Independent strata for the three parameters (7 and 11 are coprime
      // with the variant count).
      const int layers = 2 + static_cast<int>(i % 3);
      const int groups = static_cast<int>(stratified((i * 7) % media, media, 10, 30));
      const size_t frame = stratified((i * 11) % media, media, 200, 800);
      variants_.push_back({{"GET", util::Format("/media/%d/%d/%zu", layers, groups, frame), {}},
                           KeepLayers(apps::MediaBody(layers, groups, frame), kMaxLayer)});
    }
    const size_t posts = 32 / scale;
    for (size_t i = 0; i < posts; ++i) {
      const size_t len = stratified(i, posts, 500, 4'000);
      util::Bytes upload(len);
      FillPayload(params_.seed, len, upload.data(), upload.size());
      variants_.push_back({{"POST", "/upload", std::move(upload)},
                           util::ToBytes(util::Format("accepted %zu bytes\n", len))});
    }
  }

  void StartPage(size_t index) {
    if (draining_) {
      return;
    }
    ScopedSpan span(tracer_, "apps.callback");
    Page& page = pages_[index];
    const uint64_t draw = Mix(params_.seed, index * 1'000'003 + page.count++);
    page.requests.clear();
    std::vector<apps::HttpRequestSpec> specs;
    const size_t count = 2 + draw % 4;
    for (size_t i = 0; i < count; ++i) {
      const Variant& v = variants_[Mix(draw, i) % variants_.size()];
      page.requests.push_back(&v);
      specs.push_back(v.spec);
    }
    page.started = sim().Now();
    page.done = false;
    if (page.client != nullptr) {
      // The finished page's connection may still see its peer's FIN after
      // the client is gone; unhook it before releasing the client.
      tcp::TcpConnection* old = page.client->connection();
      old->set_on_connected([] {});
      old->set_on_data([](const util::Bytes&) {});
      old->set_on_remote_close([] {});
      old->set_on_closed([] {});
      old->set_on_error([](const std::string&) {});
      old->set_on_writable([] {});
    }
    page.client = std::make_unique<apps::HttpClient>(&system_.scenario().mobile_host(), origin_,
                                                     kOriginPort, std::move(specs));
    page.client->set_on_finished([this, index] { FinishPage(index); });
    // apps::HttpClient ignores a reset; the page then ends with the
    // responses it has.
    page.client->connection()->set_on_error([this, index](const std::string&) {
      FinishPage(index);
    });
  }

  // Checks every response of a finished page against its variant. The op
  // time of each response is the page's completion time: apps::HttpClient
  // reports completion per pipelined page.
  void FinishPage(size_t index) {
    ScopedSpan span(tracer_, "apps.callback");
    Page& page = pages_[index];
    if (page.done) {
      return;
    }
    page.done = true;
    const sim::Duration latency = sim().Now() - page.started;
    size_t received = page.client->failed() ? 0 : page.client->responses_received();
    if (params_.inject == "drop-response" && received > 0 && ops_.attempted() == 0) {
      --received;  // Must-fire: the verifier never sees the last response.
    }
    for (size_t i = 0; i < page.requests.size(); ++i) {
      const bool ok = i < received && Matches(page.client->responses()[i], *page.requests[i]);
      ops_.Record(0, ok, latency, ok ? page.requests[i]->expected.size() : 0);
    }
    const uint64_t think = Mix(params_.seed ^ 0x7417, index * 1'000'003 + page.count);
    sim().Schedule(static_cast<sim::Duration>(think % kThink), [this, index] { StartPage(index); });
  }

  static bool Matches(const reassembly::HttpMessage& response, const Variant& variant) {
    if (response.status_code != 200) {
      return false;
    }
    const std::string* encoding = response.FindHeader(filters::HtypeFilter::kEncodingHeader);
    if (encoding != nullptr && *encoding == filters::HtypeFilter::kEncodingFrames) {
      const auto decoded = filters::DecodeCompressedFrames(response.body, nullptr);
      return decoded.has_value() && *decoded == variant.expected;
    }
    return response.body == variant.expected;
  }

  Params params_;
  core::CommaSystem system_;
  net::Ipv4Address origin_;
  std::unique_ptr<apps::HttpServer> server_;
  std::unique_ptr<monitor::EemClient> monitor_;
  std::vector<Variant> variants_;
  std::vector<Page> pages_;
  std::unique_ptr<net::PacketTap> inject_;
  Tracer* tracer_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> MakeWeb(const Params& params) {
  return std::make_unique<WebWorkload>(params);
}

}  // namespace perfbench
