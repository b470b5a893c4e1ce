// Proxy mobility (thesis §5.1.1, §10.2.3): Service Proxies merged into the
// foreign agents, with services handed off when the mobile moves.
#include "src/mobileip/proxy_handoff.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "src/apps/bulk.h"
#include "src/filters/media_filters.h"
#include "src/filters/standard_set.h"
#include "src/mobileip/scenario.h"

namespace comma::mobileip {
namespace {

class ProxyHandoffTest : public ::testing::Test {
 protected:
  ProxyHandoffTest() : scenario_(Config()) {
    sp1_ = std::make_unique<proxy::ServiceProxy>(&scenario_.fa1_router(),
                                                 filters::StandardRegistry());
    sp2_ = std::make_unique<proxy::ServiceProxy>(&scenario_.fa2_router(),
                                                 filters::StandardRegistry());
    manager_.RegisterProxy(scenario_.fa1_addr(), sp1_.get());
    manager_.RegisterProxy(scenario_.fa2_addr(), sp2_.get());
  }

  static MobileIpConfig Config() {
    MobileIpConfig cfg;
    cfg.wireless.loss_probability = 0.0;
    return cfg;
  }

  proxy::StreamKey ToMobile(uint16_t port) {
    return proxy::StreamKey{net::Ipv4Address(), 0, scenario_.mobile_home_addr(), port};
  }

  MobileIpScenario scenario_;
  std::unique_ptr<proxy::ServiceProxy> sp1_;
  std::unique_ptr<proxy::ServiceProxy> sp2_;
  ProxyHandoffManager manager_;
};

TEST_F(ProxyHandoffTest, FaProxyInterceptsTunneledTraffic) {
  // The SP on the FA router sees the *decapsulated* stream: the FA removes
  // the tunnel header, then re-injects — and the SP taps transit packets.
  scenario_.MoveToForeign1();
  scenario_.sim().RunFor(2 * sim::kSecond);
  std::string error;
  ASSERT_TRUE(sp1_->AddService("meter", ToMobile(80), {}, &error)) << error;

  apps::BulkSink sink(&scenario_.mobile(), 80);
  apps::BulkSender sender(&scenario_.correspondent(), scenario_.mobile_home_addr(), 80,
                          apps::PatternPayload(20'000));
  scenario_.sim().RunFor(30 * sim::kSecond);
  ASSERT_EQ(sink.bytes_received(), 20'000u);
  EXPECT_GT(sp1_->stats().packets_inspected, 20u);
}

TEST_F(ProxyHandoffTest, ServicesFollowTheMobile) {
  scenario_.MoveToForeign1();
  scenario_.sim().RunFor(2 * sim::kSecond);
  // A blocking service proves which proxy is in charge.
  std::string error;
  ASSERT_TRUE(sp1_->AddService("rdrop", ToMobile(81), {"100"}, &error)) << error;
  ASSERT_TRUE(sp1_->AddService("meter", ToMobile(82), {}, &error)) << error;

  const proxy::RestoreResult moved = manager_.OnHandoff(
      scenario_.mobile_home_addr(), scenario_.fa1_addr(), scenario_.fa2_addr());
  EXPECT_EQ(moved.services_restored, 2u);
  EXPECT_EQ(manager_.handoffs(), 1u);
  EXPECT_TRUE(sp1_->services().empty());
  ASSERT_EQ(sp2_->services().size(), 2u);
  EXPECT_EQ(sp2_->services()[0].filter, "rdrop");
  EXPECT_EQ(sp2_->services()[0].args, (std::vector<std::string>{"100"}));

  // The mobile moves; the transferred blocker now operates at FA2.
  scenario_.MoveToForeign2();
  scenario_.sim().RunFor(2 * sim::kSecond);
  apps::BulkSink sink(&scenario_.mobile(), 81);
  apps::BulkSender sender(&scenario_.correspondent(), scenario_.mobile_home_addr(), 81,
                          apps::PatternPayload(5'000));
  scenario_.sim().RunFor(10 * sim::kSecond);
  EXPECT_EQ(sink.bytes_received(), 0u);
  EXPECT_GT(sp2_->stats().packets_dropped, 0u);
}

TEST_F(ProxyHandoffTest, CompositeServiceTransfersInCreationOrder) {
  // tdrop depends on ttsf being attached first; the transfer must preserve
  // that ordering or re-insertion fails.
  scenario_.MoveToForeign1();
  scenario_.sim().RunFor(2 * sim::kSecond);
  std::string error;
  proxy::StreamKey key{scenario_.correspondent_addr(), 7, scenario_.mobile_home_addr(), 90};
  ASSERT_TRUE(sp1_->AddService("tcp", key, {}, &error)) << error;
  ASSERT_TRUE(sp1_->AddService("ttsf", key, {}, &error)) << error;
  ASSERT_TRUE(sp1_->AddService("tdrop", key, {"50"}, &error)) << error;

  const proxy::RestoreResult moved = manager_.OnHandoff(
      scenario_.mobile_home_addr(), scenario_.fa1_addr(), scenario_.fa2_addr());
  EXPECT_EQ(moved.services_restored, 3u);
  EXPECT_EQ(moved.services_failed, 0u);
  EXPECT_TRUE(sp2_->FindFilterOnKey(key, "ttsf") != nullptr);
  EXPECT_TRUE(sp2_->FindFilterOnKey(key, "tdrop") != nullptr);
}

TEST_F(ProxyHandoffTest, StreamSurvivesHandoffWithServices) {
  // End-to-end: a long transfer with a meter service keeps flowing across
  // the hand-off, and the service resumes counting at the new proxy.
  scenario_.MoveToForeign1();
  scenario_.sim().RunFor(2 * sim::kSecond);
  std::string error;
  ASSERT_TRUE(sp1_->AddService("meter", ToMobile(80), {}, &error)) << error;

  apps::BulkSink sink(&scenario_.mobile(), 80);
  apps::BulkSender sender(&scenario_.correspondent(), scenario_.mobile_home_addr(), 80,
                          apps::PatternPayload(600'000));
  scenario_.sim().RunFor(3 * sim::kSecond);
  ASSERT_GT(sink.bytes_received(), 0u);
  ASSERT_LT(sink.bytes_received(), 600'000u);

  // Hand off mid-stream: move the mobile, then the services.
  scenario_.MoveToForeign2();
  manager_.OnHandoff(scenario_.mobile_home_addr(), scenario_.fa1_addr(), scenario_.fa2_addr());
  scenario_.sim().RunFor(120 * sim::kSecond);
  EXPECT_EQ(sink.bytes_received(), 600'000u);

  auto* meter = dynamic_cast<filters::MeterFilter*>(
      sp2_->FindFilterOnKey(ToMobile(80), "meter"));
  ASSERT_TRUE(meter != nullptr);
  // The transferred meter counted the post-hand-off traffic.
  EXPECT_GT(sp2_->stats().packets_inspected, 0u);
}

TEST_F(ProxyHandoffTest, PlannedHandoffCarriesExportedFilterState) {
  // A live transformed stream hands off mid-transfer: the TTSF's offset map
  // and the tdrop RNG state ride along (docs/robustness.md), so the
  // destination proxy resumes with the source's exact state instead of
  // rebuilding from the wire.
  scenario_.MoveToForeign1();
  scenario_.sim().RunFor(2 * sim::kSecond);
  std::string error;
  ASSERT_TRUE(sp1_->AddService("launcher", ToMobile(80), {"tcp", "ttsf", "tdrop:0:5"}, &error))
      << error;

  apps::BulkSink sink(&scenario_.mobile(), 80);
  apps::BulkSender sender(&scenario_.correspondent(), scenario_.mobile_home_addr(), 80,
                          apps::PatternPayload(600'000));
  scenario_.sim().RunFor(3 * sim::kSecond);
  ASSERT_GT(sink.bytes_received(), 0u);
  ASSERT_LT(sink.bytes_received(), 600'000u);

  scenario_.MoveToForeign2();
  const proxy::RestoreResult moved = manager_.OnHandoff(
      scenario_.mobile_home_addr(), scenario_.fa1_addr(), scenario_.fa2_addr());
  ASSERT_GT(moved.services_restored, 0u);
  // The per-stream ttsf and tdrop are checkpointable: their state moved.
  EXPECT_GE(moved.state_imported, 2u);
  EXPECT_EQ(moved.state_rebuilt, 0u);
  EXPECT_EQ(moved.services_failed, 0u);
  EXPECT_EQ(moved.streams_rebuilt, 0u);

  // The in-flight stream completes through the destination proxy.
  scenario_.sim().RunFor(120 * sim::kSecond);
  EXPECT_EQ(sink.bytes_received(), 600'000u);
}

TEST_F(ProxyHandoffTest, StatelessServicesRestoreWithoutState) {
  scenario_.MoveToForeign1();
  scenario_.sim().RunFor(2 * sim::kSecond);
  std::string error;
  // meter keeps no exportable state; the hand-off re-creates it fresh, and
  // that is by design, not a lost import.
  ASSERT_TRUE(sp1_->AddService("meter", ToMobile(82), {}, &error)) << error;

  const proxy::RestoreResult moved = manager_.OnHandoff(
      scenario_.mobile_home_addr(), scenario_.fa1_addr(), scenario_.fa2_addr());
  EXPECT_EQ(moved.services_restored, 1u);
  EXPECT_EQ(moved.state_imported, 0u);
  EXPECT_EQ(moved.state_rebuilt, 0u);
  EXPECT_EQ(moved.services_failed, 0u);
  ASSERT_EQ(sp2_->services().size(), 1u);
  EXPECT_EQ(sp2_->services()[0].filter, "meter");
}

TEST_F(ProxyHandoffTest, PlannedHandoffMovesEachServiceOnce) {
  // A launcher spawns tcp/ttsf/tdrop on a live stream, then the mobile hands
  // off. The stream is adopted at FA2 with its services, so the launcher
  // that moved with it must not fire again there when traffic resumes.
  scenario_.MoveToForeign1();
  scenario_.sim().RunFor(2 * sim::kSecond);
  std::string error;
  ASSERT_TRUE(sp1_->AddService("launcher", ToMobile(80), {"tcp", "ttsf", "tdrop:0:5"}, &error))
      << error;

  apps::BulkSink sink(&scenario_.mobile(), 80);
  apps::BulkSender sender(&scenario_.correspondent(), scenario_.mobile_home_addr(), 80,
                          apps::PatternPayload(600'000));
  scenario_.sim().RunFor(3 * sim::kSecond);
  ASSERT_GT(sink.bytes_received(), 0u);
  ASSERT_LT(sink.bytes_received(), 600'000u);
  std::vector<proxy::StreamKey> moved_streams;
  for (const auto& [key, info] : sp1_->streams()) {
    if (KeyConcernsMobile(key, scenario_.mobile_home_addr())) {
      moved_streams.push_back(key);
    }
  }
  ASSERT_FALSE(moved_streams.empty());

  scenario_.MoveToForeign2();
  const proxy::RestoreResult moved = manager_.OnHandoff(
      scenario_.mobile_home_addr(), scenario_.fa1_addr(), scenario_.fa2_addr());
  EXPECT_EQ(moved.services_restored, 4u);  // launcher + tcp, ttsf, tdrop.
  EXPECT_EQ(moved.streams_restored, moved_streams.size());
  // FA1 keeps nothing of what moved.
  EXPECT_TRUE(sp1_->services().empty());
  for (const proxy::StreamKey& key : moved_streams) {
    EXPECT_EQ(sp1_->streams().count(key), 0u) << key.ToString();
  }

  const uint64_t inspected_before = sp2_->stats().packets_inspected;
  scenario_.sim().RunFor(sim::kSecond);
  ASSERT_GT(sp2_->stats().packets_inspected, inspected_before);  // Traffic resumed at FA2.
  std::map<std::pair<std::string, proxy::StreamKey>, int> records;
  for (const auto& record : sp2_->services()) {
    ++records[{record.filter, record.key}];
  }
  EXPECT_EQ(records.size(), 4u);
  for (const auto& [service, count] : records) {
    EXPECT_EQ(count, 1) << service.first << " on " << service.second.ToString();
  }
  EXPECT_TRUE(sp1_->services().empty());
  for (const proxy::StreamKey& key : moved_streams) {
    EXPECT_EQ(sp1_->streams().count(key), 0u) << key.ToString();
  }

  scenario_.sim().RunFor(120 * sim::kSecond);
  EXPECT_EQ(sink.bytes_received(), 600'000u);
}

TEST_F(ProxyHandoffTest, HandoffAndTakeoverRestoreTheSameState) {
  // The planned path (OnHandoff) and the takeover path (RestoreFromCheckpoint
  // on a capture of the same instant) must rebuild identical proxies.
  scenario_.MoveToForeign1();
  scenario_.sim().RunFor(2 * sim::kSecond);
  std::string error;
  ASSERT_TRUE(sp1_->AddService("launcher", ToMobile(80), {"tcp", "ttsf", "tdrop:30:5"}, &error))
      << error;
  apps::BulkSink sink(&scenario_.mobile(), 80);
  apps::BulkSender sender(&scenario_.correspondent(), scenario_.mobile_home_addr(), 80,
                          apps::PatternPayload(600'000));
  scenario_.sim().RunFor(3 * sim::kSecond);
  ASSERT_GT(sink.bytes_received(), 0u);
  ASSERT_LT(sink.bytes_received(), 600'000u);

  // The takeover destination sits on a router the test never runs traffic
  // through again.
  proxy::ServiceProxy standby(&scenario_.backbone(), filters::StandardRegistry());
  const net::Ipv4Address mobile = scenario_.mobile_home_addr();
  const proxy::CheckpointState capture = proxy::CaptureState(
      *sp1_, [mobile](const proxy::StreamKey& key) { return KeyConcernsMobile(key, mobile); });
  const proxy::RestoreResult by_takeover = proxy::RestoreFromCheckpoint(capture, standby);
  const proxy::RestoreResult by_handoff =
      manager_.OnHandoff(mobile, scenario_.fa1_addr(), scenario_.fa2_addr());

  EXPECT_EQ(by_handoff.services_restored, by_takeover.services_restored);
  EXPECT_EQ(by_handoff.state_imported, by_takeover.state_imported);
  EXPECT_GE(by_handoff.state_imported, 2u);
  EXPECT_EQ(by_handoff.streams_restored, by_takeover.streams_restored);
  ASSERT_EQ(sp2_->services().size(), standby.services().size());
  for (size_t i = 0; i < standby.services().size(); ++i) {
    const auto& planned = sp2_->services()[i];
    const auto& restored = standby.services()[i];
    EXPECT_EQ(planned.filter, restored.filter);
    EXPECT_EQ(planned.key, restored.key);
    EXPECT_EQ(planned.args, restored.args);
    util::Bytes planned_blob;
    util::Bytes restored_blob;
    EXPECT_EQ(planned.instance->ExportState(&planned_blob),
              restored.instance->ExportState(&restored_blob));
    EXPECT_EQ(planned_blob, restored_blob) << planned.filter << " on " << planned.key.ToString();
  }
}

TEST_F(ProxyHandoffTest, UnknownCareOfAddressesAreIgnored) {
  std::string error;
  ASSERT_TRUE(sp1_->AddService("meter", ToMobile(82), {}, &error)) << error;
  EXPECT_EQ(manager_.OnHandoff(scenario_.mobile_home_addr(), net::Ipv4Address(9, 9, 9, 9),
                               scenario_.fa2_addr())
                .services_restored,
            0u);
  EXPECT_EQ(manager_.OnHandoff(scenario_.mobile_home_addr(), scenario_.fa1_addr(),
                               scenario_.fa1_addr())
                .services_restored,
            0u);
  EXPECT_EQ(manager_.handoffs(), 0u);
  EXPECT_EQ(sp1_->services().size(), 1u);
}

}  // namespace
}  // namespace comma::mobileip
