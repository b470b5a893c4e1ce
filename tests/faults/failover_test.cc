// Stateful proxy failover (docs/robustness.md, "Checkpoint & failover"):
// filter-state export/import round-trips, warm-standby takeover after an
// unplanned gateway crash, and the degradation paths (stale TTSF state ->
// bypass-and-drain; unrestorable services -> pass-through).
#include "src/core/failover_system.h"

#include <gtest/gtest.h>

#include "src/apps/bulk.h"
#include "src/core/scenario.h"
#include "src/filters/standard_set.h"
#include "src/filters/transform_filters.h"
#include "src/filters/ttsf_filter.h"
#include "src/proxy/checkpoint.h"
#include "src/proxy/service_proxy.h"

namespace comma::core {
namespace {

using proxy::StreamKey;

constexpr uint32_t kIss = 5000;       // Client initial seq.
constexpr uint32_t kServerIss = 900;  // Server initial seq.
constexpr uint32_t kData = kIss + 1;

// A length-preserving transformer: every data payload is XOR-scrambled
// through the TTSF. Builds real (non-identity) sequence-map records while
// keeping input and output spaces aligned — the state shape a checkpoint can
// always restore or resync without stalling the stream.
class ScrambleFilter : public filters::TransformFilterBase {
 public:
  ScrambleFilter() : TransformFilterBase("scramble") {}
  std::string Status() const override { return "scramble"; }

 protected:
  bool Configure(const std::vector<std::string>&, std::string*) override { return true; }
  std::optional<util::Bytes> Transform(const net::Packet& packet) override {
    util::Bytes out = packet.payload();
    for (auto& b : out) {
      b ^= 0x5a;
    }
    return out;
  }
};

void RegisterScramble(proxy::FilterRegistry& registry) {
  registry.Register("scramble", "test: XOR payload through the ttsf",
                    [] { return std::make_unique<ScrambleFilter>(); });
  registry.Load("scramble");
}

// ---------------------------------------------------------------------------
// TTSF state contract: export/import round-trips fed with crafted packets.
// ---------------------------------------------------------------------------

class FaultTtsfStateTest : public ::testing::Test {
 protected:
  FaultTtsfStateTest() {
    ScenarioConfig cfg;
    cfg.wireless.loss_probability = 0.0;
    scenario_ = std::make_unique<WirelessScenario>(cfg);
    sp1_ = std::make_unique<proxy::ServiceProxy>(&scenario_->gateway(),
                                                 filters::StandardRegistry());
    sp2_ = std::make_unique<proxy::ServiceProxy>(&scenario_->mobile_host(),
                                                 filters::StandardRegistry());
    key_ = StreamKey{scenario_->wired_addr(), 7, scenario_->mobile_addr(), 80};
    ttsf1_ = AddTtsf(*sp1_);
    // Establish both directions' mapping state on the source.
    Feed(*sp1_, &scenario_->gateway(), MakeSegment(kIss, {}, net::kTcpSyn));
    Feed(*sp1_, &scenario_->gateway(),
         MakeReverse(kServerIss, kIss + 1, net::kTcpSyn | net::kTcpAck));
  }

  filters::TtsfFilter* AddTtsf(proxy::ServiceProxy& sp) {
    std::string error;
    EXPECT_TRUE(sp.AddService("ttsf", key_, {}, &error)) << error;
    auto* ttsf = dynamic_cast<filters::TtsfFilter*>(sp.FindFilterOnKey(key_, "ttsf"));
    EXPECT_TRUE(ttsf != nullptr);
    return ttsf;
  }

  net::PacketPtr MakeSegment(uint32_t seq, util::Bytes payload, uint8_t flags = net::kTcpAck) {
    net::TcpHeader h;
    h.src_port = 7;
    h.dst_port = 80;
    h.seq = seq;
    h.ack = kServerIss + 1;
    h.flags = flags;
    h.window = 8192;
    return net::Packet::MakeTcp(scenario_->wired_addr(), scenario_->mobile_addr(), h,
                                std::move(payload));
  }

  net::PacketPtr MakeReverse(uint32_t seq, uint32_t ack, uint8_t flags = net::kTcpAck) {
    net::TcpHeader h;
    h.src_port = 80;
    h.dst_port = 7;
    h.seq = seq;
    h.ack = ack;
    h.flags = flags;
    h.window = 16384;
    return net::Packet::MakeTcp(scenario_->mobile_addr(), scenario_->wired_addr(), h, {});
  }

  std::pair<bool, net::PacketPtr> Feed(proxy::ServiceProxy& sp, net::Node* node,
                                       net::PacketPtr p) {
    net::TapContext ctx{node, 0};
    const net::TapVerdict verdict = sp.OnPacket(p, ctx);
    return {verdict == net::TapVerdict::kPass, std::move(p)};
  }

  static util::Bytes Fill(size_t n, uint8_t value) { return util::Bytes(n, value); }

  // Runs a real 100 -> 40 transform through the source TTSF so it holds a
  // non-identity record with a cached replay payload.
  void TransformFirstSegment() {
    auto p = MakeSegment(kData, Fill(100, 1));
    ttsf1_->SubmitTransform(*p, Fill(40, 9));
    net::TapContext ctx{&scenario_->gateway(), 0};
    sp1_->OnPacket(p, ctx);
    ASSERT_EQ(p->payload(), Fill(40, 9));
  }

  std::unique_ptr<WirelessScenario> scenario_;
  std::unique_ptr<proxy::ServiceProxy> sp1_;
  std::unique_ptr<proxy::ServiceProxy> sp2_;
  StreamKey key_;
  filters::TtsfFilter* ttsf1_ = nullptr;
};

TEST_F(FaultTtsfStateTest, ExportImportRoundTripReplaysCachedTransforms) {
  TransformFirstSegment();

  util::Bytes blob;
  ASSERT_EQ(ttsf1_->state_kind(), proxy::FilterStateKind::kCheckpointed);
  ASSERT_TRUE(ttsf1_->ExportState(&blob));

  filters::TtsfFilter* ttsf2 = AddTtsf(*sp2_);
  std::string error;
  ASSERT_TRUE(ttsf2->ImportState(sp2_->context(), blob, &error)) << error;

  // An exact retransmission (data at or below the restored frontier)
  // confirms the map and replays the cached 40-byte image byte-for-byte.
  auto [pass, rtx] = Feed(*sp2_, &scenario_->mobile_host(), MakeSegment(kData, Fill(100, 1)));
  ASSERT_TRUE(pass);
  EXPECT_EQ(rtx->tcp().seq, kData);
  EXPECT_EQ(rtx->payload(), Fill(40, 9));
  EXPECT_FALSE(ttsf2->bypassed(key_));
  EXPECT_EQ(ttsf2->stats().retransmissions_replayed, 1u);

  // With the map confirmed, new data continues the shifted output space.
  auto [pass2, next] = Feed(*sp2_, &scenario_->mobile_host(),
                            MakeSegment(kData + 100, Fill(50, 2)));
  ASSERT_TRUE(pass2);
  EXPECT_EQ(next->tcp().seq, kData + 40);
  EXPECT_FALSE(ttsf2->bypassed(key_));

  // And acks from the mobile remap through the restored records: an ack at
  // the output-space record boundary acknowledges the whole original record.
  auto [pass3, ack] = Feed(*sp2_, &scenario_->mobile_host(),
                           MakeReverse(kServerIss + 1, kData + 40));
  ASSERT_TRUE(pass3);
  EXPECT_EQ(ack->tcp().ack, kData + 100);
}

TEST_F(FaultTtsfStateTest, StaleCheckpointEntersBypassAndDrain) {
  // Source transformed (so transforms_used is set), state exported — and
  // then the stream moved on: the standby's first packet lands BEYOND the
  // restored frontier. Applying the stale map could corrupt the stream, so
  // the TTSF degrades the pair to bypass (frozen shift) instead.
  TransformFirstSegment();
  util::Bytes blob;
  ASSERT_TRUE(ttsf1_->ExportState(&blob));

  filters::TtsfFilter* ttsf2 = AddTtsf(*sp2_);
  std::string error;
  ASSERT_TRUE(ttsf2->ImportState(sp2_->context(), blob, &error)) << error;

  // Data at the restored frontier is normal progress; data STRICTLY beyond
  // it implies segments the crashed gateway transformed after the last
  // checkpoint — the stale case.
  auto [pass, p] = Feed(*sp2_, &scenario_->mobile_host(),
                        MakeSegment(kData + 200, Fill(50, 2)));
  ASSERT_TRUE(pass);
  EXPECT_TRUE(ttsf2->bypassed(key_));
  EXPECT_EQ(ttsf2->stats().bypass_entries, 1u);
  EXPECT_FALSE(ttsf2->bypass_reason().empty());
  // The frozen shift (-60 from the 100->40 record) still applies, so the
  // bypassed stream stays seam-free for whatever the mobile already saw.
  EXPECT_EQ(p->tcp().seq, kData + 140);
}

TEST_F(FaultTtsfStateTest, ImportRejectsForeignAndTruncatedBlobs) {
  filters::TtsfFilter* ttsf2 = AddTtsf(*sp2_);
  std::string error;
  EXPECT_FALSE(ttsf2->ImportState(sp2_->context(), util::Bytes{1, 2, 3}, &error));
  EXPECT_FALSE(error.empty());

  TransformFirstSegment();
  util::Bytes blob;
  ASSERT_TRUE(ttsf1_->ExportState(&blob));
  util::Bytes truncated(blob.begin(), blob.begin() + blob.size() / 2);
  EXPECT_FALSE(ttsf2->ImportState(sp2_->context(), truncated, &error));
}

// ---------------------------------------------------------------------------
// RestoreFromCheckpoint degradation paths (no simulation run needed).
// ---------------------------------------------------------------------------

TEST(FaultRestoreTest, StandbyRejectingFilterLoadCountsServicesFailed) {
  ScenarioConfig cfg;
  WirelessScenario scenario(cfg);
  proxy::ServiceProxy sp(&scenario.gateway(), filters::StandardRegistry());

  proxy::CheckpointState ckpt;
  StreamKey key{scenario.wired_addr(), 7, scenario.mobile_addr(), 80};
  ckpt.services.push_back({"nosuchfilter", key, {}, false, {}});
  ckpt.streams.push_back({key, 10, 1000, 0});

  const auto result = proxy::RestoreFromCheckpoint(ckpt, sp);
  EXPECT_EQ(result.services_failed, 1u);
  EXPECT_EQ(result.services_restored, 0u);
  // The stream the dead service touched degrades to pass-through: counted
  // as rebuilt, not restored.
  EXPECT_EQ(result.streams_rebuilt, 1u);
  EXPECT_EQ(result.streams_restored, 0u);
  // The stream itself was still adopted (accounting continues).
  EXPECT_EQ(sp.streams().count(key), 1u);
}

TEST(FaultRestoreTest, CorruptStateBlobCountsStateRebuilt) {
  ScenarioConfig cfg;
  WirelessScenario scenario(cfg);
  proxy::ServiceProxy sp(&scenario.gateway(), filters::StandardRegistry());

  proxy::CheckpointState ckpt;
  StreamKey key{scenario.wired_addr(), 7, scenario.mobile_addr(), 80};
  ckpt.services.push_back({"ttsf", key, {}, true, util::Bytes{0xde, 0xad}});
  ckpt.streams.push_back({key, 10, 1000, 0});
  // A second stream untouched by the damaged service stays "restored".
  StreamKey other{scenario.wired_addr(), 7, scenario.mobile_addr(), 81};
  ckpt.streams.push_back({other, 3, 300, 0});

  const auto result = proxy::RestoreFromCheckpoint(ckpt, sp);
  EXPECT_EQ(result.services_restored, 1u);  // The filter itself came up...
  EXPECT_EQ(result.state_imported, 0u);
  EXPECT_EQ(result.state_rebuilt, 1u);      // ...but rebuilds from the wire.
  EXPECT_EQ(result.streams_rebuilt, 1u);
  EXPECT_EQ(result.streams_restored, 1u);
  // The fresh ttsf is attached and functional despite the rejected blob.
  EXPECT_TRUE(sp.FindFilterOnKey(key, "ttsf") != nullptr);
}

// ---------------------------------------------------------------------------
// Full-system crash takeover.
// ---------------------------------------------------------------------------

TEST(FaultRecoveryTest, GatewayCrashMidTransferRecoversEveryStream) {
  FailoverConfig config;
  config.scenario.wireless.loss_probability = 0.0;
  config.debug_checks = true;
  config.extend_registry = RegisterScramble;
  FailoverSystem system(config);

  // Real transformed state on every stream: tcp + ttsf + scramble.
  std::string error;
  for (uint16_t port : {uint16_t{80}, uint16_t{81}}) {
    StreamKey wildcard{net::Ipv4Address(), 0, system.scenario().mobile_home_addr(), port};
    ASSERT_TRUE(system.primary_sp()->AddService("launcher", wildcard,
                                                {"tcp", "ttsf", "scramble"}, &error))
        << error;
  }

  // Crash just after a checkpoint tick (100ms cadence), mid-transfer: the
  // two 300 kB streams share a 1 Mbit/s wireless link, so at 3.05s roughly
  // half the bytes are still in flight.
  const sim::TimePoint crash_at = 3 * sim::kSecond + 50 * sim::kMillisecond;
  system.ScheduleGatewayCrash(crash_at);
  system.ArmFaults();
  // Per-stream services are garbage-collected a couple of seconds after the
  // stream closes, so inspect the standby at the moment of takeover.
  bool ttsf_restored_at_takeover = false;
  system.set_on_takeover([&] {
    for (const auto& svc : system.standby_sp().services()) {
      ttsf_restored_at_takeover =
          ttsf_restored_at_takeover || (svc.filter == "ttsf" && !svc.key.IsWildcard());
    }
  });
  system.Start();

  constexpr size_t kBytes = 300'000;
  apps::BulkSink sink80(&system.scenario().mobile(), 80);
  apps::BulkSink sink81(&system.scenario().mobile(), 81);
  std::vector<std::unique_ptr<apps::BulkSender>> senders;
  system.sim().Schedule(sim::kSecond, [&] {
    senders.push_back(std::make_unique<apps::BulkSender>(
        &system.scenario().correspondent(), system.scenario().mobile_home_addr(), 80,
        apps::PatternPayload(kBytes)));
    senders.push_back(std::make_unique<apps::BulkSender>(
        &system.scenario().correspondent(), system.scenario().mobile_home_addr(), 81,
        apps::PatternPayload(kBytes)));
  });

  system.sim().RunFor(120 * sim::kSecond);

  // The crash happened mid-transfer and the standby noticed via watchdog.
  const FailoverRecovery& recovery = system.recovery();
  ASSERT_TRUE(recovery.crashed);
  ASSERT_TRUE(recovery.taken_over);
  EXPECT_EQ(recovery.crash_at, crash_at);
  const sim::Duration detection = recovery.takeover_at - recovery.crash_at;
  EXPECT_GE(detection, 250 * sim::kMillisecond);
  EXPECT_LE(detection, 2 * sim::kSecond);

  // Every stream completed on the standby, well before the horizon (no
  // stream stalls past the RTO backoff ceiling).
  EXPECT_EQ(sink80.bytes_received(), kBytes);
  EXPECT_EQ(sink81.bytes_received(), kBytes);
  EXPECT_LE(sink80.last_byte_at(), crash_at + 60 * sim::kSecond);
  EXPECT_LE(sink81.last_byte_at(), crash_at + 60 * sim::kSecond);

  // The senders' in-flight data crossed the takeover via retransmission.
  EXPECT_GT(system.scenario().correspondent().tcp().Totals().bytes_retransmitted, 0u);

  // Recovery accounting: every pre-crash stream was either restored with
  // its state or explicitly rebuilt — none vanished.
  obs::MetricRegistry& reg = system.standby_sp().metrics();
  const uint64_t restored = reg.GetCounter("sp.recovery.streams_restored")->value();
  const uint64_t rebuilt = reg.GetCounter("sp.recovery.streams_rebuilt")->value();
  EXPECT_EQ(restored + rebuilt, recovery.pre_crash_streams);
  EXPECT_GT(restored, 0u);
  EXPECT_EQ(recovery.restore.services_failed, 0u);
  EXPECT_EQ(reg.GetCounter("sp.recovery.takeovers")->value(), 1u);

  // The TTSF instances made it across with their per-stream services.
  EXPECT_TRUE(ttsf_restored_at_takeover);

  // The EEM came back on the standby (bridge re-registered).
  EXPECT_TRUE(system.eem_server() != nullptr);

  // Auditors stay green on the rebuilt proxy (debug checks are enabled, so
  // a violated invariant aborts the test).
  system.standby_sp().AuditNow();
}

TEST(FaultRecoveryTest, WildcardLauncherRematchesStreamsStartedAfterTakeover) {
  FailoverConfig config;
  config.scenario.wireless.loss_probability = 0.0;
  FailoverSystem system(config);

  std::string error;
  StreamKey wildcard{net::Ipv4Address(), 0, system.scenario().mobile_home_addr(), 80};
  ASSERT_TRUE(system.primary_sp()->AddService("launcher", wildcard,
                                              {"tcp", "ttsf", "tdrop:0:7"}, &error))
      << error;

  // Crash before any data stream exists: only the wildcard service (and the
  // control streams) are in the checkpoint.
  system.ScheduleGatewayCrash(3 * sim::kSecond);
  system.ArmFaults();
  system.Start();

  constexpr size_t kBytes = 40'000;
  apps::BulkSink sink(&system.scenario().mobile(), 80);
  std::unique_ptr<apps::BulkSender> sender;
  // The stream starts well after the takeover completed.
  system.sim().Schedule(8 * sim::kSecond, [&] {
    sender = std::make_unique<apps::BulkSender>(&system.scenario().correspondent(),
                                                system.scenario().mobile_home_addr(), 80,
                                                apps::PatternPayload(kBytes));
  });
  // Probe mid-transfer: per-stream services are garbage-collected shortly
  // after the stream closes, so look while it is alive.
  bool launched_ttsf = false;
  system.sim().Schedule(8 * sim::kSecond + 500 * sim::kMillisecond, [&] {
    for (const auto& svc : system.standby_sp().services()) {
      launched_ttsf = launched_ttsf || (svc.filter == "ttsf" && !svc.key.IsWildcard());
    }
  });
  system.sim().RunFor(60 * sim::kSecond);

  ASSERT_TRUE(system.recovery().taken_over);
  EXPECT_EQ(sink.bytes_received(), kBytes);
  // The restored wildcard launcher fired at the standby: the new stream got
  // its per-stream services there.
  EXPECT_TRUE(launched_ttsf);
}

TEST(FaultRecoveryTest, ReplicationIsIncrementalAndWatchdogStaysQuiet) {
  FailoverConfig config;
  config.scenario.wireless.loss_probability = 0.0;
  FailoverSystem system(config);

  std::string error;
  StreamKey wildcard{net::Ipv4Address(), 0, system.scenario().mobile_home_addr(), 80};
  ASSERT_TRUE(system.primary_sp()->AddService("launcher", wildcard,
                                              {"tcp", "ttsf", "tdrop:0:7"}, &error))
      << error;
  system.Start();

  constexpr size_t kBytes = 30'000;
  apps::BulkSink sink(&system.scenario().mobile(), 80);
  std::unique_ptr<apps::BulkSender> sender;
  system.sim().Schedule(sim::kSecond, [&] {
    sender = std::make_unique<apps::BulkSender>(&system.scenario().correspondent(),
                                                system.scenario().mobile_home_addr(), 80,
                                                apps::PatternPayload(kBytes));
  });
  system.sim().RunFor(20 * sim::kSecond);

  // No crash: a healthy primary must never trigger a takeover.
  EXPECT_FALSE(system.recovery().taken_over);
  EXPECT_EQ(sink.bytes_received(), kBytes);

  // Checkpoints flowed the whole time; while the transfer ran, changed
  // filter blobs were replicated, and once it went idle the unchanged blobs
  // were elided (incremental replication).
  proxy::CheckpointManager* manager = system.checkpoint_manager();
  ASSERT_TRUE(manager != nullptr);
  EXPECT_GT(manager->stats().frames_sent, 100u);
  EXPECT_GT(manager->stats().blobs_sent, 0u);
  EXPECT_GT(manager->stats().blobs_unchanged, 0u);
  EXPECT_EQ(system.checkpoint_receiver().parse_errors(), 0u);
  EXPECT_GT(system.checkpoint_receiver().frames_received(), 100u);

  // The standby holds a faithful snapshot of the primary, adopted nowhere.
  const proxy::CheckpointState& latest = system.checkpoint_receiver().latest();
  EXPECT_EQ(latest.services.size(), system.primary_sp()->services().size());
  EXPECT_EQ(latest.streams.size(), system.primary_sp()->streams().size());
  EXPECT_TRUE(system.standby_sp().services().empty());
}

}  // namespace
}  // namespace comma::core
