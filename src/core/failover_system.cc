#include "src/core/failover_system.h"

#include "src/filters/standard_set.h"
#include "src/obs/eem_bridge.h"
#include "src/util/check.h"

namespace comma::core {

FailoverSystem::FailoverSystem(const FailoverConfig& config)
    : config_(config), scenario_(config.scenario) {
  util::SetDebugChecks(config.debug_checks);
  // Both proxies, the checkpoint pair, and the EEM live on the FA routers,
  // so their timers belong to the fa region when partitioned.
  sim::ScopedRegion in_fa(&scenario_.sim(), scenario_.fa_region());
  proxy::FilterRegistry registry = filters::StandardRegistry();
  if (config_.extend_registry) {
    config_.extend_registry(registry);
  }
  sp1_ = std::make_unique<proxy::ServiceProxy>(&scenario_.fa1_router(), registry);
  sp2_ = std::make_unique<proxy::ServiceProxy>(&scenario_.fa2_router(), std::move(registry));

  proxy::CheckpointManagerConfig mgr_config;
  mgr_config.standby = scenario_.fa2_addr();
  mgr_config.interval = config_.checkpoint_interval;
  ckpt_manager_ = std::make_unique<proxy::CheckpointManager>(
      sp1_.get(), &scenario_.fa1_router().tcp(), mgr_config);

  proxy::CheckpointReceiverConfig recv_config;
  recv_config.watchdog = config_.watchdog;
  ckpt_receiver_ = std::make_unique<proxy::CheckpointReceiver>(
      &scenario_.fa2_router().tcp(), recv_config, &sp2_->metrics());
  ckpt_receiver_->set_on_primary_dead([this] { TakeOver(); });

  RegisterMobileIpMetrics(*sp2_);
  if (config_.start_eem) {
    StartEemOn(scenario_.fa1_router(), *sp1_);
  }
}

FailoverSystem::~FailoverSystem() = default;

void FailoverSystem::Start() {
  sim::ScopedRegion in_fa(&scenario_.sim(), scenario_.fa_region());
  ckpt_receiver_->Listen();
  ckpt_manager_->Start();
  scenario_.MoveToForeign1();
}

void FailoverSystem::ScheduleGatewayCrash(sim::TimePoint when) {
  fault_plan_.At(when, "gateway-crash fa1", [this] { CrashPrimary(); });
}

void FailoverSystem::CrashPrimary() {
  if (recovery_.crashed) {
    return;
  }
  recovery_.crashed = true;
  recovery_.crash_at = sim().Now();
  recovery_.pre_crash_streams = sp1_->streams().size();
  recovery_.pre_crash_services = sp1_->services().size();
  // Sever the gateway from the world first — packets in flight on its links
  // are lost, exactly like pulling the plug on a real box.
  scenario_.backhaul1().SetUp(false);
  scenario_.wireless1().SetUp(false);
  // Then tear down everything that ran on it. Nothing tells the standby:
  // its watchdog has to notice the silence.
  ckpt_manager_.reset();
  if (sp1_ != nullptr) {
    sp1_->set_eem(nullptr);
  }
  eem_server_.reset();
  eem_client_.reset();
  sp1_.reset();
}

void FailoverSystem::TakeOver() {
  if (recovery_.taken_over) {
    return;
  }
  recovery_.taken_over = true;
  recovery_.takeover_at = sim().Now();

  // 1. Rebuild the proxy from the last replicated checkpoint.
  if (ckpt_receiver_->has_checkpoint()) {
    recovery_.restore = proxy::RestoreFromCheckpoint(ckpt_receiver_->latest(), *sp2_);
  }

  obs::MetricRegistry& reg = sp2_->metrics();
  reg.GetCounter("sp.recovery.takeovers")->Inc();
  reg.GetCounter("sp.recovery.streams_restored")->Inc(recovery_.restore.streams_restored);
  reg.GetCounter("sp.recovery.streams_rebuilt")->Inc(recovery_.restore.streams_rebuilt);
  reg.GetCounter("sp.recovery.services_failed")->Inc(recovery_.restore.services_failed);
  reg.GetCounter("sp.recovery.state_imported")->Inc(recovery_.restore.state_imported);
  reg.GetCounter("sp.recovery.state_rebuilt")->Inc(recovery_.restore.state_rebuilt);
  if (recovery_.crashed) {
    reg.GetGauge("sp.recovery.detection_latency_us")
        ->Set(static_cast<double>(recovery_.takeover_at - recovery_.crash_at));
  }

  // 2. Mobile IP re-registers the mobile through the backup FA; the HA
  // re-tunnels and the restored services see the stream again.
  scenario_.MoveToForeign2();

  // 3. The EEM comes back on the standby and the bridge re-registers the
  // (standby) proxy metrics as EEM variables.
  if (config_.start_eem) {
    StartEemOn(scenario_.fa2_router(), *sp2_);
  }

  if (on_takeover_) {
    on_takeover_();
  }
}

void FailoverSystem::StartEemOn(Host& host, proxy::ServiceProxy& sp) {
  eem_server_ = std::make_unique<monitor::EemServer>(&host, config_.eem);
  eem_server_->AddProvider(std::make_unique<obs::EemMetricsBridge>(&sp.metrics()));
  eem_client_ = std::make_unique<monitor::EemClient>(&host);
  sp.set_eem(eem_client_.get());
}

void FailoverSystem::RegisterMobileIpMetrics(proxy::ServiceProxy& sp) {
  // Pull-model exports (docs/observability.md): closures capture `this`; the
  // registry lives inside `sp`, which this object owns, so they cannot be
  // read after destruction.
  obs::MetricRegistry& reg = sp.metrics();
  reg.RegisterCounterSource("mip.solicitations_sent",
                            [this] { return scenario_.client().stats().solicitations_sent; });
  reg.RegisterCounterSource("mip.registrations_sent",
                            [this] { return scenario_.client().stats().registrations_sent; });
  reg.RegisterCounterSource("mip.registrations_accepted",
                            [this] { return scenario_.client().stats().registrations_accepted; });
  reg.RegisterCounterSource("mip.registrations_denied",
                            [this] { return scenario_.client().stats().registrations_denied; });
  reg.RegisterGaugeSource("mip.last_handoff_latency_us", [this] {
    return static_cast<double>(scenario_.client().stats().last_handoff_latency);
  });
}

}  // namespace comma::core
