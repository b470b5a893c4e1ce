// Warm-standby gateway failover assembled over the Mobile IP topology
// (docs/robustness.md, "Checkpoint & failover").
//
// Two foreign-agent routers each host a Service Proxy. FA1 is the *primary*
// gateway: the mobile attaches through it, its proxy runs the services, and
// a CheckpointManager replicates filter state to FA2 over the simulated
// backbone (checkpoint traffic shares links with data traffic). FA2 is the
// *warm standby*: its CheckpointReceiver holds the latest replicated
// CheckpointState and watches the inter-frame gap.
//
// When the primary crashes (ScheduleGatewayCrash severs its backhaul and
// wireless link and destroys its proxy, EEM, and manager), the frames stop,
// the standby's watchdog fires, and TakeOver() runs the recovery state
// machine:
//   1. the standby SP imports the last checkpoint (streams adopted first,
//      services re-issued with restored state; failures degrade to
//      pass-through — RestoreFromCheckpoint);
//   2. Mobile IP re-registers the mobile through the backup FA
//      (MoveToForeign2: agent solicitation, registration via FA2, HA
//      re-tunnels);
//   3. a fresh EEM server + client come up on the standby and the metrics
//      bridge re-registers the proxy's registry as EEM variables;
//   4. recovery metrics land in the standby registry ("sp.recovery.*").
// Streams whose TTSF state was stale enter bypass-and-drain (ttsf_filter);
// streams whose services could not be restored run as plain pass-through.
// Either way the end hosts' own retransmissions revive the transfer — no
// stream stalls past its RTO backoff ceiling.
#ifndef COMMA_CORE_FAILOVER_SYSTEM_H_
#define COMMA_CORE_FAILOVER_SYSTEM_H_

#include <functional>
#include <memory>

#include "src/mobileip/scenario.h"
#include "src/monitor/eem_client.h"
#include "src/monitor/eem_server.h"
#include "src/proxy/checkpoint.h"
#include "src/proxy/service_proxy.h"
#include "src/sim/fault_plan.h"

namespace comma::core {

struct FailoverConfig {
  mobileip::MobileIpConfig scenario;
  sim::Duration checkpoint_interval = 100 * sim::kMillisecond;
  sim::Duration watchdog = 500 * sim::kMillisecond;
  monitor::EemServerConfig eem;
  bool start_eem = true;
  // Extra filter factories registered into BOTH proxies' pools before
  // construction (tests inject custom transformers this way; a factory
  // present only on the primary would make every takeover reject it).
  std::function<void(proxy::FilterRegistry&)> extend_registry;
  // Enables the runtime invariant auditors process-wide (docs/correctness.md).
  bool debug_checks = false;
};

// What happened across one crash/takeover cycle.
struct FailoverRecovery {
  bool crashed = false;
  bool taken_over = false;
  sim::TimePoint crash_at = 0;
  sim::TimePoint takeover_at = 0;
  // Primary-side counts recorded at the instant of the crash.
  uint64_t pre_crash_streams = 0;
  uint64_t pre_crash_services = 0;
  proxy::RestoreResult restore;
};

class FailoverSystem {
 public:
  explicit FailoverSystem(const FailoverConfig& config = {});
  ~FailoverSystem();
  FailoverSystem(const FailoverSystem&) = delete;
  FailoverSystem& operator=(const FailoverSystem&) = delete;

  // Attaches the mobile through the primary FA and starts checkpoint
  // replication. Call once, before Run.
  void Start();

  // --- Fault injection ---
  sim::FaultPlan& fault_plan() { return fault_plan_; }
  // Arms the plan; fired faults are traced through the standby router (it
  // survives the crash). Fault actions mutate FA-side state, so the plan's
  // events belong to the fa region on a partitioned scenario.
  void ArmFaults() {
    sim::ScopedRegion in_fa(&scenario_.sim(), scenario_.fa_region());
    fault_plan_.Arm(&scenario_.sim(), &scenario_.fa2_router().tracer());
  }
  // Schedules an unplanned primary death at `when`: links severed, proxy,
  // checkpoint manager, and EEM destroyed. Nothing announces the crash to
  // the standby — its watchdog has to notice.
  void ScheduleGatewayCrash(sim::TimePoint when);
  // Immediate version (the scheduled fault calls this).
  void CrashPrimary();

  // --- Accessors ---
  sim::Simulator& sim() { return scenario_.sim(); }
  mobileip::MobileIpScenario& scenario() { return scenario_; }
  // The primary proxy; null after the crash.
  proxy::ServiceProxy* primary_sp() { return sp1_.get(); }
  proxy::ServiceProxy& standby_sp() { return *sp2_; }
  proxy::CheckpointManager* checkpoint_manager() { return ckpt_manager_.get(); }
  proxy::CheckpointReceiver& checkpoint_receiver() { return *ckpt_receiver_; }
  const FailoverRecovery& recovery() const { return recovery_; }
  monitor::EemServer* eem_server() { return eem_server_.get(); }

  // Fires after TakeOver() finishes (tests hook assertions here).
  void set_on_takeover(std::function<void()> cb) { on_takeover_ = std::move(cb); }

 private:
  // The recovery state machine, run by the standby watchdog.
  void TakeOver();
  void StartEemOn(Host& host, proxy::ServiceProxy& sp);
  // Exports Mobile IP client counters into `sp`'s registry ("mip.*").
  void RegisterMobileIpMetrics(proxy::ServiceProxy& sp);

  FailoverConfig config_;
  // Declaration order doubles as teardown order (reverse): EEM and
  // checkpoint components die before the proxies, the proxies before the
  // scenario whose nodes they tap.
  mobileip::MobileIpScenario scenario_;
  sim::FaultPlan fault_plan_;
  std::unique_ptr<proxy::ServiceProxy> sp1_;
  std::unique_ptr<proxy::ServiceProxy> sp2_;
  std::unique_ptr<proxy::CheckpointManager> ckpt_manager_;
  std::unique_ptr<proxy::CheckpointReceiver> ckpt_receiver_;
  std::unique_ptr<monitor::EemServer> eem_server_;
  std::unique_ptr<monitor::EemClient> eem_client_;
  FailoverRecovery recovery_;
  std::function<void()> on_takeover_;
};

}  // namespace comma::core

#endif  // COMMA_CORE_FAILOVER_SYSTEM_H_
