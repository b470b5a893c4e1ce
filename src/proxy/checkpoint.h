// Proxy state capture and restore, and warm-standby checkpoint replication
// for the Service Proxy (docs/robustness.md, "Checkpoint & failover").
//
// CaptureState and RestoreFromCheckpoint are the one way proxy state moves
// between gateways, whatever the reason: a crash takeover restores the
// standby from the last replicated capture of the whole proxy, and a planned
// Mobile IP hand-off (mobileip::ProxyHandoffManager) captures the mobile's
// part of the source proxy and restores it at the destination.
//
// A CheckpointManager runs beside the *primary* gateway's proxy. On a fixed
// cadence it snapshots the proxy's service records, per-stream accounting,
// and every checkpointed filter's exported state blob, and streams the
// snapshot to the standby gateway over a plain TCP connection — through the
// same simulated links the data traffic uses, like the thesis's control
// traffic. Snapshots are incremental: a filter blob identical to the last
// one replicated is sent as a one-byte "unchanged" marker.
//
// A CheckpointReceiver runs beside the *standby* gateway's proxy. It decodes
// frames into the latest CheckpointState and arms a watchdog once the first
// frame arrives: when the inter-frame gap exceeds the timeout, the primary
// is presumed dead and on_primary_dead fires exactly once — the trigger for
// takeover (core::FailoverSystem).
//
// Wire format (all integers big-endian via util::bytes): a stream of
// [u32 payload length][payload] frames. Payload:
//   "CKPT" u8 version          (proxy::WriteStateHeader)
//   u64 seq, u64 taken_at
//   u32 n_services, then per service (creation order):
//     string filter, StreamKey key, u8 n_args, n_args strings,
//     u8 state_mode (0 = no state, 1 = unchanged since last frame,
//                    2 = inline blob), mode 2: u32 len + blob bytes
//   u32 n_streams, then per stream:
//     StreamKey key, u64 packets, u64 bytes, u64 first_seen
#ifndef COMMA_PROXY_CHECKPOINT_H_
#define COMMA_PROXY_CHECKPOINT_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/proxy/service_proxy.h"
#include "src/proxy/stream_key.h"
#include "src/tcp/tcp_stack.h"
#include "src/util/bytes.h"

namespace comma::proxy {

inline constexpr uint16_t kCheckpointPort = 12100;

// One service as checkpointed: how to re-issue it (filter/key/args) plus the
// filter instance's exported state, if it had any.
struct CheckpointedService {
  std::string filter;
  StreamKey key;
  std::vector<std::string> args;
  bool has_state = false;
  util::Bytes state;
};

struct CheckpointedStream {
  StreamKey key;
  uint64_t packets = 0;
  uint64_t bytes = 0;
  sim::TimePoint first_seen = 0;
};

struct CheckpointState {
  uint64_t seq = 0;
  sim::TimePoint taken_at = 0;
  std::vector<CheckpointedService> services;  // Creation order.
  std::vector<CheckpointedStream> streams;
};

// Captures the services of `sp` (creation order) and its registered streams
// whose key satisfies `include`, with the exported state of every
// checkpointed filter instance. Leaves seq and taken_at at zero.
CheckpointState CaptureState(const ServiceProxy& sp,
                             const std::function<bool(const StreamKey&)>& include);

// Outcome of applying a CheckpointState to a proxy.
struct RestoreResult {
  uint64_t services_restored = 0;  // Re-issued successfully.
  uint64_t services_failed = 0;    // AddService rejected (e.g. filter not loadable).
  uint64_t state_imported = 0;     // Captured blob accepted by the new instance.
  uint64_t state_rebuilt = 0;      // Import failed: the instance rebuilds from the wire.
  // Captured streams classified by whether every service touching them came
  // back intact (restored) or some service failed or lost its state and the
  // stream must resync from live traffic (rebuilt). Invariant:
  // streams_restored + streams_rebuilt == captured stream count.
  uint64_t streams_restored = 0;
  uint64_t streams_rebuilt = 0;
};

// Rebuilds `ckpt` on `to`. Adopts the captured streams first — so a
// wild-card launcher does not re-fire on their next packet — then re-issues
// every captured service in creation order, importing state blobs where
// present. A rejected service leaves its streams running pass-through.
RestoreResult RestoreFromCheckpoint(const CheckpointState& ckpt, ServiceProxy& to);

struct CheckpointStats {
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;        // Frame bytes handed to TCP.
  uint64_t blobs_sent = 0;        // Full state blobs replicated.
  uint64_t blobs_unchanged = 0;   // Elided as "unchanged" markers.
  uint64_t ticks_skipped = 0;     // Cadence ticks with no usable connection.
  uint64_t reconnects = 0;
};

struct CheckpointManagerConfig {
  net::Ipv4Address standby;       // The standby gateway's address.
  uint16_t port = kCheckpointPort;
  sim::Duration interval = 100 * sim::kMillisecond;
};

class CheckpointManager {
 public:
  // `sp` and `stack` must outlive the manager (or Stop() must run first).
  CheckpointManager(ServiceProxy* sp, tcp::TcpStack* stack,
                    const CheckpointManagerConfig& config);
  ~CheckpointManager();
  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  // Begins the replication cadence (connects lazily on the first tick).
  void Start();
  // Cancels the cadence and detaches from the connection. Safe to call twice.
  void Stop();

  // Captures the whole proxy right now, stamped with the next sequence
  // number (CaptureState with every key; does not touch the wire).
  CheckpointState Snapshot();

  // Snapshots and replicates immediately, off-cadence.
  void CheckpointNow();

  const CheckpointStats& stats() const { return stats_; }
  uint64_t seq() const { return seq_; }

 private:
  void Tick();
  void EnsureConnection();
  void EncodeFrame(const CheckpointState& state, util::Bytes* out);
  void PumpOutbox();

  ServiceProxy* sp_;
  tcp::TcpStack* stack_;
  CheckpointManagerConfig config_;
  sim::TimerId timer_ = sim::kInvalidTimerId;
  tcp::TcpConnection* conn_ = nullptr;
  bool connected_ = false;
  bool started_ = false;
  uint64_t seq_ = 0;
  // Last blob replicated per (filter name, key) on the current connection;
  // cleared on reconnect so a fresh receiver gets full blobs.
  std::map<std::pair<std::string, StreamKey>, util::Bytes> last_sent_;
  util::Bytes outbox_;  // Frame bytes TCP has not yet accepted.
  CheckpointStats stats_;
  // Push handles into the primary proxy's registry (sp.recovery.*).
  obs::Counter* frames_sent_metric_;
  obs::Counter* bytes_sent_metric_;
  obs::Counter* blobs_sent_metric_;
  obs::Counter* blobs_unchanged_metric_;
  obs::Gauge* seq_metric_;
};

struct CheckpointReceiverConfig {
  uint16_t port = kCheckpointPort;
  // Declared dead after this long without a frame. The watchdog arms on the
  // first frame received, so a standby that never hears from a primary does
  // not take over an empty gateway.
  sim::Duration watchdog = 500 * sim::kMillisecond;
};

class CheckpointReceiver {
 public:
  // `metrics` (the standby proxy's registry) may be null; counters are then
  // dropped. The registry must outlive the receiver.
  CheckpointReceiver(tcp::TcpStack* stack, const CheckpointReceiverConfig& config,
                     obs::MetricRegistry* metrics = nullptr);
  ~CheckpointReceiver();
  CheckpointReceiver(const CheckpointReceiver&) = delete;
  CheckpointReceiver& operator=(const CheckpointReceiver&) = delete;

  void Listen();
  // Fires once, from the watchdog, when checkpoints stop arriving.
  void set_on_primary_dead(std::function<void()> cb) { on_primary_dead_ = std::move(cb); }

  bool has_checkpoint() const { return frames_received_ > 0; }
  const CheckpointState& latest() const { return latest_; }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t parse_errors() const { return parse_errors_; }
  sim::TimePoint last_frame_at() const { return last_frame_at_; }

  // Stops the watchdog (takeover finished, or planned shutdown).
  void DisarmWatchdog();

 private:
  void OnAccept(tcp::TcpConnection* conn);
  void OnData();
  bool DecodeFrame(const util::Bytes& payload);
  void ArmWatchdog();
  void OnWatchdog();

  tcp::TcpStack* stack_;
  CheckpointReceiverConfig config_;
  std::function<void()> on_primary_dead_;
  tcp::TcpConnection* conn_ = nullptr;
  util::Bytes rx_;
  CheckpointState latest_;
  // Blob cache backing the "unchanged" marker, keyed like the sender's.
  std::map<std::pair<std::string, StreamKey>, util::Bytes> blob_cache_;
  uint64_t frames_received_ = 0;
  uint64_t parse_errors_ = 0;
  sim::TimePoint last_frame_at_ = 0;
  sim::TimerId watchdog_timer_ = sim::kInvalidTimerId;
  bool watchdog_fired_ = false;
  bool listening_ = false;
  obs::Counter* frames_metric_ = nullptr;
  obs::Counter* parse_errors_metric_ = nullptr;
  obs::Gauge* ckpt_streams_metric_ = nullptr;
};

}  // namespace comma::proxy

#endif  // COMMA_PROXY_CHECKPOINT_H_
