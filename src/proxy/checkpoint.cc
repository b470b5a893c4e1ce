#include "src/proxy/checkpoint.h"

#include <algorithm>
#include <set>

#include "src/proxy/filter_state.h"

namespace comma::proxy {
namespace {

constexpr char kFrameMagic[] = "CKPT";
constexpr uint8_t kFrameVersion = 1;
// A parse error on anything larger than this aborts the frame stream instead
// of buffering without bound.
constexpr size_t kMaxFrameBytes = 4 * 1024 * 1024;
// Stop producing new frames while this much is still unaccepted by TCP
// (standby unreachable); framing stays intact, the next tick retries.
constexpr size_t kMaxOutboxBytes = 1024 * 1024;

enum StateMode : uint8_t {
  kStateNone = 0,
  kStateUnchanged = 1,
  kStateBlob = 2,
};

// A service touches a stream when its (possibly wild-card) key matches the
// stream in either direction — filters attach by directional key, but their
// state concerns the whole conversation.
bool ServiceTouchesStream(const StreamKey& service_key, const StreamKey& stream) {
  return service_key.Matches(stream) || service_key.Matches(stream.Reversed());
}

}  // namespace

// --- Capture and restore ---

CheckpointState CaptureState(const ServiceProxy& sp,
                             const std::function<bool(const StreamKey&)>& include) {
  CheckpointState state;
  for (const ServiceProxy::ServiceRecord& record : sp.services()) {
    if (!include(record.key)) {
      continue;
    }
    CheckpointedService svc;
    svc.filter = record.filter;
    svc.key = record.key;
    svc.args = record.args;
    if (record.instance->state_kind() == FilterStateKind::kCheckpointed) {
      svc.has_state = record.instance->ExportState(&svc.state);
      if (!svc.has_state) {
        svc.state.clear();
      }
    }
    state.services.push_back(std::move(svc));
  }
  for (const auto& [key, info] : sp.streams()) {
    if (include(key)) {
      state.streams.push_back({key, info.packets, info.bytes, info.first_seen});
    }
  }
  return state;
}

RestoreResult RestoreFromCheckpoint(const CheckpointState& ckpt, ServiceProxy& to) {
  RestoreResult result;
  // Streams first: once a key is in the registry, the launcher's OnNewStream
  // does not fire for it, so re-issued per-stream services are not doubled
  // by a wild-card launcher re-installing them on the next packet.
  for (const CheckpointedStream& stream : ckpt.streams) {
    StreamInfo info;
    info.first_seen = stream.first_seen;
    info.last_seen = stream.first_seen;
    info.packets = stream.packets;
    info.bytes = stream.bytes;
    to.AdoptStream(stream.key, info);
  }
  // Services in creation order (launchers before the per-stream services
  // they spawned; transform filters after the ttsf they require).
  std::set<StreamKey> damaged;  // Streams that lost a service or its state.
  for (const CheckpointedService& svc : ckpt.services) {
    auto mark_damaged = [&] {
      for (const CheckpointedStream& stream : ckpt.streams) {
        if (ServiceTouchesStream(svc.key, stream.key)) {
          damaged.insert(stream.key);
        }
      }
    };
    to.LoadFilter(svc.filter);
    std::string error;
    if (!to.AddService(svc.filter, svc.key, svc.args, &error)) {
      ++result.services_failed;
      mark_damaged();  // Stream degrades to pass-through for this service.
      continue;
    }
    ++result.services_restored;
    if (!svc.has_state) {
      continue;  // Stateless or rebuild-from-wire by design: not damage.
    }
    // AddService appended the new service's record last.
    const FilterPtr& target = to.services().back().instance;
    std::string import_error;
    if (target->ImportState(to.context(), svc.state, &import_error)) {
      ++result.state_imported;
    } else {
      ++result.state_rebuilt;
      mark_damaged();  // Had state, lost it: the stream must resync.
    }
  }
  for (const CheckpointedStream& stream : ckpt.streams) {
    if (damaged.count(stream.key) > 0) {
      ++result.streams_rebuilt;
    } else {
      ++result.streams_restored;
    }
  }
  return result;
}

// --- CheckpointManager ---

CheckpointManager::CheckpointManager(ServiceProxy* sp, tcp::TcpStack* stack,
                                     const CheckpointManagerConfig& config)
    : sp_(sp), stack_(stack), config_(config) {
  obs::MetricRegistry& reg = sp_->metrics();
  frames_sent_metric_ = reg.GetCounter("sp.recovery.checkpoints_sent");
  bytes_sent_metric_ = reg.GetCounter("sp.recovery.checkpoint_bytes");
  blobs_sent_metric_ = reg.GetCounter("sp.recovery.state_blobs_sent");
  blobs_unchanged_metric_ = reg.GetCounter("sp.recovery.state_blobs_unchanged");
  seq_metric_ = reg.GetGauge("sp.recovery.checkpoint_seq");
}

CheckpointManager::~CheckpointManager() { Stop(); }

void CheckpointManager::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  timer_ = stack_->simulator()->ScheduleTimer(config_.interval, [this] { Tick(); });
}

void CheckpointManager::Stop() {
  started_ = false;
  if (timer_ != sim::kInvalidTimerId) {
    stack_->simulator()->Cancel(timer_);
    timer_ = sim::kInvalidTimerId;
  }
  if (conn_ != nullptr) {
    // Detach every callback before abandoning the connection: the stack owns
    // the object and may still deliver events after we are gone.
    conn_->set_on_connected(nullptr);
    conn_->set_on_writable(nullptr);
    conn_->set_on_error(nullptr);
    conn_->set_on_closed(nullptr);
    conn_->set_on_remote_close(nullptr);
    conn_->Abort();
    conn_ = nullptr;
  }
  connected_ = false;
  last_sent_.clear();
  outbox_.clear();
}

CheckpointState CheckpointManager::Snapshot() {
  CheckpointState state = CaptureState(*sp_, [](const StreamKey&) { return true; });
  state.seq = seq_ + 1;
  state.taken_at = stack_->simulator()->Now();
  return state;
}

void CheckpointManager::EnsureConnection() {
  if (conn_ != nullptr) {
    return;
  }
  conn_ = stack_->Connect(config_.standby, config_.port);
  if (conn_ == nullptr) {
    return;
  }
  ++stats_.reconnects;
  connected_ = false;
  // A fresh connection means a (possibly) fresh receiver: resend full blobs.
  last_sent_.clear();
  outbox_.clear();
  conn_->set_on_connected([this] {
    connected_ = true;
    PumpOutbox();
  });
  conn_->set_on_writable([this] { PumpOutbox(); });
  auto dead = [this] {
    // Drop the connection; the next tick dials again.
    if (conn_ != nullptr) {
      conn_->set_on_connected(nullptr);
      conn_->set_on_writable(nullptr);
      conn_->set_on_error(nullptr);
      conn_->set_on_closed(nullptr);
      conn_->set_on_remote_close(nullptr);
    }
    conn_ = nullptr;
    connected_ = false;
    outbox_.clear();
    last_sent_.clear();
  };
  conn_->set_on_error([dead](const std::string&) { dead(); });
  conn_->set_on_closed(dead);
}

void CheckpointManager::EncodeFrame(const CheckpointState& state, util::Bytes* out) {
  util::Bytes payload;
  util::ByteWriter w(&payload);
  WriteStateHeader(&w, kFrameMagic, kFrameVersion);
  w.WriteU64(state.seq);
  w.WriteU64(static_cast<uint64_t>(state.taken_at));
  w.WriteU32(static_cast<uint32_t>(state.services.size()));
  for (const CheckpointedService& svc : state.services) {
    w.WriteString(svc.filter);
    WriteStreamKey(&w, svc.key);
    w.WriteU8(static_cast<uint8_t>(std::min<size_t>(svc.args.size(), 255)));
    for (size_t i = 0; i < svc.args.size() && i < 255; ++i) {
      w.WriteString(svc.args[i]);
    }
    if (!svc.has_state) {
      w.WriteU8(kStateNone);
      last_sent_.erase({svc.filter, svc.key});
      continue;
    }
    auto cache_key = std::make_pair(svc.filter, svc.key);
    auto it = last_sent_.find(cache_key);
    if (it != last_sent_.end() && it->second == svc.state) {
      w.WriteU8(kStateUnchanged);
      ++stats_.blobs_unchanged;
      blobs_unchanged_metric_->Inc();
    } else {
      w.WriteU8(kStateBlob);
      w.WriteU32(static_cast<uint32_t>(svc.state.size()));
      w.WriteBytes(svc.state);
      last_sent_[cache_key] = svc.state;
      ++stats_.blobs_sent;
      blobs_sent_metric_->Inc();
    }
  }
  w.WriteU32(static_cast<uint32_t>(state.streams.size()));
  for (const CheckpointedStream& s : state.streams) {
    WriteStreamKey(&w, s.key);
    w.WriteU64(s.packets);
    w.WriteU64(s.bytes);
    w.WriteU64(static_cast<uint64_t>(s.first_seen));
  }
  util::ByteWriter framer(out);
  framer.WriteU32(static_cast<uint32_t>(payload.size()));
  framer.WriteBytes(payload);
}

void CheckpointManager::CheckpointNow() {
  EnsureConnection();
  if (conn_ == nullptr || outbox_.size() > kMaxOutboxBytes) {
    ++stats_.ticks_skipped;
    return;
  }
  CheckpointState state = Snapshot();
  seq_ = state.seq;
  const size_t before = outbox_.size();
  EncodeFrame(state, &outbox_);
  ++stats_.frames_sent;
  stats_.bytes_sent += outbox_.size() - before;
  frames_sent_metric_->Inc();
  bytes_sent_metric_->Inc(outbox_.size() - before);
  seq_metric_->Set(static_cast<double>(seq_));
  if (connected_) {
    PumpOutbox();
  }
}

void CheckpointManager::Tick() {
  timer_ = sim::kInvalidTimerId;
  CheckpointNow();
  if (started_) {
    timer_ = stack_->simulator()->ScheduleTimer(config_.interval, [this] { Tick(); });
  }
}

void CheckpointManager::PumpOutbox() {
  if (conn_ == nullptr || !connected_ || outbox_.empty()) {
    return;
  }
  const size_t accepted = conn_->Send(outbox_.data(), outbox_.size());
  if (accepted > 0) {
    outbox_.erase(outbox_.begin(), outbox_.begin() + static_cast<long>(accepted));
  }
}

// --- CheckpointReceiver ---

CheckpointReceiver::CheckpointReceiver(tcp::TcpStack* stack,
                                       const CheckpointReceiverConfig& config,
                                       obs::MetricRegistry* metrics)
    : stack_(stack), config_(config) {
  if (metrics != nullptr) {
    frames_metric_ = metrics->GetCounter("sp.recovery.checkpoints_received");
    parse_errors_metric_ = metrics->GetCounter("sp.recovery.checkpoint_parse_errors");
    ckpt_streams_metric_ = metrics->GetGauge("sp.recovery.checkpointed_streams");
  }
}

CheckpointReceiver::~CheckpointReceiver() {
  DisarmWatchdog();
  if (conn_ != nullptr) {
    conn_->set_on_data(nullptr);
    conn_->set_on_error(nullptr);
    conn_->set_on_closed(nullptr);
    conn_->set_on_remote_close(nullptr);
    conn_ = nullptr;
  }
  if (listening_) {
    stack_->CloseListener(config_.port);
  }
}

void CheckpointReceiver::Listen() {
  if (listening_) {
    return;
  }
  listening_ = true;
  stack_->Listen(config_.port, [this](tcp::TcpConnection* conn) { OnAccept(conn); });
}

void CheckpointReceiver::OnAccept(tcp::TcpConnection* conn) {
  if (conn_ != nullptr) {
    // A reconnecting primary supersedes the old connection.
    conn_->set_on_data(nullptr);
    conn_->set_on_error(nullptr);
    conn_->set_on_closed(nullptr);
    conn_->set_on_remote_close(nullptr);
  }
  conn_ = conn;
  rx_.clear();
  conn_->set_on_data([this](const util::Bytes& chunk) {
    rx_.insert(rx_.end(), chunk.begin(), chunk.end());
    OnData();
  });
  auto gone = [this] { conn_ = nullptr; };
  conn_->set_on_error([gone](const std::string&) { gone(); });
  conn_->set_on_closed(gone);
}

void CheckpointReceiver::OnData() {
  while (rx_.size() >= 4) {
    util::ByteReader header(rx_.data(), 4);
    const uint32_t len = header.ReadU32();
    if (len > kMaxFrameBytes) {
      ++parse_errors_;
      if (parse_errors_metric_ != nullptr) {
        parse_errors_metric_->Inc();
      }
      rx_.clear();
      return;
    }
    if (rx_.size() < 4 + static_cast<size_t>(len)) {
      return;  // Frame still in flight.
    }
    util::Bytes payload(rx_.begin() + 4, rx_.begin() + 4 + static_cast<long>(len));
    rx_.erase(rx_.begin(), rx_.begin() + 4 + static_cast<long>(len));
    if (DecodeFrame(payload)) {
      ++frames_received_;
      last_frame_at_ = stack_->simulator()->Now();
      if (frames_metric_ != nullptr) {
        frames_metric_->Inc();
      }
      if (ckpt_streams_metric_ != nullptr) {
        ckpt_streams_metric_->Set(static_cast<double>(latest_.streams.size()));
      }
      ArmWatchdog();
    } else {
      ++parse_errors_;
      if (parse_errors_metric_ != nullptr) {
        parse_errors_metric_->Inc();
      }
    }
  }
}

bool CheckpointReceiver::DecodeFrame(const util::Bytes& payload) {
  util::ByteReader r(payload);
  std::optional<uint8_t> version = ReadStateHeader(&r, kFrameMagic);
  if (!version.has_value() || *version != kFrameVersion) {
    return false;
  }
  CheckpointState state;
  state.seq = r.ReadU64();
  state.taken_at = static_cast<sim::TimePoint>(r.ReadU64());
  const uint32_t n_services = r.ReadU32();
  if (r.failed() || n_services > 65536) {
    return false;
  }
  for (uint32_t i = 0; i < n_services && !r.failed(); ++i) {
    CheckpointedService svc;
    svc.filter = r.ReadString();
    svc.key = ReadStreamKey(&r);
    const uint8_t n_args = r.ReadU8();
    for (uint8_t a = 0; a < n_args && !r.failed(); ++a) {
      svc.args.push_back(r.ReadString());
    }
    const uint8_t mode = r.ReadU8();
    auto cache_key = std::make_pair(svc.filter, svc.key);
    switch (mode) {
      case kStateNone:
        blob_cache_.erase(cache_key);
        break;
      case kStateUnchanged: {
        auto it = blob_cache_.find(cache_key);
        if (it == blob_cache_.end()) {
          // The sender clears its cache on reconnect, so this cannot happen
          // on a well-behaved peer; degrade to "no state".
          break;
        }
        svc.has_state = true;
        svc.state = it->second;
        break;
      }
      case kStateBlob: {
        const uint32_t blob_len = r.ReadU32();
        if (blob_len > kMaxFrameBytes) {
          return false;
        }
        svc.state = r.ReadBytes(blob_len);
        if (r.failed()) {
          return false;
        }
        svc.has_state = true;
        blob_cache_[cache_key] = svc.state;
        break;
      }
      default:
        return false;
    }
    state.services.push_back(std::move(svc));
  }
  const uint32_t n_streams = r.ReadU32();
  if (r.failed() || n_streams > 1u << 20) {
    return false;
  }
  for (uint32_t i = 0; i < n_streams && !r.failed(); ++i) {
    CheckpointedStream s;
    s.key = ReadStreamKey(&r);
    s.packets = r.ReadU64();
    s.bytes = r.ReadU64();
    s.first_seen = static_cast<sim::TimePoint>(r.ReadU64());
    state.streams.push_back(s);
  }
  if (r.failed()) {
    return false;
  }
  latest_ = std::move(state);
  return true;
}

void CheckpointReceiver::ArmWatchdog() {
  if (watchdog_fired_ || watchdog_timer_ != sim::kInvalidTimerId) {
    return;
  }
  const sim::Duration period = std::max<sim::Duration>(config_.watchdog / 4, 1);
  watchdog_timer_ = stack_->simulator()->ScheduleTimer(period, [this] { OnWatchdog(); });
}

void CheckpointReceiver::OnWatchdog() {
  watchdog_timer_ = sim::kInvalidTimerId;
  if (watchdog_fired_) {
    return;
  }
  if (stack_->simulator()->Now() - last_frame_at_ >= config_.watchdog) {
    watchdog_fired_ = true;
    if (on_primary_dead_) {
      on_primary_dead_();
    }
    return;
  }
  ArmWatchdog();
}

void CheckpointReceiver::DisarmWatchdog() {
  watchdog_fired_ = true;  // Blocks re-arming.
  if (watchdog_timer_ != sim::kInvalidTimerId) {
    stack_->simulator()->Cancel(watchdog_timer_);
    watchdog_timer_ = sim::kInvalidTimerId;
  }
}

}  // namespace comma::proxy
