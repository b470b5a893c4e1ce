#include "src/proxy/service_proxy.h"

#include <algorithm>
#include <exception>

#include "src/util/check.h"

namespace comma::proxy {

// --- FilterContext ---

sim::Simulator& FilterContext::simulator() { return *proxy_->node()->simulator(); }
sim::Tracer& FilterContext::tracer() { return proxy_->node()->tracer(); }
void FilterContext::InjectPacket(net::PacketPtr packet) {
  proxy_->InjectPacket(std::move(packet));
}
monitor::EemClient* FilterContext::eem() { return proxy_->eem(); }
obs::MetricRegistry* FilterContext::metrics() { return &proxy_->metrics(); }
Filter* FilterContext::FindFilterOnKey(const StreamKey& key, const std::string& name) {
  return proxy_->FindFilterOnKey(key, name);
}

// --- Filter default behaviour ---

bool Filter::OnInsert(FilterContext&, const StreamKey&, const std::vector<std::string>&,
                      std::string*) {
  // AddService already attached this instance to the requested key; filters
  // that need more keys (e.g. the reverse direction) override this.
  return true;
}

void Filter::In(FilterContext&, const StreamKey&, const net::Packet&) {}

FilterVerdict Filter::Out(FilterContext&, const StreamKey&, net::Packet&) {
  return FilterVerdict::kPass;
}

void Filter::OnNewStream(FilterContext&, const StreamKey&) {}

void Filter::OnDetach(FilterContext&, const StreamKey&) {}

FilterStateKind Filter::state_kind() const { return FilterStateKind::kStateless; }

bool Filter::ExportState(util::Bytes*) const { return false; }

bool Filter::ImportState(FilterContext&, const util::Bytes&, std::string* error) {
  if (error != nullptr) {
    *error = "filter '" + name_ + "' does not import state";
  }
  return false;
}

// --- ServiceProxy ---

ServiceProxy::ServiceProxy(net::Node* node, FilterRegistry registry)
    : node_(node), registry_(std::move(registry)), context_(this) {
  node_->AddTap(this);
  // Existing ProxyStats counters are exported as pull sources — no cost on
  // the packet path, read only when a snapshot is taken. `this` outlives the
  // registry (member declaration order), so the captures are safe.
  metrics_.RegisterCounterSource("sp.packets_inspected",
                                 [this] { return stats_.packets_inspected; });
  metrics_.RegisterCounterSource("sp.packets_modified",
                                 [this] { return stats_.packets_modified; });
  metrics_.RegisterCounterSource("sp.packets_dropped",
                                 [this] { return stats_.packets_dropped; });
  metrics_.RegisterCounterSource("sp.packets_injected",
                                 [this] { return stats_.packets_injected; });
  metrics_.RegisterCounterSource("sp.streams_seen", [this] { return stats_.streams_seen; });
  metrics_.RegisterCounterSource("sp.filters_quarantined",
                                 [this] { return stats_.filters_quarantined; });
  metrics_.RegisterGaugeSource("sp.streams",
                               [this] { return static_cast<double>(streams_.size()); });
  metrics_.RegisterGaugeSource("sp.attachments",
                               [this] { return static_cast<double>(attachments_.size()); });
  metrics_.RegisterGaugeSource("sp.queue_cache_entries",
                               [this] { return static_cast<double>(queue_cache_.size()); });
  metrics_.RegisterGaugeSource("sp.registry_size",
                               [this] { return static_cast<double>(metrics_.size()); });
  // Cost of resolving a stream's filter queue on a cache miss, in
  // attachments examined (the resolve is a linear scan over the attachment
  // set plus a sort). A deterministic work count, not wall time: wall-clock
  // reads are banned in src/proxy (comma-lint nondeterminism-ban) so metric
  // snapshots stay bit-for-bit reproducible for the fault-replay oracle.
  queue_resolve_work_ = metrics_.GetHistogram("sp.queue_resolve_work", 0.0, 1000.0, 50);
}

ServiceProxy::~ServiceProxy() {
  // Detach every attachment first: filters with armed timers (snoop's local
  // retransmit clock) cancel them in OnDetach, so tearing down a proxy
  // mid-run — a crashed gateway — leaves no timer aimed at freed state.
  while (!attachments_.empty()) {
    Attachment att = attachments_.back();
    Detach(att.filter, att.key);
  }
  node_->RemoveTap(this);
}

std::optional<std::string> ServiceProxy::LoadFilter(const std::string& file) {
  return registry_.Load(file);
}

bool ServiceProxy::RemoveFilter(const std::string& file) { return registry_.Unload(file); }

bool ServiceProxy::AddService(const std::string& filter_name, const StreamKey& key,
                              const std::vector<std::string>& args, std::string* error) {
  std::unique_ptr<Filter> instance = registry_.Create(filter_name);
  if (instance == nullptr) {
    if (error != nullptr) {
      *error = "unknown or unloaded filter: " + filter_name;
    }
    return false;
  }
  FilterPtr filter(std::move(instance));
  // The insertion method decides which keys to attach to; the default
  // implementation (below, via Attach) uses the requested key itself.
  Attach(filter, key);
  std::string local_error;
  bool inserted = false;
  // A throwing insertion method is a clean `add` failure, not a quarantine:
  // the instance never went live, so it is simply discarded.
  try {
    inserted = filter->OnInsert(context_, key, args, &local_error);
  } catch (const std::exception& e) {
    inserted = false;
    local_error = std::string("insertion method failed: ") + e.what();
  }
  if (!inserted) {
    Detach(filter, key);
    if (error != nullptr) {
      *error = local_error.empty() ? "insertion refused" : local_error;
    }
    return false;
  }
  services_.push_back({filter_name, key, args, filter});
  return true;
}

bool ServiceProxy::DeleteService(const std::string& filter_name, const StreamKey& key) {
  std::vector<FilterPtr> victims;
  for (const Attachment& att : attachments_) {
    if (att.key == key && att.filter->name() == filter_name) {
      victims.push_back(att.filter);
    }
  }
  for (const FilterPtr& f : victims) {
    Detach(f, key);
  }
  services_.erase(std::remove_if(services_.begin(), services_.end(),
                                 [&](const ServiceRecord& r) {
                                   return r.filter == filter_name && r.key == key;
                                 }),
                  services_.end());
  return !victims.empty();
}

void ServiceProxy::Attach(const FilterPtr& filter, const StreamKey& key) {
  if (filter == nullptr) {
    return;
  }
  // No duplicate attachments of the same instance to the same key.
  for (const Attachment& att : attachments_) {
    if (att.filter == filter && att.key == key) {
      return;
    }
  }
  attachments_.push_back({filter, key});
  // Intern the per-filter telemetry now, not on first packet: an attached
  // filter's sp.filter.<name>.* counters must be visible to `stats` and the
  // EEM bridge even before (or without) traffic.
  TelemetryFor(filter.get());
  InvalidateQueues();
}

void ServiceProxy::Detach(const FilterPtr& filter, const StreamKey& key) {
  auto it = std::find_if(attachments_.begin(), attachments_.end(), [&](const Attachment& att) {
    return att.filter == filter && att.key == key;
  });
  if (it == attachments_.end()) {
    return;
  }
  FilterPtr held = it->filter;  // Keep alive through the callback.
  attachments_.erase(it);
  RunContained(held.get(), "OnDetach", [&] { held->OnDetach(context_, key); });
  InvalidateQueues();
}

void ServiceProxy::RemoveStream(const StreamKey& key) {
  std::vector<std::pair<FilterPtr, StreamKey>> victims;
  for (const Attachment& att : attachments_) {
    if (att.key == key) {
      victims.emplace_back(att.filter, att.key);
    }
  }
  for (auto& [filter, k] : victims) {
    Detach(filter, k);
  }
  services_.erase(std::remove_if(services_.begin(), services_.end(),
                                 [&](const ServiceRecord& r) { return r.key == key; }),
                  services_.end());
  streams_.erase(key);
  queue_cache_.erase(key);
}

void ServiceProxy::AdoptStream(const StreamKey& key, const StreamInfo& info) {
  if (streams_.count(key) != 0) {
    return;
  }
  StreamInfo adopted = info;
  // A registered stream has by contract been seen at least once
  // (StreamRegistryAuditor); the checkpoint always carries a positive count,
  // but guard against hand-built states.
  if (adopted.packets == 0) {
    adopted.packets = 1;
  }
  if (adopted.last_seen < adopted.first_seen) {
    adopted.last_seen = adopted.first_seen;
  }
  streams_.emplace(key, adopted);
  // Counts as a stream this proxy has seen — but deliberately does NOT fire
  // NotifyNewStream: the stream's per-key services arrive via the restored
  // service records, and re-running wild-card launchers here would install
  // them twice.
  ++stats_.streams_seen;
}

void ServiceProxy::InjectPacket(net::PacketPtr packet) {
  ++stats_.packets_injected;
  packet->UpdateChecksums();
  node_->InjectPacket(std::move(packet));
}

Filter* ServiceProxy::FindFilterOnKey(const StreamKey& key, const std::string& name) {
  for (const Attachment& att : attachments_) {
    if (att.filter->name() == name && (att.key == key || att.key.Matches(key))) {
      return att.filter.get();
    }
  }
  return nullptr;
}

// --- Fault containment ---

bool ServiceProxy::IsQuarantined(const Filter* f) const {
  return std::find(quarantined_.begin(), quarantined_.end(), f) != quarantined_.end();
}

void ServiceProxy::QuarantineFilter(Filter* f, const std::string& reason) {
  RecordQuarantine(f, reason);
}

void ServiceProxy::RecordQuarantine(Filter* f, const std::string& reason) {
  if (f == nullptr || IsQuarantined(f)) {
    return;
  }
  quarantined_.push_back(f);
  quarantine_log_.push_back({f->name(), f, reason, node_->simulator()->Now()});
  ++stats_.filters_quarantined;
  node_->tracer().Logf(sim::TraceLevel::kWarn, "proxy", "quarantined filter %s: %s",
                       f->name().c_str(), reason.c_str());
  // Resolved queues must stop listing the instance — but a pass may be
  // iterating a cached queue right now, so flushing the cache here would
  // dangle its reference. OnPacket flushes after the pass instead.
  if (!in_filter_pass_) {
    InvalidateQueues();
  }
}

template <typename Fn>
bool ServiceProxy::RunContained(Filter* f, const char* where, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    RecordQuarantine(f, std::string(where) + ": " + e.what());
  } catch (...) {
    RecordQuarantine(f, std::string(where) + ": unknown exception");
  }
  return false;
}

std::vector<ServiceProxy::ReportEntry> ServiceProxy::Report(const std::string& only_filter) const {
  std::vector<ReportEntry> out;
  for (const std::string& name : registry_.loaded()) {
    if (!only_filter.empty() && name != only_filter) {
      continue;
    }
    ReportEntry entry;
    entry.filter = name;
    for (const Attachment& att : attachments_) {
      if (att.filter->name() == name) {
        entry.keys.push_back(att.key.ToString());
      }
    }
    for (const QuarantineRecord& rec : quarantine_log_) {
      if (rec.filter != name) {
        continue;
      }
      // The instance may still be attached (bypassed in place): list its keys.
      std::string keys;
      for (const Attachment& att : attachments_) {
        if (att.filter.get() == rec.instance) {
          keys += (keys.empty() ? "" : ", ") + att.key.ToString();
        }
      }
      entry.quarantined.push_back((keys.empty() ? "(detached)" : keys) + " -- " + rec.reason);
    }
    out.push_back(std::move(entry));
  }
  return out;
}

std::vector<Filter*> ServiceProxy::ResolveQueue(const StreamKey& key) const {
  std::vector<Filter*> queue;
  for (const Attachment& att : attachments_) {
    if (att.key == key || att.key.Matches(key)) {
      if (IsQuarantined(att.filter.get())) {
        continue;  // Bypassed fail-open; the stream runs without it.
      }
      if (std::find(queue.begin(), queue.end(), att.filter.get()) == queue.end()) {
        queue.push_back(att.filter.get());
      }
    }
  }
  // Stable sort: equal priorities keep attachment order.
  std::stable_sort(queue.begin(), queue.end(), [](const Filter* a, const Filter* b) {
    return static_cast<int>(a->priority()) > static_cast<int>(b->priority());
  });
  return queue;
}

const std::vector<Filter*>& ServiceProxy::QueueFor(const StreamKey& key) {
  auto it = queue_cache_.find(key);
  if (it != queue_cache_.end()) {
    return it->second;
  }
  auto& queue = queue_cache_.emplace(key, ResolveQueue(key)).first->second;
  queue_resolve_work_->Observe(static_cast<double>(attachments_.size()));
  return queue;
}

FilterTelemetry* ServiceProxy::TelemetryFor(Filter* f) {
  if (f->telemetry_ != nullptr) {
    return f->telemetry_;
  }
  auto it = filter_telemetry_.find(f->name());
  if (it == filter_telemetry_.end()) {
    const std::string prefix = "sp.filter." + f->name() + ".";
    auto t = std::make_unique<FilterTelemetry>();
    t->in_packets = metrics_.GetCounter(prefix + "in_packets");
    t->in_bytes = metrics_.GetCounter(prefix + "in_bytes");
    t->out_packets = metrics_.GetCounter(prefix + "out_packets");
    t->out_bytes = metrics_.GetCounter(prefix + "out_bytes");
    t->packets_dropped = metrics_.GetCounter(prefix + "packets_dropped");
    t->bytes_dropped = metrics_.GetCounter(prefix + "bytes_dropped");
    t->bytes_shrunk = metrics_.GetCounter(prefix + "bytes_shrunk");
    t->bytes_grown = metrics_.GetCounter(prefix + "bytes_grown");
    it = filter_telemetry_.emplace(f->name(), std::move(t)).first;
  }
  f->telemetry_ = it->second.get();
  return f->telemetry_;
}

void ServiceProxy::NotifyNewStream(const StreamKey& key) {
  ++stats_.streams_seen;
  // Wild-card-attached filters get a chance to launch services (launcher).
  std::vector<FilterPtr> interested;
  for (const Attachment& att : attachments_) {
    if (att.key.IsWildcard() && att.key.Matches(key)) {
      interested.push_back(att.filter);
    }
  }
  for (const FilterPtr& f : interested) {
    if (IsQuarantined(f.get())) {
      continue;
    }
    RunContained(f.get(), "OnNewStream", [&] { f->OnNewStream(context_, key); });
  }
}

net::TapVerdict ServiceProxy::OnPacket(net::PacketPtr& packet, const net::TapContext&) {
  // Guard against reentrancy (an injected packet looping back through the
  // same node would otherwise re-enter the queues).
  if (in_filter_pass_) {
    return net::TapVerdict::kPass;
  }

  const StreamKey key = StreamKey::FromPacket(*packet);
  ++stats_.packets_inspected;

  auto stream_it = streams_.find(key);
  if (stream_it == streams_.end()) {
    stream_it = streams_.emplace(key, StreamInfo{node_->simulator()->Now(), 0, 0, 0}).first;
    NotifyNewStream(key);
  }
  StreamInfo& info = stream_it->second;
  info.last_seen = node_->simulator()->Now();
  ++info.packets;
  info.bytes += packet->SizeBytes();

  const std::vector<Filter*>& queue = QueueFor(key);
  if (queue.empty()) {
    return net::TapVerdict::kPass;
  }

  const bool audit = util::DebugChecksEnabled();
  std::vector<int> visited_priorities;
  if (audit) {
    queue_auditor_.AuditQueue(*this, key, queue);
    registry_auditor_.AuditStream(*this, key);
    visited_priorities.reserve(queue.size());
  }

  // Quarantines during the pass must not flush the cache mid-iteration
  // (`queue` aliases the cached vector); compare the log length afterwards.
  const size_t quarantines_before = quarantine_log_.size();

  in_filter_pass_ = true;
  // In pass: top (highest priority) down — read-only.
  for (Filter* f : queue) {
    if (IsQuarantined(f)) {
      continue;  // Faulted earlier in this very pass.
    }
    if (audit) {
      visited_priorities.push_back(static_cast<int>(f->priority()));
    }
    FilterTelemetry* t = TelemetryFor(f);
    t->in_packets->Inc();
    t->in_bytes->Inc(packet->payload().size());
    RunContained(f, "In", [&] { f->In(context_, key, *packet); });
  }
  if (audit) {
    queue_auditor_.AuditInPassOrder(visited_priorities);
    visited_priorities.clear();
  }
  // Out pass: bottom (lowest priority) up — may modify or drop.
  const uint16_t checksum_before = packet->has_tcp() ? packet->tcp().checksum
                                   : packet->has_udp() ? packet->udp().checksum
                                                       : packet->ip().checksum;
  for (auto rit = queue.rbegin(); rit != queue.rend(); ++rit) {
    Filter* f = *rit;
    if (IsQuarantined(f)) {
      continue;
    }
    if (audit) {
      visited_priorities.push_back(static_cast<int>(f->priority()));
    }
    // A faulting Out quarantines the filter and passes the packet through
    // unmodified-by-it (fail-open): dropping on fault would stall the stream
    // the service was supposed to be transparent to.
    FilterVerdict verdict = FilterVerdict::kPass;
    FilterTelemetry* t = TelemetryFor(f);
    const size_t payload_before = packet->payload().size();
    RunContained(f, "Out", [&] { verdict = f->Out(context_, key, *packet); });
    if (verdict == FilterVerdict::kDrop) {
      t->packets_dropped->Inc();
      t->bytes_dropped->Inc(payload_before);
      ++stats_.packets_dropped;
      in_filter_pass_ = false;
      if (quarantine_log_.size() != quarantines_before) {
        InvalidateQueues();  // `queue` is dead past this point.
      }
      if (audit) {
        // A kDrop cuts the pass short; the visited prefix must still be
        // bottom-up.
        queue_auditor_.AuditOutPassOrder(visited_priorities);
      }
      return net::TapVerdict::kDrop;
    }
    const size_t payload_after = packet->payload().size();
    t->out_packets->Inc();
    t->out_bytes->Inc(payload_after);
    if (payload_after < payload_before) {
      t->bytes_shrunk->Inc(payload_before - payload_after);
    } else if (payload_after > payload_before) {
      t->bytes_grown->Inc(payload_after - payload_before);
    }
  }
  in_filter_pass_ = false;
  if (quarantine_log_.size() != quarantines_before) {
    InvalidateQueues();  // `queue` is dead past this point.
  }
  if (audit) {
    queue_auditor_.AuditOutPassOrder(visited_priorities);
  }
  const uint16_t checksum_after = packet->has_tcp() ? packet->tcp().checksum
                                  : packet->has_udp() ? packet->udp().checksum
                                                      : packet->ip().checksum;
  if (checksum_before != checksum_after) {
    ++stats_.packets_modified;
  }
  return net::TapVerdict::kPass;
}

}  // namespace comma::proxy
