// The Comma Service Proxy (thesis Ch. 5).
//
// Attaches to a node as a packet tap (the Packet Interception Module),
// matches each packet's stream key against attached filters, and runs the
// in/out filter queues. Maintains:
//  - the filter pool (a FilterRegistry of loadable filter factories);
//  - attachments: (filter instance, key) pairs, where the key may be a
//    wild-card (launcher-style filters) or exact (per-stream services);
//  - the stream registry: every exact key seen, with accounting
//    (filter accounting, §5.2);
//  - resolved per-stream filter queues, cached and invalidated whenever the
//    attachment set changes.
//
// Concurrency (DESIGN.md §7): the proxy — including the stream registry
// (streams_) and the resolved-queue cache — is owned by the simulation
// thread of its node's region. Only the embedded obs::MetricRegistry is
// thread-safe.
#ifndef COMMA_PROXY_SERVICE_PROXY_H_
#define COMMA_PROXY_SERVICE_PROXY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/node.h"
#include "src/obs/metric_registry.h"
#include "src/proxy/auditors.h"
#include "src/proxy/filter.h"
#include "src/proxy/filter_registry.h"
#include "src/proxy/stream_key.h"

namespace comma::monitor {
class EemClient;
}

namespace comma::proxy {

class ServiceCatalog;

struct StreamInfo {
  sim::TimePoint first_seen = 0;
  sim::TimePoint last_seen = 0;
  uint64_t packets = 0;
  uint64_t bytes = 0;
};

struct ProxyStats {
  uint64_t packets_inspected = 0;
  uint64_t packets_modified = 0;   // Serialized bytes changed across the queue.
  uint64_t packets_dropped = 0;    // A filter returned kDrop.
  uint64_t packets_injected = 0;   // Filter-manufactured packets.
  uint64_t streams_seen = 0;
  uint64_t filters_quarantined = 0;  // Instances bypassed after a fault.
};

// Hot-path metric handles shared by every instance of one filter name on one
// proxy ("sp.filter.<name>.*" in the registry). Interned once per name; the
// packet path only bumps pre-resolved counters.
struct FilterTelemetry {
  obs::Counter* in_packets;
  obs::Counter* in_bytes;       // Payload bytes presented to the in pass.
  obs::Counter* out_packets;    // Packets surviving this filter's out pass.
  obs::Counter* out_bytes;      // Payload bytes after this filter ran.
  obs::Counter* packets_dropped;
  obs::Counter* bytes_dropped;  // Payload bytes of kDrop'd packets.
  obs::Counter* bytes_shrunk;   // Payload bytes removed by in-place edits.
  obs::Counter* bytes_grown;    // Payload bytes added by in-place edits.
};

class ServiceProxy : public net::PacketTap {
 public:
  // Attaches to `node` as a tap. The registry defines the filter pool.
  ServiceProxy(net::Node* node, FilterRegistry registry);
  ~ServiceProxy() override;

  // --- Service management (backs the §5.3 command interface) ---
  // "load": returns the registered filter name, or nullopt.
  std::optional<std::string> LoadFilter(const std::string& file);
  // "remove": unloads the factory; live instances keep running.
  bool RemoveFilter(const std::string& file);
  // "add": instantiates `filter_name` and runs its insertion method on
  // `key` with `args`. Returns false with *error set on failure.
  bool AddService(const std::string& filter_name, const StreamKey& key,
                  const std::vector<std::string>& args, std::string* error);
  // "delete": detaches instances of `filter_name` attached to exactly `key`.
  bool DeleteService(const std::string& filter_name, const StreamKey& key);

  // --- Filter-facing interface (via FilterContext) ---
  // Attaches an existing instance to an additional key (insertion methods
  // adding methods to other keys, §5.2).
  void Attach(const FilterPtr& filter, const StreamKey& key);
  void Detach(const FilterPtr& filter, const StreamKey& key);
  // Removes a closed stream: detaches every filter on `key`, drops its
  // queue, and forgets the stream (the tcp filter calls this on close).
  void RemoveStream(const StreamKey& key);
  // Seeds the stream registry with a stream inherited from another gateway
  // (checkpoint restore / hand-off, §10.2.3): accounting continues where the
  // source proxy left off, and the launcher's OnNewStream does NOT fire
  // again when the stream's next packet arrives — its per-stream services
  // are reinstalled from the checkpointed service records instead. No-op if
  // the key is already registered.
  void AdoptStream(const StreamKey& key, const StreamInfo& info);
  void InjectPacket(net::PacketPtr packet);
  Filter* FindFilterOnKey(const StreamKey& key, const std::string& name);
  // Wires the co-located EEM client (optional).
  void set_eem(monitor::EemClient* eem) { eem_ = eem; }
  monitor::EemClient* eem() { return eem_; }
  // Wires the service catalog (optional; enables the `service` command).
  void set_catalog(const ServiceCatalog* catalog) { catalog_ = catalog; }
  const ServiceCatalog* catalog() const { return catalog_; }

  // --- Fault containment (graceful degradation) ---
  // A filter whose callback throws is *quarantined*: it is removed from
  // every resolved queue and never invoked again, so the stream it was
  // servicing degrades to plain pass-through instead of dying with the
  // filter (fail-open; the thesis's transparency contract means the end
  // hosts must still see a valid TCP stream when a service misbehaves).
  struct QuarantineRecord {
    std::string filter;      // Filter name.
    const Filter* instance;  // Identity only; may outlive detachment.
    std::string reason;      // what() of the escaping exception.
    sim::TimePoint when = 0;
  };
  bool IsQuarantined(const Filter* f) const;
  const std::vector<QuarantineRecord>& quarantine_log() const { return quarantine_log_; }
  // Manually quarantines a live instance (fault injection / operator action).
  void QuarantineFilter(Filter* f, const std::string& reason);

  // --- Introspection (backs `report` and Kati) ---
  // Filters in load order with their attached keys (Fig. 5.3 layout).
  struct ReportEntry {
    std::string filter;
    std::vector<std::string> keys;
    // One "<key> reason" line per quarantined instance of this filter.
    std::vector<std::string> quarantined;
  };
  std::vector<ReportEntry> Report(const std::string& only_filter = "") const;

  // How each live service was created (AddService name/key/args) and the
  // instance it created. This is what a checkpoint captures and a proxy
  // hand-off moves to the next gateway (§10.2.3).
  struct ServiceRecord {
    std::string filter;
    StreamKey key;
    std::vector<std::string> args;
    FilterPtr instance;
  };
  const std::vector<ServiceRecord>& services() const { return services_; }
  const std::map<StreamKey, StreamInfo>& streams() const { return streams_; }
  const ProxyStats& stats() const { return stats_; }
  const FilterRegistry& registry() const { return registry_; }
  net::Node* node() const { return node_; }
  FilterContext& context() { return context_; }

  // --- Observability (docs/observability.md) ---
  // The proxy-owned metric registry. Always on: the proxy registers its own
  // counters ("sp.*", "sp.filter.<name>.*") at construction, other layers
  // (TCP, EEM, TTSF via FilterContext::metrics) hook theirs in, the `stats`
  // command and the EemMetricsBridge read it back out.
  obs::MetricRegistry& metrics() { return metrics_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }

  // --- Invariant auditing (active when util::DebugChecksEnabled()) ---
  // Resolves the filter queue for `key` from the attachment set without
  // touching the cache; the auditors diff this against cached state.
  std::vector<Filter*> ResolveQueue(const StreamKey& key) const;
  const std::map<StreamKey, std::vector<Filter*>>& queue_cache() const { return queue_cache_; }
  const FilterQueueAuditor& queue_auditor() const { return queue_auditor_; }
  const StreamRegistryAuditor& registry_auditor() const { return registry_auditor_; }
  // Full registry/cache sweep; fires a COMMA_CHECK on any violation.
  void AuditNow() { registry_auditor_.AuditRegistry(*this); }

  // --- PacketTap ---
  net::TapVerdict OnPacket(net::PacketPtr& packet, const net::TapContext& ctx) override;

 private:
  struct Attachment {
    FilterPtr filter;
    StreamKey key;
  };

  // Resolves the ordered filter list for a concrete key (cached).
  const std::vector<Filter*>& QueueFor(const StreamKey& key);
  void InvalidateQueues() { queue_cache_.clear(); }
  void NotifyNewStream(const StreamKey& key);
  // Runs `fn` (a filter callback) inside the containment boundary: an
  // escaping exception quarantines `f` and is swallowed. Returns false when
  // the filter faulted. Never invalidates the queue cache itself — callers
  // iterating a cached queue flush it after the pass.
  template <typename Fn>
  bool RunContained(Filter* f, const char* where, Fn&& fn);
  void RecordQuarantine(Filter* f, const std::string& reason);
  // Interns (once per filter name) and caches the per-filter metric handles
  // on `f`; subsequent packets use the cached pointer.
  FilterTelemetry* TelemetryFor(Filter* f);

  // Declared before everything that may hold handles into it, so the
  // registry outlives filters, sources, and telemetry users.
  obs::MetricRegistry metrics_;
  std::map<std::string, std::unique_ptr<FilterTelemetry>> filter_telemetry_;
  obs::HistogramMetric* queue_resolve_work_ = nullptr;

  net::Node* node_;
  FilterRegistry registry_;
  FilterContext context_;
  monitor::EemClient* eem_ = nullptr;
  const ServiceCatalog* catalog_ = nullptr;

  std::vector<Attachment> attachments_;
  std::vector<ServiceRecord> services_;
  std::map<StreamKey, StreamInfo> streams_;
  std::map<StreamKey, std::vector<Filter*>> queue_cache_;
  ProxyStats stats_;
  FilterQueueAuditor queue_auditor_;
  StreamRegistryAuditor registry_auditor_;
  bool in_filter_pass_ = false;
  // Quarantined instances: excluded by ResolveQueue, skipped mid-pass.
  std::vector<const Filter*> quarantined_;
  std::vector<QuarantineRecord> quarantine_log_;
};

}  // namespace comma::proxy

#endif  // COMMA_PROXY_SERVICE_PROXY_H_
