#include "src/mobileip/proxy_handoff.h"

namespace comma::mobileip {

bool KeyConcernsMobile(const proxy::StreamKey& key, net::Ipv4Address mobile) {
  return key.src == mobile || key.dst == mobile || key.src.IsUnspecified() ||
         key.dst.IsUnspecified();
}

void ProxyHandoffManager::RegisterProxy(net::Ipv4Address care_of, proxy::ServiceProxy* sp) {
  proxies_[care_of] = sp;
}

proxy::RestoreResult ProxyHandoffManager::OnHandoff(net::Ipv4Address mobile,
                                                    net::Ipv4Address old_coa,
                                                    net::Ipv4Address new_coa) {
  auto from = proxies_.find(old_coa);
  auto to = proxies_.find(new_coa);
  if (from == proxies_.end() || to == proxies_.end() || from->second == to->second) {
    return {};
  }
  ++handoffs_;
  proxy::ServiceProxy& source = *from->second;
  const proxy::CheckpointState moving = proxy::CaptureState(
      source, [mobile](const proxy::StreamKey& key) { return KeyConcernsMobile(key, mobile); });
  const proxy::RestoreResult result = proxy::RestoreFromCheckpoint(moving, *to->second);
  // Release at the source: forgetting a stream drops the per-stream services
  // on its key; the wild-card services (and any exact-key service with no
  // stream yet) go by name.
  for (const proxy::CheckpointedStream& stream : moving.streams) {
    source.RemoveStream(stream.key);
  }
  for (const proxy::CheckpointedService& svc : moving.services) {
    source.DeleteService(svc.filter, svc.key);
  }
  return result;
}

}  // namespace comma::mobileip
