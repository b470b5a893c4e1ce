// Proxy mobility (thesis §5.1.1 + §10.2.3 future work): "the interception
// point will eventually be merged with an implementation of Mobile IP and
// incorporated into the operation of the FA", and "methods to hand off
// [proxy] operations" are needed when the mobile moves between gateways.
//
// ProxyHandoffManager realizes that plan: each foreign-agent router hosts a
// Service Proxy; when the mobile registers through a new FA, the manager
// moves the mobile's part of the old FA's proxy to the new one the same way
// a crash takeover restores a standby (src/proxy/checkpoint.h): it captures
// every service and stream whose key concerns the mobile, with each
// checkpointed filter's exported state, restores that capture at the new
// proxy, and then releases what it captured at the old one. Filters that
// keep no exportable state (or whose import fails) rebuild from the stream
// itself. Services bound by wild-card to the mobile keep working because
// the wild-card re-matches at the new proxy.
#ifndef COMMA_MOBILEIP_PROXY_HANDOFF_H_
#define COMMA_MOBILEIP_PROXY_HANDOFF_H_

#include <map>

#include "src/net/address.h"
#include "src/proxy/checkpoint.h"
#include "src/proxy/service_proxy.h"

namespace comma::mobileip {

// A key concerns the mobile if either endpoint names it, or is a wild-card
// position that could match it (the wild-card then also matches at the new
// proxy and must move too).
bool KeyConcernsMobile(const proxy::StreamKey& key, net::Ipv4Address mobile);

class ProxyHandoffManager {
 public:
  // Associates a care-of address with the Service Proxy running on that
  // foreign agent's router.
  void RegisterProxy(net::Ipv4Address care_of, proxy::ServiceProxy* sp);

  // Moves the mobile's services and streams from the proxy at `old_coa` to
  // the proxy at `new_coa`: capture, restore at the destination, release at
  // the source. A service the destination rejects is dropped, and its
  // streams run pass-through there. Returns the restore's accounting; all
  // zero when either address has no proxy or both name the same one.
  proxy::RestoreResult OnHandoff(net::Ipv4Address mobile, net::Ipv4Address old_coa,
                                 net::Ipv4Address new_coa);

  // Hand-offs that moved state between two registered proxies.
  uint64_t handoffs() const { return handoffs_; }

 private:
  std::map<net::Ipv4Address, proxy::ServiceProxy*> proxies_;
  uint64_t handoffs_ = 0;
};

}  // namespace comma::mobileip

#endif  // COMMA_MOBILEIP_PROXY_HANDOFF_H_
