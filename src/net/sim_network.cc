#include "net/sim_network.h"

#include "common/metrics.h"

namespace orchestra::net {

int64_t SimNetwork::Charge(uint32_t endpoint, int64_t hops, int64_t bytes) {
  // Function-local statics: the registry lock is paid once, after which
  // the per-message cost is two relaxed atomic adds.
  static Counter& net_messages =
      MetricsRegistry::Global().GetCounter("net.messages");
  static Counter& net_bytes = MetricsRegistry::Global().GetCounter("net.bytes");
  const int64_t micros = hops * MessageCostMicros(bytes);
  NetStats& stats = per_endpoint_[endpoint];
  if (sim_tracer_ != nullptr) {
    sim_tracer_->Record(endpoint, "net.send", 'I', stats.micros, hops * bytes);
    sim_tracer_->Record(endpoint, "net.recv", 'I', stats.micros + micros,
                        hops * bytes);
  }
  stats.micros += micros;
  stats.messages += hops;
  stats.bytes += hops * bytes;
  global_.micros += micros;
  global_.messages += hops;
  global_.bytes += hops * bytes;
  net_messages.Add(hops);
  net_bytes.Add(hops * bytes);
  return micros;
}

Status SimNetwork::TryCharge(uint32_t endpoint, int64_t hops, int64_t bytes) {
  Charge(endpoint, hops, bytes);
  if (injector_ == nullptr) return Status::OK();
  Status status = injector_->MaybeFail("net.send");
  if (!status.ok()) {
    static Counter& dropped =
        MetricsRegistry::Global().GetCounter("net.dropped_sends");
    dropped.Increment();
  }
  return status;
}

Result<std::string> SimNetwork::TryChargePayload(uint32_t endpoint,
                                                 int64_t hops,
                                                 std::string_view payload) {
  ORCH_RETURN_IF_ERROR(
      TryCharge(endpoint, hops, static_cast<int64_t>(payload.size())));
  std::string delivered(payload);
  if (injector_ != nullptr &&
      injector_->MaybeCorrupt("net.payload_corrupt", &delivered)) {
    static Counter& corrupted = MetricsRegistry::Global().GetCounter(
        "integrity.payloads_corrupted_in_flight");
    corrupted.Increment();
  }
  return delivered;
}

NetStats SimNetwork::StatsFor(uint32_t endpoint) const {
  auto it = per_endpoint_.find(endpoint);
  return it == per_endpoint_.end() ? NetStats{} : it->second;
}

}  // namespace orchestra::net
