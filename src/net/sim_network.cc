#include "net/sim_network.h"

#include <algorithm>

#include "common/metrics.h"

namespace orchestra::net {

SimNetwork::Overlap::Overlap(SimNetwork* network, uint32_t endpoint,
                             const char* name)
    : network_(network),
      endpoint_(endpoint),
      name_(name),
      below_(network->top_),
      parent_(network->OpenOverlap(endpoint)) {
  network_->top_ = this;
  if (parent_ != nullptr) {
    parent_lane_ = parent_->lane_;
    start_ = parent_->Now();
  } else {
    start_ = network_->per_endpoint_[endpoint_].micros;
  }
  lane_ = &lanes_[0];
  if (name_ != nullptr && network_->sim_tracer_ != nullptr) {
    network_->sim_tracer_->Record(endpoint_, name_, 'B', start_);
  }
}

SimNetwork::Overlap::~Overlap() {
  // The endpoint's link carries every byte of the scope, so no lane
  // layout can finish before the bytes are through it.
  int64_t span = static_cast<int64_t>(static_cast<double>(bytes_) /
                                      network_->config_.bytes_per_micro);
  for (const auto& [id, elapsed] : lanes_) span = std::max(span, elapsed);
  if (name_ != nullptr && network_->sim_tracer_ != nullptr) {
    network_->sim_tracer_->Record(endpoint_, name_, 'E', start_ + span);
  }
  if (parent_ != nullptr) {
    *parent_lane_ += span;
    parent_->bytes_ += bytes_;
  } else {
    network_->per_endpoint_[endpoint_].micros += span;
  }
  network_->top_ = below_;
}

SimNetwork::Overlap* SimNetwork::OpenOverlap(uint32_t endpoint) const {
  Overlap* overlap = top_;
  while (overlap != nullptr && overlap->endpoint_ != endpoint) {
    overlap = overlap->below_;
  }
  return overlap;
}

int64_t SimNetwork::Charge(uint32_t endpoint, int64_t hops, int64_t bytes) {
  // Function-local statics: the registry lock is paid once, after which
  // the per-message cost is two relaxed atomic adds.
  static Counter& net_messages =
      MetricsRegistry::Global().GetCounter("net.messages");
  static Counter& net_bytes = MetricsRegistry::Global().GetCounter("net.bytes");
  const int64_t micros = hops * MessageCostMicros(bytes);
  NetStats& stats = per_endpoint_[endpoint];
  Overlap* overlap = OpenOverlap(endpoint);
  const int64_t now = overlap != nullptr ? overlap->Now() : stats.micros;
  if (sim_tracer_ != nullptr) {
    sim_tracer_->Record(endpoint, "net.send", 'I', now, hops * bytes);
    sim_tracer_->Record(endpoint, "net.recv", 'I', now + micros,
                        hops * bytes);
  }
  if (overlap != nullptr) {
    *overlap->lane_ += micros;
    overlap->bytes_ += hops * bytes;
  } else {
    stats.micros += micros;
  }
  stats.wire_micros += micros;
  stats.messages += hops;
  stats.bytes += hops * bytes;
  global_.micros += micros;
  global_.wire_micros += micros;
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
