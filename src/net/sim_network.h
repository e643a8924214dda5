#ifndef ORCHESTRA_NET_SIM_NETWORK_H_
#define ORCHESTRA_NET_SIM_NETWORK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/fault_injector.h"
#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"

namespace orchestra::net {

/// Deterministic network cost model. The paper's experiments add a delay
/// of at least 500 microseconds to every DHT message (and reply) and run
/// the central store over switched 100 Mb Ethernet; we reproduce those
/// costs as simulated time so results do not depend on host load.
struct NetworkConfig {
  /// One-way per-message latency (propagation + processing).
  int64_t one_way_latency_micros = 500;
  /// Link bandwidth in bytes per microsecond (12.5 = 100 Mb/s).
  double bytes_per_micro = 12.5;
};

/// Per-endpoint traffic counters.
struct NetStats {
  int64_t micros = 0;
  int64_t messages = 0;
  int64_t bytes = 0;

  friend NetStats operator-(NetStats a, const NetStats& b) {
    a.micros -= b.micros;
    a.messages -= b.messages;
    a.bytes -= b.bytes;
    return a;
  }
};

/// Accounts simulated network time, message counts and bytes, per
/// charged endpoint (participant) and globally.
class SimNetwork {
 public:
  explicit SimNetwork(NetworkConfig config = {}) : config_(config) {}

  const NetworkConfig& config() const { return config_; }

  /// Simulated cost of one message of `bytes` payload over one hop.
  int64_t MessageCostMicros(int64_t bytes) const {
    return config_.one_way_latency_micros +
           static_cast<int64_t>(static_cast<double>(bytes) /
                                config_.bytes_per_micro);
  }

  /// Charges `hops` sequential message transmissions of `bytes` each to
  /// `endpoint` and returns the charged simulated time.
  int64_t Charge(uint32_t endpoint, int64_t hops, int64_t bytes);

  /// Like Charge, but the message can be lost: when a fault injector is
  /// installed it is consulted once per call and may return Unavailable.
  /// The transmission is charged either way — a lost message still
  /// consumed the wire. Callers on failable protocol paths use this;
  /// pure cost-accounting paths keep using Charge.
  Status TryCharge(uint32_t endpoint, int64_t hops, int64_t bytes);

  /// Payload-carrying TryCharge: ships actual bytes instead of a pure
  /// byte count, and returns what the receiver sees. Loss (net.send)
  /// still surfaces as kUnavailable; in-flight corruption
  /// (net.payload_corrupt) mutates the delivered copy *silently* —
  /// exactly like a real link — so the receiver's envelope checksum is
  /// the only line of defense. Costs are charged either way.
  Result<std::string> TryChargePayload(uint32_t endpoint, int64_t hops,
                                       std::string_view payload);

  /// Installs (or clears) a fault injector for TryCharge. Must outlive
  /// the network or be cleared first.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Installs (or clears) a simulated-time tracer: every Charge emits a
  /// "net.send" instant at the endpoint's clock before the transfer and
  /// a "net.recv" instant after it, on the endpoint's track. Timestamps
  /// come from the deterministic per-endpoint accumulated micros, so
  /// traces are bit-identical across same-seed runs. Must outlive the
  /// network or be cleared first.
  void set_sim_tracer(Tracer* tracer) { sim_tracer_ = tracer; }

  NetStats StatsFor(uint32_t endpoint) const;
  const NetStats& global() const { return global_; }

  void Reset() {
    per_endpoint_.clear();
    global_ = NetStats{};
  }

 private:
  NetworkConfig config_;
  std::unordered_map<uint32_t, NetStats> per_endpoint_;
  NetStats global_;
  FaultInjector* injector_ = nullptr;
  Tracer* sim_tracer_ = nullptr;
};

}  // namespace orchestra::net

#endif  // ORCHESTRA_NET_SIM_NETWORK_H_
