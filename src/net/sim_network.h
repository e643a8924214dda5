#ifndef ORCHESTRA_NET_SIM_NETWORK_H_
#define ORCHESTRA_NET_SIM_NETWORK_H_

#include <cstdint>
#include <map>
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
  /// Simulated network time. Per endpoint this is the time the endpoint
  /// spent waiting on the network: sends inside an Overlap cost the
  /// slowest lane, not their sum. global().micros is the plain sum of
  /// every message's cost, overlapped or not (the wire's total busy
  /// time), which is also the sum of every endpoint's `wire_micros`.
  int64_t micros = 0;
  /// Stop-and-wait time: the plain sum of the costs of every message
  /// charged to the endpoint, overlapped or not — what the endpoint
  /// would have waited had it sent each message only after the previous
  /// one's reply. Overlapping moves `micros`, never this. In global()
  /// it equals `micros`.
  int64_t wire_micros = 0;
  int64_t messages = 0;
  int64_t bytes = 0;

  friend NetStats operator-(NetStats a, const NetStats& b) {
    a.micros -= b.micros;
    a.wire_micros -= b.wire_micros;
    a.messages -= b.messages;
    a.bytes -= b.bytes;
    return a;
  }
};

/// Accounts simulated network time, message counts and bytes, per
/// charged endpoint (participant) and globally.
///
/// Outside an Overlap an endpoint is stop-and-wait: each charge advances
/// its clock by the message's cost. Inside one, independent messages are
/// in flight together (scatter-gather) and the endpoint waits only for
/// the slowest chain of them.
class SimNetwork {
 public:
  explicit SimNetwork(NetworkConfig config = {}) : config_(config) {}

  /// Scatter-gather scope for one endpoint. Charges to `endpoint` made
  /// while it is open go to the current lane: lanes run side by side,
  /// and charges within one lane run one after another (a request, then
  /// the reply it waits for). When the scope closes, the endpoint's
  /// clock advances by the larger of the slowest lane and the
  /// serialization floor: the bytes of every message charged in the
  /// scope divided by `bytes_per_micro` (the endpoint's link is shared).
  /// An overlap opened inside another one for the same endpoint closes
  /// into the lane of its parent that was current when it opened.
  ///
  /// Message and byte counts are charged exactly as outside an overlap.
  /// Charges to other endpoints are unaffected. Overlaps are scoped:
  /// they close in the reverse order of their opening.
  /// With a simulated-time tracer installed, a named overlap is a span
  /// on the endpoint's track, from its opening to its close.
  class Overlap {
   public:
    /// `name` (a string literal, or nullptr for no span) labels the
    /// scope on the simulated timeline.
    Overlap(SimNetwork* network, uint32_t endpoint,
            const char* name = nullptr);
    ~Overlap();
    Overlap(const Overlap&) = delete;
    Overlap& operator=(const Overlap&) = delete;

    /// Routes the following charges to lane `id` until the next call.
    /// Charges before the first call go to lane 0. Lanes keep their
    /// elapsed time, so returning to a lane continues its chain.
    void Lane(uint64_t id) { lane_ = &lanes_[id]; }

   private:
    friend class SimNetwork;

    /// The endpoint's clock as seen by the current lane.
    int64_t Now() const { return start_ + *lane_; }

    SimNetwork* network_;
    uint32_t endpoint_;
    const char* name_;
    Overlap* below_ = nullptr;   // next open overlap, any endpoint
    Overlap* parent_ = nullptr;  // next open overlap of this endpoint
    int64_t* parent_lane_ = nullptr;  // parent's lane when this opened
    int64_t start_ = 0;               // endpoint clock when this opened
    std::map<uint64_t, int64_t> lanes_;  // lane -> elapsed micros
    int64_t* lane_ = nullptr;            // current lane, into lanes_
    int64_t bytes_ = 0;  // every byte charged inside, nested ones too
  };

  const NetworkConfig& config() const { return config_; }

  /// Simulated cost of one message of `bytes` payload over one hop.
  int64_t MessageCostMicros(int64_t bytes) const {
    return config_.one_way_latency_micros +
           static_cast<int64_t>(static_cast<double>(bytes) /
                                config_.bytes_per_micro);
  }

  /// Charges `hops` message transmissions of `bytes` each to `endpoint`,
  /// one after another, and returns their summed cost. Outside an
  /// Overlap the endpoint's clock advances by that cost; inside one the
  /// current lane does, and the clock moves when the overlap closes.
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
  /// "net.send" instant at the sending lane's clock before the transfer
  /// and a "net.recv" instant after it, on the endpoint's track. Inside
  /// an Overlap the lane's clock runs ahead of the endpoint's committed
  /// clock (StatsFor), so instants of parallel lanes interleave in time.
  /// Timestamps come from the deterministic simulated clock, so traces
  /// are bit-identical across same-seed runs. Must outlive the network
  /// or be cleared first.
  void set_sim_tracer(Tracer* tracer) { sim_tracer_ = tracer; }

  /// Counters for `endpoint`; `micros` is its committed clock, which an
  /// open Overlap advances only when it closes.
  NetStats StatsFor(uint32_t endpoint) const;
  const NetStats& global() const { return global_; }

  /// Clears every counter. Must not be called with an Overlap open.
  void Reset() {
    per_endpoint_.clear();
    global_ = NetStats{};
  }

 private:
  /// Innermost open Overlap of `endpoint`, or nullptr.
  Overlap* OpenOverlap(uint32_t endpoint) const;

  NetworkConfig config_;
  std::unordered_map<uint32_t, NetStats> per_endpoint_;
  /// Innermost open Overlap of any endpoint; the rest hang off `below_`.
  Overlap* top_ = nullptr;
  NetStats global_;
  FaultInjector* injector_ = nullptr;
  Tracer* sim_tracer_ = nullptr;
};

}  // namespace orchestra::net

#endif  // ORCHESTRA_NET_SIM_NETWORK_H_
