#include "store/dht_store.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "common/check.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/closure_walk.h"
#include "core/extension.h"
#include "db/serde.h"

namespace orchestra::store {

using core::Epoch;
using core::ParticipantId;
using core::ReconcileFetch;
using core::Transaction;
using core::TransactionId;
using core::TxnIdSet;

DhtStore::DhtStore(size_t nodes, net::SimNetwork* network,
                   const db::Catalog* catalog, DhtStoreOptions options)
    : ring_(nodes), network_(network), catalog_(catalog), options_(options),
      nodes_(nodes) {
  ORCH_CHECK(network != nullptr);
  ORCH_CHECK_GT(options_.replication_factor, 0u);
}

size_t DhtStore::NodeOfPeer(ParticipantId peer) const {
  const size_t slot = static_cast<size_t>(peer) % ring_.size();
  if (ring_.IsLive(slot)) return slot;
  // The peer's home node churned away; its client re-attaches to the
  // slot's live successor on the ring.
  return ring_.OwnerOf(ring_.IdOf(slot) + 1);
}

void DhtStore::DirectSend(ParticipantId peer, int64_t bytes) {
  network_->Charge(peer, 1, bytes);
}

namespace {
// A DHT protocol operation is made of many messages, so per-message
// loss must be absorbed per message — retransmitting, and paying for
// the retransmission — the way a reliable transport would. Otherwise
// an operation with N messages fails with probability ~1-(1-p)^N and
// no operation-level retry budget can keep up. Sticky faults (crashed
// links/nodes) exhaust the budget and surface to the caller.
constexpr int kMaxTransmits = 5;

/// Registry counter for link-level retransmissions: attempts beyond a
/// send's first, successful or not.
Counter& RetransmitCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("net.retransmits");
  return counter;
}
}  // namespace

Result<size_t> DhtStore::TryRoutedSend(ParticipantId peer, size_t from_node,
                                       net::NodeId key, int64_t bytes) {
  const net::RouteResult route = ring_.Route(from_node, key);
  // A probe into a crashed node is a timed-out message the initiator
  // paid for before detouring via the successor list.
  if (route.failed_probes > 0) network_->Charge(peer, route.failed_probes, 8);
  if (route.hops > 0) {
    Status sent;
    for (int attempt = 0; attempt < kMaxTransmits; ++attempt) {
      if (attempt > 0) RetransmitCounter().Increment();
      sent = network_->TryCharge(peer, route.hops, bytes);
      if (sent.ok()) break;
    }
    ORCH_RETURN_IF_ERROR(sent);
  }
  return route.owner;
}

Status DhtStore::TryDirectSend(ParticipantId peer, int64_t bytes) {
  Status sent;
  for (int attempt = 0; attempt < kMaxTransmits; ++attempt) {
    if (attempt > 0) RetransmitCounter().Increment();
    sent = network_->TryCharge(peer, 1, bytes);
    if (sent.ok()) break;
  }
  return sent;
}

Status DhtStore::TryReplicatedSend(ParticipantId peer, size_t from_node,
                                   const std::string& key, int64_t bytes) {
  ORCH_RETURN_IF_ERROR(
      TryRoutedSend(peer, from_node, net::KeyHash(key), bytes).status());
  // The primary copies to the rest of its group at once: one hop, k-1
  // messages, each retransmitting on its own lane.
  net::SimNetwork::Overlap fanout(network_, peer);
  const size_t replicas = GroupFor(key).size() - 1;
  for (size_t i = 0; i < replicas; ++i) {
    fanout.Lane(i);
    ORCH_RETURN_IF_ERROR(TryDirectSend(peer, bytes));
  }
  return Status::OK();
}

namespace {
/// Envelope-framed encoding of `txn` — the DHT's stored and wire form.
std::string WireOf(const Transaction& txn) {
  std::string encoded;
  core::EncodeTransaction(&encoded, txn);
  std::string wire;
  db::WrapEnvelope(&wire, encoded);
  return wire;
}

/// Strict verify-and-decode of a stored or delivered wire blob.
Result<Transaction> DecodeWire(std::string_view wire) {
  ORCH_ASSIGN_OR_RETURN(std::string_view body, db::UnwrapEnvelope(wire));
  size_t pos = 0;
  return core::DecodeTransaction(body, &pos);
}

Counter& CorruptReplicaReads() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "integrity.corrupt_replica_reads");
  return c;
}
Counter& ReadRepairs() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("integrity.read_repairs");
  return c;
}
}  // namespace

void DhtStore::InstallTxnReplica(NodeState& node, const Transaction& txn,
                                 const std::string& wire) const {
  std::string stored = wire;
  if (FaultInjector* injector = network_->fault_injector();
      injector != nullptr) {
    // Each replica's copy rots (or not) independently — that is what
    // makes failover and read-repair meaningful.
    injector->MaybeCorrupt("storage.bit_flip", &stored);
  }
  node.txns.insert_or_assign(txn.id, StoredTxn{txn.epoch, std::move(stored)});
}

std::vector<size_t> DhtStore::ReadOrderFor(const std::string& key) const {
  std::vector<size_t> group = GroupFor(key);
  std::stable_partition(group.begin(), group.end(),
                        [&](size_t node) { return !Quarantined(node); });
  return group;
}

void DhtStore::ScoreCorruptServe(size_t node) const {
  const bool was = Quarantined(node);
  corrupt_serves_[node] += 1;
  if (!was && Quarantined(node)) {
    static Counter& quarantined =
        MetricsRegistry::Global().GetCounter("integrity.quarantined_nodes");
    quarantined.Increment();
  }
}

Result<DhtStore::TxnRead> DhtStore::ReadTxnVerified(
    ParticipantId peer, const TransactionId& id) const {
  static Counter& failover_probes =
      MetricsRegistry::Global().GetCounter("store.dht.failover_probes");
  const std::string key = "txn:" + id.ToString();
  std::vector<size_t> corrupt_nodes;
  // Sequential: each probe waits for the previous replica's miss or
  // corrupt reply.
  for (size_t node : ReadOrderFor(key)) {
    const NodeState& n = nodes_[node];
    auto it = n.txns.find(id);
    if (it == n.txns.end()) {
      failover_probes.Increment();
      network_->Charge(peer, 1, 16);  // probe + miss reply
      continue;
    }
    const std::string& wire = it->second.wire;
    if (auto txn = DecodeWire(wire); txn.ok()) {
      TxnRead read{*std::move(txn), node, wire};
      // Read-repair: recopy the verified blob over every corrupt
      // replica probed on the way here. Replica-to-replica transfers,
      // charged to the repair endpoint like churn re-replication.
      for (size_t bad : corrupt_nodes) {
        network_->Charge(kRepairEndpoint, 1,
                         static_cast<int64_t>(read.wire.size()));
        nodes_[bad].txns.at(id).wire = read.wire;
        ReadRepairs().Increment();
      }
      return read;
    }
    // The replica shipped its copy and the receiver's checksum caught
    // the rot: the bytes were paid for but are useless.
    CorruptReplicaReads().Increment();
    ScoreCorruptServe(node);
    network_->Charge(peer, 1, static_cast<int64_t>(wire.size()));
    corrupt_nodes.push_back(node);
  }
  if (!corrupt_nodes.empty()) {
    static Counter& unrecoverable = MetricsRegistry::Global().GetCounter(
        "integrity.unrecoverable_reads");
    unrecoverable.Increment();
    return Status::DataLoss("every replica of transaction " + id.ToString() +
                            " failed its checksum");
  }
  // Every id reached here came from a committed epoch's contents, so its
  // transaction was durably replicated at its controller group; no
  // surviving replica means churn outran the replication factor and the
  // data is unrecoverably gone.
  return Status::DataLoss("transaction controller lost " + id.ToString());
}

Result<Transaction> DhtStore::ReadLocalOrRepair(
    ParticipantId peer, size_t node, const TransactionId& id) const {
  const NodeState& n = nodes_[node];
  auto it = n.txns.find(id);
  ORCH_CHECK(it != n.txns.end());
  if (auto txn = DecodeWire(it->second.wire); txn.ok()) return *std::move(txn);
  CorruptReplicaReads().Increment();
  ScoreCorruptServe(node);
  ORCH_ASSIGN_OR_RETURN(TxnRead read, ReadTxnVerified(peer, id));
  // The group read already healed the replicas it probed past; heal the
  // copy that sent us there too.
  if (read.holder != node) {
    network_->Charge(kRepairEndpoint, 1,
                     static_cast<int64_t>(read.wire.size()));
    nodes_[node].txns.at(id).wire = read.wire;
    ReadRepairs().Increment();
  }
  return std::move(read.txn);
}

Result<std::string> DhtStore::ShipPayload(ParticipantId peer,
                                          std::string_view wire) const {
  Result<std::string> delivered = Status::Unavailable("payload unsent");
  for (int attempt = 0; attempt < kMaxTransmits; ++attempt) {
    if (attempt > 0) RetransmitCounter().Increment();
    delivered = network_->TryChargePayload(peer, 1, wire);
    if (delivered.ok()) break;
  }
  return delivered;
}

core::RecordedVerdict DhtStore::VerdictAt(const NodeState& node,
                                          const TransactionId& id,
                                          ParticipantId peer) {
  auto dec_it = node.decisions.find(id);
  if (dec_it == node.decisions.end()) return core::RecordedVerdict::kNone;
  auto peer_it = dec_it->second.find(peer);
  if (peer_it == dec_it->second.end()) return core::RecordedVerdict::kNone;
  return peer_it->second.verdict == 'A' ? core::RecordedVerdict::kApplied
                                        : core::RecordedVerdict::kRejected;
}

bool DhtStore::EpochCommitted(Epoch e) const {
  for (size_t node : GroupFor("epoch:" + std::to_string(e))) {
    if (!nodes_[node].KnowsEpoch(e)) continue;
    return nodes_[node].epoch_done.count(e) != 0 &&
           nodes_[node].epoch_aborted.count(e) == 0;
  }
  return false;
}

bool DhtStore::IsCommittedTxn(const TransactionId& id) const {
  for (size_t node : GroupFor("txn:" + id.ToString())) {
    auto it = nodes_[node].txns.find(id);
    if (it == nodes_[node].txns.end()) continue;
    return EpochCommitted(it->second.epoch);
  }
  return false;
}

void DhtStore::AbortEpoch(ParticipantId peer, Epoch epoch,
                          const std::vector<TransactionId>& staged) {
  // A sticky fault models a crashed publisher: its cleanup never runs,
  // the epoch stays unfinished, and the reaper eventually marks it
  // aborted from the reconciliation path instead. A transient fault
  // leaves a live publisher whose cleanup sends cannot fail.
  FaultInjector* injector = network_->fault_injector();
  if (injector != nullptr && injector->tripped()) return;
  FaultInjector::ScopedDisable guard(injector);
  const size_t my_node = NodeOfPeer(peer);
  {
    // The staged deletes go to independent controller groups at once.
    net::SimNetwork::Overlap deletes(network_, peer);
    for (size_t i = 0; i < staged.size(); ++i) {
      const TransactionId& id = staged[i];
      const std::string key = "txn:" + id.ToString();
      deletes.Lane(i);
      (void)TryReplicatedSend(peer, my_node, key, 24);
      MutateGroup(key, [&](NodeState& node) {
        node.txns.erase(id);
        auto dec_it = node.decisions.find(id);
        if (dec_it != node.decisions.end()) {
          dec_it->second.erase(peer);
          if (dec_it->second.empty()) node.decisions.erase(dec_it);
        }
      });
    }
  }
  const std::string ekey = "epoch:" + std::to_string(epoch);
  (void)TryReplicatedSend(peer, my_node, ekey, 24);
  MutateGroup(ekey, [&](NodeState& node) {
    node.epoch_contents.erase(epoch);
    node.epoch_aborted.insert(epoch);
  });
}

Status DhtStore::RegisterParticipant(ParticipantId peer,
                                     const core::TrustPolicy* policy) {
  ORCH_CHECK(policy != nullptr);
  policies_[peer] = policy;
  MutateGroup("peer:" + std::to_string(peer),
              [&](NodeState& node) { node.coordinated.emplace(peer, CoordEntry{}); });
  return Status::OK();
}

Result<Epoch> DhtStore::Publish(ParticipantId peer,
                                std::vector<Transaction> txns) {
  TraceSpan span("dht.publish");
  Stopwatch cpu;
  const size_t my_node = NodeOfPeer(peer);

  // Fig. 6 message sequence, made crash-consistent: the epoch controller
  // confirms the epoch *finished* — the commit point — only after every
  // transaction controller has accepted its transaction. Any message
  // lost before that aborts the epoch and leaves nothing visible.
  // Every controller write fans out to the key's whole replica group so
  // a node crash between operations loses nothing (for k > 1).
  // (1) request epoch -> allocator group.
  ORCH_RETURN_IF_ERROR(
      TryReplicatedSend(peer, my_node, "epoch-allocator", 16));
  const Epoch epoch = nodes_[AllocatorNode()].epoch_counter + 1;
  MutateGroup("epoch-allocator",
              [&](NodeState& node) { node.epoch_counter = epoch; });
  const std::string ekey = "epoch:" + std::to_string(epoch);
  // A failure past this point burns the number; reconcilers tolerate
  // gaps via the stuck-epoch reaper.
  std::vector<TransactionId> staged;
  const auto abort_with = [&](Status status) {
    AbortEpoch(peer, epoch, staged);
    return status;
  };
  // (2) allocator -> epoch controller group: begin epoch e.
  if (Status s = TryReplicatedSend(peer, AllocatorNode(), ekey, 16); !s.ok()) {
    return abort_with(s);
  }
  MutateGroup(ekey, [&](NodeState& node) {
    node.epoch_contents[epoch];  // mark as begun (open)
  });
  // (3) controller -> allocator: confirm epoch begun.
  // (4) allocator -> publishing peer: begin publishing at epoch e.
  if (Status s = TryDirectSend(peer, 8); !s.ok()) return abort_with(s);
  if (Status s = TryDirectSend(peer, 16); !s.ok()) return abort_with(s);

  // Validate before any transaction lands: a duplicate — within the
  // batch or against a *committed* epoch — must leave no trace, or one
  // bad publish would freeze the stable watermark for every peer.
  // Residue of an aborted epoch is republishable and gets overwritten.
  TxnIdSet batch_ids;
  for (Transaction& txn : txns) {
    txn.epoch = epoch;
    if (!batch_ids.insert(txn.id).second || IsCommittedTxn(txn.id)) {
      return abort_with(Status::AlreadyExists(
          "transaction " + txn.id.ToString() + " already published"));
    }
  }

  // (5) publish transaction IDs for epoch e -> epoch controller group,
  // and (6) the peer sends each transaction to its transaction controller
  // group as an envelope-framed blob, which each replica stores as-is
  // (the at-rest form reads verify) while recording the publisher's
  // implicit self-acceptance. Only the commit (7) waits for the id list,
  // and the stores are independent, so all of them are in flight
  // together: the id list first, on a lane past the transactions', then
  // one lane per transaction (store + ack). The rollback of a failed
  // send runs after the overlap has closed.
  std::vector<TransactionId> ids;
  ids.reserve(txns.size());
  for (const Transaction& txn : txns) ids.push_back(txn.id);
  const Status stored = [&] {
    net::SimNetwork::Overlap stores(network_, peer, "dht.publish.store");
    stores.Lane(txns.size());
    ORCH_RETURN_IF_ERROR(TryReplicatedSend(
        peer, my_node, ekey, static_cast<int64_t>(16 * ids.size() + 16)));
    MutateGroup(ekey,
                [&](NodeState& node) { node.epoch_contents[epoch] = ids; });
    for (size_t i = 0; i < txns.size(); ++i) {
      const Transaction& txn = txns[i];
      const std::string wire = WireOf(txn);
      const TransactionId id = txn.id;
      const std::string key = "txn:" + id.ToString();
      stores.Lane(i);
      ORCH_RETURN_IF_ERROR(TryReplicatedSend(
          peer, my_node, key, static_cast<int64_t>(wire.size())));
      MutateGroup(key, [&](NodeState& node) {
        InstallTxnReplica(node, txn, wire);
        node.decisions[id][peer] = Decision{'A', 0};
      });
      staged.push_back(id);
      ORCH_RETURN_IF_ERROR(TryDirectSend(peer, 8));
    }
    return Status::OK();
  }();
  if (!stored.ok()) return abort_with(stored);

  // (7) controller confirms the epoch finished: the commit point, sent
  // once every message of (5) and (6) has landed. The reaper may have
  // aborted the epoch under a slow publisher; an aborted epoch can never
  // finish (peers already advanced past it).
  if (Status s = TryReplicatedSend(peer, my_node, ekey, 16); !s.ok()) {
    return abort_with(s);
  }
  if (nodes_[EpochControllerNode(epoch)].epoch_aborted.count(epoch) != 0) {
    return abort_with(Status::Unavailable(
        "epoch " + std::to_string(epoch) +
        " was aborted before commit; republish"));
  }
  MutateGroup(ekey, [&](NodeState& node) { node.epoch_done.insert(epoch); });
  // The publisher's implicit self-accepts just committed with the epoch;
  // future fetches need not ask their controllers.
  for (const Transaction& txn : txns) cache_.MarkDecided(peer, txn.id);
  DirectSend(peer, 8);  // ack to publisher (commit already durable)
  cpu_micros_[peer] += cpu.ElapsedMicros();
  calls_[peer] += 1;
  static Counter& publishes =
      MetricsRegistry::Global().GetCounter("store.dht.publishes");
  static Counter& published_txns =
      MetricsRegistry::Global().GetCounter("store.dht.published_txns");
  publishes.Increment();
  published_txns.Add(static_cast<int64_t>(txns.size()));
  return epoch;
}

Result<ReconcileFetch> DhtStore::BeginReconciliation(ParticipantId peer) {
  return Fetch(peer, /*held=*/nullptr);
}

Result<ReconcileFetch> DhtStore::Fetch(ParticipantId peer,
                                       std::vector<TransactionId>* held) {
  Stopwatch cpu;
  ORCH_ASSIGN_OR_RETURN(const core::TrustPolicy* policy,
                        core::RegisteredPolicy(policies_, peer));
  TraceSpan span("dht.fetch");
  const size_t my_node = NodeOfPeer(peer);
  // The kFull reference scans from epoch 0 and never consults the
  // decided overlay; everything else below is shared by both modes.
  const bool reference = options_.fetch_mode == core::FetchMode::kFull;
  const core::FetchCache::Stats cache_before = cache_.stats();
  // Integrity counter snapshots: the deltas over this fetch become the
  // per-round FetchStats integrity fields.
  static Counter& probe_ctr =
      MetricsRegistry::Global().GetCounter("store.dht.failover_probes");
  const int64_t corrupt_before = CorruptReplicaReads().value();
  const int64_t repairs_before = ReadRepairs().value();
  const int64_t probes_before = probe_ctr.value();
  ReconcileFetch fetch;

  // The fetch head: the allocator read and the coordinator read need no
  // reply of each other, so they travel on two lanes of one overlap.
  const std::string pkey = "peer:" + std::to_string(peer);
  Epoch latest = 0;
  CoordEntry coord_entry;
  {
    net::SimNetwork::Overlap head(network_, peer, "dht.fetch.head");
    // Most recent epoch from the allocator (request + reply).
    head.Lane(0);
    ORCH_RETURN_IF_ERROR(
        TryRoutedSend(peer, my_node, net::KeyHash("epoch-allocator"), 16)
            .status());
    latest = nodes_[AllocatorNode()].epoch_counter;
    ORCH_RETURN_IF_ERROR(TryDirectSend(peer, 16));

    // Prior watermark and recno from this peer's coordinator group. The
    // recno is allocated now (a failure later burns it, harmlessly); the
    // watermark moves only when the decisions on this window are
    // recorded (RecordDecisions' completion witness).
    head.Lane(1);
    ORCH_RETURN_IF_ERROR(TryReplicatedSend(peer, my_node, pkey, 16));
    coord_entry = nodes_[CoordinatorNode(peer)].coordinated[peer];
    coord_entry.recno += 1;
    MutateGroup(pkey,
                [&](NodeState& node) { node.coordinated[peer] = coord_entry; });
    fetch.recno = coord_entry.recno;
    ORCH_RETURN_IF_ERROR(TryDirectSend(peer, 16));
  }
  // The reference ignores the durable watermark for the scan window and
  // re-walks the whole history; the participant's catch-up path absorbs
  // resends.
  const Epoch prev = reference ? 0 : coord_entry.epoch;

  // Fetch the contents of every epoch since the previous reconciliation
  // from the epoch controllers, and find the latest stable epoch (no
  // unfinished epoch preceding it). Aborted epochs are empty and are
  // skipped; an epoch observed unfinished by `stuck_epoch_reap_threshold`
  // scans belongs to a crashed publisher and is reaped to aborted so it
  // cannot freeze the watermark. Reads try the primary and fail over
  // down the replica group.
  Epoch stable = prev;
  std::vector<TransactionId> published;
  // Per-owner coalescing: epochs in (prev, latest] grouped by their
  // controller's primary owner, one routed multi-get request and one
  // accumulated direct reply per owner. Keys sharing a primary share the
  // whole replica group, so one request reaches every epoch's replicas;
  // the epochs are still *processed* strictly in order, so the strike,
  // reap and stop transitions see them in epoch order. The owners are
  // asked at once: one lane per owner carries its request, failover
  // probes and reply.
  {
    net::SimNetwork::Overlap scan(network_, peer, "dht.fetch.scan");
    std::vector<size_t> epoch_owner_order;
    std::unordered_map<size_t, int64_t> epoch_reply_bytes;
    std::unordered_map<size_t, std::pair<Epoch, int64_t>> batches;
    for (Epoch e = prev + 1; e <= latest; ++e) {
      const size_t owner = EpochControllerNode(e);
      auto [it, inserted] = batches.try_emplace(owner, e, 0);
      if (inserted) epoch_owner_order.push_back(owner);
      it->second.second += 1;
    }
    for (size_t owner : epoch_owner_order) {
      const auto& [first_epoch, count] = batches[owner];
      // Route the batch along the first epoch's key: same primary, same
      // route. 8 bytes per requested epoch number + header.
      scan.Lane(owner);
      ORCH_RETURN_IF_ERROR(
          TryRoutedSend(peer, my_node,
                        net::KeyHash("epoch:" + std::to_string(first_epoch)),
                        8 * count + 8)
              .status());
      epoch_reply_bytes[owner] = 8;
      fetch.stats.batched_messages += 1;
    }
    for (Epoch e = prev + 1; e <= latest; ++e) {
      const std::string ekey = "epoch:" + std::to_string(e);
      scan.Lane(EpochControllerNode(e));
      const auto holder = FirstHolder(
          peer, ekey, [&](const NodeState& n) { return n.KnowsEpoch(e); });
      if (holder.has_value() &&
          nodes_[*holder].epoch_aborted.count(e) != 0) {
        epoch_reply_bytes[EpochControllerNode(e)] += 8;
        stable = e;  // nothing to ship, but the watermark passes over it
        continue;
      }
      const bool done =
          holder.has_value() && nodes_[*holder].epoch_done.count(e) != 0;
      const auto* contents =
          holder.has_value() &&
                  nodes_[*holder].epoch_contents.count(e) != 0
              ? &nodes_[*holder].epoch_contents.at(e)
              : nullptr;
      const size_t count = contents == nullptr ? 0 : contents->size();
      epoch_reply_bytes[EpochControllerNode(e)] +=
          static_cast<int64_t>(16 * count + 16);
      if (!done) {
        const int strikes = ++epoch_strikes_[e];
        if (strikes >= options_.stuck_epoch_reap_threshold) {
          MutateGroup(ekey, [&](NodeState& node) {
            node.epoch_contents.erase(e);
            node.epoch_aborted.insert(e);
          });
          epoch_strikes_.erase(e);
          stable = e;
          continue;
        }
        break;  // everything after an unfinished epoch is unstable
      }
      stable = e;
      if (contents != nullptr) {
        for (const TransactionId& id : *contents) published.push_back(id);
      }
    }
    // One accumulated reply per controller owner (the owner streams its
    // epochs' states; the client stops consuming at the first unfinished
    // epoch).
    for (size_t owner : epoch_owner_order) {
      scan.Lane(owner);
      ORCH_RETURN_IF_ERROR(TryDirectSend(peer, epoch_reply_bytes[owner]));
    }
  }
  fetch.epoch = stable;

  // Request every published transaction from its transaction controller
  // and walk the antecedent closure (core::ClosureLevel). The controller
  // evaluates the peer's trust predicates and decision log; outside the
  // reference, the decided overlay suppresses a lookup before any
  // message is sent. Within a level, same-controller lookups coalesce
  // into one multi-get request and one accumulated reply per primary
  // owner, processed in the walk's order. Each level is one overlap with
  // a lane per owner, carrying its multi-get, verified-read probes, reply
  // and payload. Level k+1 waits for level k's replies, which name its
  // ids: that wait is the paper's antecedent-chain round trip.
  const auto lookup = [&](core::ClosureLevel& level) -> Status {
    net::SimNetwork::Overlap lanes(network_, peer, "dht.fetch.level");
    struct OwnerBatch {
      TransactionId route_id;  // its first id: same primary, same route
      int64_t requests = 0;
      std::string payload;  // shipped blobs, one envelope frame each
    };
    std::vector<size_t> owner_order;
    std::unordered_map<size_t, OwnerBatch> batch;
    std::vector<size_t> owner_of(level.size());
    for (size_t i = 0; i < level.size(); ++i) {
      owner_of[i] = TxnControllerNode(level.id(i));
      auto [it, inserted] = batch.try_emplace(owner_of[i]);
      if (inserted) {
        owner_order.push_back(owner_of[i]);
        it->second.route_id = level.id(i);
      }
      it->second.requests += 1;
    }
    for (size_t owner : owner_order) {
      const OwnerBatch& b = batch[owner];
      lanes.Lane(owner);
      ORCH_RETURN_IF_ERROR(
          TryRoutedSend(peer, my_node,
                        net::KeyHash("txn:" + b.route_id.ToString()),
                        24 * b.requests)
              .status());
      fetch.stats.batched_messages += 1;
    }
    for (size_t i = 0; i < level.size(); ++i) {
      const TransactionId& id = level.id(i);
      OwnerBatch& b = batch[owner_of[i]];
      lanes.Lane(owner_of[i]);
      ORCH_ASSIGN_OR_RETURN(TxnRead read, ReadTxnVerified(peer, id));
      ORCH_ASSIGN_OR_RETURN(
          const bool shipped,
          level.Judge(i, VerdictAt(nodes_[read.holder], id, peer),
                      [&] { return std::move(read.txn); }));
      if (shipped) b.payload.append(read.wire);
    }
    for (size_t owner : owner_order) {
      const OwnerBatch& b = batch[owner];
      lanes.Lane(owner);
      // Every answer ("not relevant", "untrusted", or a shipped
      // transaction's header) is 8 bytes past the reply's own 8.
      ORCH_RETURN_IF_ERROR(TryDirectSend(peer, 8 + 8 * b.requests));
      if (b.payload.empty()) continue;
      // The shipped blobs travel as one message; the receiver verifies
      // every frame, and one that fails its checksum fails the fetch.
      ORCH_ASSIGN_OR_RETURN(const std::string delivered,
                            ShipPayload(peer, b.payload));
      for (size_t pos = 0; pos < delivered.size();) {
        if (!db::ReadEnvelope(delivered, &pos).ok()) {
          static Counter& detected = MetricsRegistry::Global().GetCounter(
              "integrity.corrupt_payloads_detected");
          detected.Increment();
          return Status::Corruption("multi-get reply corrupted in flight");
        }
      }
    }
    return Status::OK();
  };
  ORCH_ASSIGN_OR_RETURN(
      core::ClosureWalk walk,
      core::ClosureLevel::Walk(
          std::move(published), policy,
          [&](const TransactionId& id) {
            return !reference && cache_.KnownDecided(peer, id);
          },
          lookup));
  fetch.trusted = std::move(walk.trusted);
  fetch.transactions = std::move(walk.transactions);
  if (held != nullptr) *held = std::move(walk.held);
  fetch.stats.suppressed_lookups =
      cache_.stats().suppressed - cache_before.suppressed;

  // The window (prev, stable] becomes the peer's watermark only with the
  // completion witness of the decisions made on it. Until the witness
  // lands, a lost message or a crash leaves the watermark where it was,
  // and the next fetch walks the window again.
  cache_.SetPendingWindow(peer, fetch.recno, stable);
  fetch.stats.corrupt_reads = CorruptReplicaReads().value() - corrupt_before;
  fetch.stats.read_repairs = ReadRepairs().value() - repairs_before;
  fetch.stats.failover_probes = probe_ctr.value() - probes_before;
  cpu_micros_[peer] += cpu.ElapsedMicros();
  calls_[peer] += 1;
  // The registry's one count of this fetch's FetchStats (see
  // central_store.cc).
  static Counter& fetches =
      MetricsRegistry::Global().GetCounter("store.dht.fetches");
  static Counter& shipped_txns =
      MetricsRegistry::Global().GetCounter("store.dht.shipped_txns");
  static Counter& multi_get_batches =
      MetricsRegistry::Global().GetCounter("store.dht.multi_get_batches");
  static Counter& suppressed =
      MetricsRegistry::Global().GetCounter("store.dht.suppressed_lookups");
  fetches.Increment();
  shipped_txns.Add(static_cast<int64_t>(fetch.transactions.size()));
  multi_get_batches.Add(fetch.stats.batched_messages);
  suppressed.Add(fetch.stats.suppressed_lookups);
  return fetch;
}

Status DhtStore::RecordDecisions(ParticipantId peer, int64_t recno,
                                 const std::vector<TransactionId>& applied,
                                 const std::vector<TransactionId>& rejected) {
  TraceSpan span("dht.record_decisions");
  static Counter& records =
      MetricsRegistry::Global().GetCounter("store.dht.record_decisions");
  static Counter& decisions =
      MetricsRegistry::Global().GetCounter("store.dht.decisions");
  records.Increment();
  decisions.Add(static_cast<int64_t>(applied.size() + rejected.size()));
  Stopwatch cpu;
  const size_t my_node = NodeOfPeer(peer);
  // Notify each transaction's controller group, tagging the decision
  // with the reconciliation that produced it. Same-controller
  // notifications coalesce into one replicated multi-put per primary
  // owner (keys sharing a primary share the whole replica group).
  // Recording is idempotent, so a retry after a lost message simply
  // re-sends the whole outcome.
  std::vector<std::pair<TransactionId, char>> outcomes;
  outcomes.reserve(applied.size() + rejected.size());
  for (const TransactionId& id : applied) outcomes.emplace_back(id, 'A');
  for (const TransactionId& id : rejected) outcomes.emplace_back(id, 'R');
  std::vector<size_t> owner_order;
  std::unordered_map<size_t, std::vector<size_t>> batch;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const size_t owner = TxnControllerNode(outcomes[i].first);
    auto [it, inserted] = batch.try_emplace(owner);
    if (inserted) owner_order.push_back(owner);
    it->second.push_back(i);
  }
  // One concurrent phase: the coordinator's completion witness and the
  // multi-puts go to independent groups at once, one lane each, and a
  // message lost on one lane stops no other. The witness leaves first,
  // so it is sent even when a put is lost. It carries the watermark past
  // the window fetch `recno` read (max: it never moves back) and the
  // number of decisions this recording lists, summed over recordings
  // that share the recno. It may therefore land while a put is lost:
  // recovery counts the decisions tagged `recno` and reports the
  // reconciliation as interrupted when they fall short of the witness
  // (FetchRecoveryState). A lost decision is not lost for good: the
  // live peer re-sends a failed recording with its next one, and a
  // recovering peer gets the id back as undecided, since recovery
  // rescans every epoch up to the watermark.
  const std::string pkey = "peer:" + std::to_string(peer);
  Status recorded;
  {
    net::SimNetwork::Overlap puts(network_, peer, "dht.record.puts");
    puts.Lane(nodes_.size());  // past every owner's lane
    recorded = TryReplicatedSend(peer, my_node, pkey, 24);
    if (recorded.ok()) {
      const std::optional<Epoch> window = cache_.TakePendingWindow(peer, recno);
      const auto count = static_cast<int64_t>(outcomes.size());
      MutateGroup(pkey, [&](NodeState& node) {
        CoordEntry& entry = node.coordinated[peer];
        if (entry.decided_recno != recno) {
          entry.prev_decided_recno = entry.decided_recno;
          entry.decided_recno = recno;
          entry.decided_count = 0;
        }
        entry.decided_count += count;
        if (window.has_value()) entry.epoch = std::max(entry.epoch, *window);
      });
    }
    for (size_t owner : owner_order) {
      const std::vector<size_t>& members = batch[owner];
      const std::string route_key =
          "txn:" + outcomes[members.front()].first.ToString();
      puts.Lane(owner);
      Status sent = TryReplicatedSend(
          peer, my_node, route_key, static_cast<int64_t>(24 * members.size()));
      if (!sent.ok()) {
        if (recorded.ok()) recorded = std::move(sent);
        continue;
      }
      for (size_t i : members) {
        const TransactionId id = outcomes[i].first;
        const char verdict = outcomes[i].second;
        MutateGroup("txn:" + id.ToString(), [&](NodeState& node) {
          node.decisions[id][peer] = Decision{verdict, recno};
        });
      }
    }
  }
  ORCH_RETURN_IF_ERROR(recorded);
  // Only now — with the witness and every put landed — are the
  // decisions durable enough for the suppression overlay. The peer holds
  // every id it rejects (each came to it with its body). A failure above
  // leaves the overlay untouched and the next fetch asks the controllers
  // again.
  for (const TransactionId& id : applied) cache_.MarkDecided(peer, id);
  for (const TransactionId& id : rejected) cache_.MarkDecided(peer, id);
  cpu_micros_[peer] += cpu.ElapsedMicros();
  calls_[peer] += 1;
  return Status::OK();
}

Status DhtStore::RecordProvenance(
    ParticipantId peer, int64_t recno,
    const std::vector<core::ProvenanceRecord>& records) {
  if (records.empty()) return Status::OK();
  (void)recno;  // records already carry their recno
  TraceSpan span("dht.record_provenance");
  static Counter& stored =
      MetricsRegistry::Global().GetCounter("store.dht.provenance_records");
  // Advisory, node-local at the coordinator, piggybacking on the
  // RecordDecisions batch: no extra messages, no replication (see the
  // header comment on provenance_log).
  std::vector<core::ProvenanceRecord>& log = provenance_log_[peer];
  log.insert(log.end(), records.begin(), records.end());
  stored.Add(static_cast<int64_t>(records.size()));
  return Status::OK();
}

const std::vector<core::ProvenanceRecord>& DhtStore::provenance_log(
    ParticipantId peer) const {
  static const std::vector<core::ProvenanceRecord> kEmpty;
  auto it = provenance_log_.find(peer);
  return it == provenance_log_.end() ? kEmpty : it->second;
}

Result<core::RecoveryBundle> DhtStore::FetchRecoveryState(
    ParticipantId peer) const {
  Stopwatch cpu;
  ORCH_ASSIGN_OR_RETURN(const core::TrustPolicy* policy,
                        core::RegisteredPolicy(policies_, peer));
  core::RecoveryBundle bundle;

  // The coordinator read and the node sweep need no reply of each other:
  // one overlap, with a lane for the coordinator and one per node.
  core::TxnIdSet decided;
  std::optional<CoordEntry> coord;
  int64_t witnessed = 0;  // distinct decisions tagged coord->decided_recno
  {
    net::SimNetwork::Overlap sweep(network_, peer, "dht.recover.sweep");
    // Watermark, recno and completion witness from the peer coordinator
    // group (one round trip, failing over past crashed members).
    sweep.Lane(nodes_.size());  // past every node's lane
    const auto holder = FirstHolder(
        peer, "peer:" + std::to_string(peer),
        [&](const NodeState& n) { return n.coordinated.count(peer) != 0; });
    if (holder.has_value()) {
      coord = nodes_[*holder].coordinated.at(peer);
      bundle.recno = coord->recno;
      bundle.epoch = coord->epoch;
      bundle.last_decided_recno = coord->decided_recno;
      const auto route = ring_.Route(NodeOfPeer(peer), ring_.IdOf(*holder));
      network_->Charge(peer, route.hops + 1, 24);
    }

    // Without its soft state the peer cannot know which transaction
    // controllers hold its decisions, so recovery sweeps every live
    // node: one request per node, one bulk reply carrying that node's
    // transactions and this peer's decisions on them. Replicas resend
    // the same decisions; the `decided` set dedupes them.
    for (size_t node = 0; node < nodes_.size(); ++node) {
      if (!ring_.IsLive(node)) continue;
      sweep.Lane(node);
      int64_t bytes = 16;
      // Snapshot the id list first: verified reads may heal this node's
      // own maps mid-walk.
      std::vector<TransactionId> ids;
      for (const auto& [id, stored] : nodes_[node].txns) ids.push_back(id);
      for (const TransactionId& id : ids) {
        auto dec_it = nodes_[node].decisions.find(id);
        if (dec_it == nodes_[node].decisions.end()) continue;
        auto peer_it = dec_it->second.find(peer);
        if (peer_it == dec_it->second.end()) continue;
        if (!decided.insert(id).second) continue;  // already from a replica
        if (coord.has_value() &&
            peer_it->second.recno == coord->decided_recno) {
          ++witnessed;
        }
        if (peer_it->second.verdict == 'A') {
          ORCH_ASSIGN_OR_RETURN(Transaction txn,
                                ReadLocalOrRepair(peer, node, id));
          bytes += static_cast<int64_t>(core::EncodedTransactionSize(txn));
          bundle.applied.push_back(std::move(txn));
        } else {
          bundle.rejected.push_back(id);
          bytes += 16;
        }
      }
      const auto route = ring_.Route(NodeOfPeer(peer), ring_.IdOf(node));
      network_->Charge(peer, route.hops, 16);
      network_->Charge(peer, 1, bytes);  // reply
    }
  }
  // The witness went out beside its puts, not after them: when fewer
  // decisions carry its recno than it counted, a put was lost and the
  // last recording known complete is the one before.
  if (coord.has_value() && witnessed < coord->decided_count) {
    bundle.last_decided_recno = coord->prev_decided_recno;
  }
  bundle.SortApplied();

  // Undecided trusted transactions within the watermark, from the epoch
  // controllers, plus antecedent closures from their controllers.
  core::TxnIdSet applied_ids;
  for (const Transaction& txn : bundle.applied) applied_ids.insert(txn.id);
  // The sweep above is the authoritative applied set; replace the
  // overlay with it so the recovered peer's first fetch suppresses
  // everything it durably applied, and ships again what it rejected (it
  // knows those by id only).
  cache_.ResetApplied(peer, applied_ids);
  ORCH_RETURN_IF_ERROR(
      ReadUndecided(peer, *policy, decided, applied_ids, &bundle));
  cpu_micros_[peer] += cpu.ElapsedMicros();
  calls_[peer] += 1;
  return bundle;
}

Status DhtStore::ReadUndecided(ParticipantId peer,
                               const core::TrustPolicy& policy,
                               const core::TxnIdSet& decided,
                               const core::TxnIdSet& applied,
                               core::RecoveryBundle* bundle) const {
  const size_t my_node = NodeOfPeer(peer);
  std::vector<TransactionId> roots;
  {
    // Every epoch controller is asked at once, one lane per epoch.
    net::SimNetwork::Overlap epochs(network_, peer, "dht.recover.epochs");
    for (Epoch e = 1; e <= bundle->epoch; ++e) {
      epochs.Lane(static_cast<uint64_t>(e));
      const std::string ekey = "epoch:" + std::to_string(e);
      const auto holder = FirstHolder(
          peer, ekey, [&](const NodeState& n) { return n.KnowsEpoch(e); });
      const size_t controller = holder.value_or(EpochControllerNode(e));
      const auto route = ring_.Route(my_node, ring_.IdOf(controller));
      if (!EpochCommitted(e)) {  // aborted or unfinished: nothing to ship
        network_->Charge(peer, route.hops + 1, 16);
        continue;
      }
      const auto contents = nodes_[controller].epoch_contents.find(e);
      const size_t count = contents == nodes_[controller].epoch_contents.end()
                               ? 0
                               : contents->second.size();
      network_->Charge(peer, route.hops + 1,
                       static_cast<int64_t>(16 * count + 16));
      if (contents == nodes_[controller].epoch_contents.end()) continue;
      for (const TransactionId& id : contents->second) {
        if (decided.count(id) == 0) roots.push_back(id);
      }
    }
  }
  // The closure walk from the undecided roots. The sweep already read
  // the peer's verdicts (the decided roots are gone, the applied ids are
  // known), so every read answers "none". A level's reads go out at once,
  // one lane per transaction, and the next level waits for their replies.
  ORCH_ASSIGN_OR_RETURN(
      core::ClosureWalk walk,
      core::ClosureLevel::Walk(
          std::move(roots), &policy,
          [&](const TransactionId& id) { return applied.count(id) != 0; },
          [&](core::ClosureLevel& level) -> Status {
            net::SimNetwork::Overlap reads(network_, peer,
                                           "dht.recover.level");
            for (size_t i = 0; i < level.size(); ++i) {
              reads.Lane(i);
              ORCH_ASSIGN_OR_RETURN(TxnRead read,
                                    ReadTxnVerified(peer, level.id(i)));
              const auto route = ring_.Route(my_node, ring_.IdOf(read.holder));
              const auto size =
                  static_cast<int64_t>(core::EncodedTransactionSize(read.txn));
              ORCH_ASSIGN_OR_RETURN(
                  const bool shipped,
                  level.Judge(i, core::RecordedVerdict::kNone,
                              [&] { return std::move(read.txn); }));
              network_->Charge(peer, route.hops + 1, shipped ? size + 8 : 24);
            }
            return Status::OK();
          }));
  bundle->undecided = std::move(walk.trusted);
  bundle->closure = std::move(walk.transactions);
  return Status::OK();
}

Result<core::NetworkCentricFetch> DhtStore::BeginNetworkCentricReconciliation(
    ParticipantId peer) {
  if (catalog_ == nullptr) {
    return Status::NotSupported(
        "DHT store was built without a catalog; network-centric "
        "reconciliation needs the shared schema");
  }
  core::NetworkCentricFetch fetch;
  std::vector<TransactionId> held;
  ORCH_ASSIGN_OR_RETURN(fetch.base, Fetch(peer, &held));

  Stopwatch cpu;
  const size_t my_node = NodeOfPeer(peer);
  core::TransactionMap bundle;
  for (const Transaction& txn : fetch.base.transactions) bundle.Put(txn);
  // The fetch stopped at antecedents the peer rejected and holds, but
  // ComputeExtensionFromBundle reads a missing member as applied. Put
  // them back with the closure the walk would have shipped past them,
  // read from the controllers' own replicas: the first one whose copy
  // verifies holds the body and the peer's verdict. None means churn
  // took the transaction; the suppressed lookup could not have shipped
  // it either. The controllers answer the extension queries charged
  // below, so no message is added here.
  ORCH_ASSIGN_OR_RETURN(
      core::ClosureWalk restored,
      core::ClosureLevel::Walk(
          std::move(held), nullptr,
          [&](const TransactionId& id) { return bundle.Contains(id); },
          [&](core::ClosureLevel& level) -> Status {
            for (size_t i = 0; i < level.size(); ++i) {
              const TransactionId& id = level.id(i);
              for (size_t node : ReadOrderFor("txn:" + id.ToString())) {
                auto it = nodes_[node].txns.find(id);
                if (it == nodes_[node].txns.end()) continue;
                auto txn = DecodeWire(it->second.wire);
                if (!txn.ok()) continue;
                ORCH_RETURN_IF_ERROR(
                    level
                        .Judge(i, VerdictAt(nodes_[node], id, peer),
                               [&] { return std::move(txn); })
                        .status());
                break;
              }
            }
            return Status::OK();
          }));
  for (Transaction& txn : restored.transactions) bundle.Put(std::move(txn));

  // Each trusted transaction's controller assembles its extension by
  // querying the antecedents' controllers (controller-to-controller
  // traffic charged per edge), then flattens it locally. The edges'
  // queries are independent: one lane per edge.
  {
    net::SimNetwork::Overlap queries(network_, peer, "dht.nc.extensions");
    uint64_t edge = 0;
    for (const auto& [txn_id, priority] : fetch.base.trusted) {
      core::TrustedTxn t;
      t.id = txn_id;
      t.priority = priority;
      t.extension = core::ComputeExtensionFromBundle(bundle, txn_id);
      const size_t controller = TxnControllerNode(txn_id);
      for (const TransactionId& member : t.extension) {
        if (member == txn_id) continue;
        queries.Lane(edge++);
        const auto route =
            ring_.Route(controller, net::KeyHash("txn:" + member.ToString()));
        int64_t sz = 64;
        if (auto txn = bundle.Get(member); txn.ok()) {
          sz = static_cast<int64_t>(core::EncodedTransactionSize(**txn));
        }
        network_->Charge(peer, route.hops + 1, sz);
      }
      fetch.trusted_txns.push_back(std::move(t));
    }
  }
  fetch.analysis =
      core::AnalyzeExtensions(*catalog_, bundle, fetch.trusted_txns);

  // Conflict detection is distributed by key: every flattened update is
  // forwarded to the owner of its key (once its extension is flattened;
  // the forwards are independent, one lane each), and each detected
  // conflicting pair is then reported to the reconciling peer (one lane
  // per pair).
  {
    net::SimNetwork::Overlap forwards(network_, peer, "dht.nc.forward");
    uint64_t message = 0;
    for (size_t i = 0; i < fetch.analysis.up_ex.size(); ++i) {
      const size_t controller = TxnControllerNode(fetch.trusted_txns[i].id);
      for (const core::Update& u : fetch.analysis.up_ex[i]) {
        const db::RelationSchema& schema =
            *catalog_->GetRelation(u.relation()).value();
        for (const core::RelKey& rk : u.TouchedKeys(schema)) {
          forwards.Lane(message++);
          const auto route =
              ring_.Route(controller, net::KeyHash(rk.ToString()));
          network_->Charge(peer, route.hops > 0 ? route.hops : 1, 48);
        }
      }
    }
  }
  {
    net::SimNetwork::Overlap reports(network_, peer, "dht.nc.reports");
    for (size_t i = 0; i < fetch.analysis.conflicts.size(); ++i) {
      reports.Lane(i);
      network_->Charge(
          peer,
          1 + static_cast<int64_t>(
                  ring_.Route(my_node, ring_.IdOf(my_node)).hops),
          64);
    }
  }
  // Ship the extensions and analysis to the peer in one bulk message,
  // which waits for every report.
  DirectSend(peer, fetch.AnalysisBytes());
  cpu_micros_[peer] += cpu.ElapsedMicros();
  calls_[peer] += 1;
  return fetch;
}

Result<core::RecoveryBundle> DhtStore::Bootstrap(ParticipantId new_peer,
                                                 ParticipantId source_peer) {
  Stopwatch cpu;
  ORCH_ASSIGN_OR_RETURN(const core::TrustPolicy* policy,
                        core::RegisteredPolicy(policies_, new_peer));
  ORCH_RETURN_IF_ERROR(core::RegisteredPolicy(policies_, source_peer).status());
  const size_t my_node = NodeOfPeer(new_peer);
  core::RecoveryBundle bundle;

  // The coordinator chain and the node sweep need no reply of each
  // other: one overlap, with a lane for the chain and one per node.
  // Ordered: the overlay update below walks this set into the fetch
  // cache, and adoption must replay identically across runs.
  std::set<TransactionId> adopted;
  {
    net::SimNetwork::Overlap sweep(network_, new_peer,
                                   "dht.bootstrap.sweep");
    // Watermark from the source's coordinator group; record it as the
    // new peer's watermark at its own coordinator group, which waits for
    // the read's reply.
    sweep.Lane(nodes_.size());  // past every node's lane
    const auto holder = FirstHolder(
        new_peer, "peer:" + std::to_string(source_peer),
        [&](const NodeState& n) {
          return n.coordinated.count(source_peer) != 0;
        });
    if (holder.has_value()) {
      bundle.epoch = nodes_[*holder].coordinated.at(source_peer).epoch;
      const auto route = ring_.Route(my_node, ring_.IdOf(*holder));
      network_->Charge(new_peer, route.hops + 1, 24);
    }
    MutateGroup("peer:" + std::to_string(new_peer), [&](NodeState& node) {
      node.coordinated[new_peer] = CoordEntry{.epoch = bundle.epoch};
    });
    const auto route2 =
        ring_.Route(my_node, ring_.IdOf(CoordinatorNode(new_peer)));
    network_->Charge(new_peer, route2.hops + 1, 24);

    // Sweep every live node: copy the source's accept decisions onto the
    // new peer (one bulk round trip per node, as in recovery). Visiting
    // a replica re-adopts the same ids; `adopted` dedupes the bundle
    // while the decision write itself lands on every replica of the
    // group.
    for (size_t node = 0; node < nodes_.size(); ++node) {
      if (!ring_.IsLive(node)) continue;
      sweep.Lane(node);
      int64_t bytes = 16;
      for (auto& [id, decisions] : nodes_[node].decisions) {
        auto src_it = decisions.find(source_peer);
        if (src_it == decisions.end() || src_it->second.verdict != 'A') {
          continue;
        }
        decisions[new_peer] = Decision{'A', 0};
        if (!adopted.insert(id).second) continue;
        ORCH_CHECK(nodes_[node].txns.count(id) != 0);
        ORCH_ASSIGN_OR_RETURN(Transaction txn,
                              ReadLocalOrRepair(new_peer, node, id));
        bytes += static_cast<int64_t>(core::EncodedTransactionSize(txn));
        bundle.applied.push_back(std::move(txn));
      }
      const auto route = ring_.Route(my_node, ring_.IdOf(node));
      network_->Charge(new_peer, route.hops, 16);
      network_->Charge(new_peer, 1, bytes);
    }
  }
  bundle.SortApplied();
  // The adopted accepts landed on every replica of their groups. They
  // replace the new peer's overlay: a bootstrapped peer holds none of
  // the bodies an earlier incarnation rejected.
  const core::TxnIdSet adopted_ids(adopted.begin(), adopted.end());
  cache_.ResetApplied(new_peer, adopted_ids);

  // Undecided trusted transactions within the adopted window.
  ORCH_RETURN_IF_ERROR(
      ReadUndecided(new_peer, *policy, adopted_ids, adopted_ids, &bundle));
  cpu_micros_[new_peer] += cpu.ElapsedMicros();
  calls_[new_peer] += 1;
  return bundle;
}

Result<size_t> DhtStore::JoinNode() {
  ORCH_ASSIGN_OR_RETURN(const size_t node, ring_.Join());
  if (node >= nodes_.size()) nodes_.resize(node + 1);
  RepairReplication();
  return node;
}

Status DhtStore::LeaveNode(size_t node) {
  ORCH_RETURN_IF_ERROR(ring_.Leave(node));
  // The departed node's state is still readable during the handoff —
  // RepairReplication collects from every slot — so a graceful leave
  // loses nothing even with replication off.
  RepairReplication();
  nodes_[node] = NodeState{};
  return Status::OK();
}

Status DhtStore::CrashNode(size_t node, bool repair) {
  ORCH_RETURN_IF_ERROR(ring_.Crash(node));
  nodes_[node] = NodeState{};  // state dies with the node
  if (repair) RepairReplication();
  return Status::OK();
}

void DhtStore::RepairReplication() {
  // Key-range re-replication: for every item held anywhere, install it
  // on the replica-group members that lack it and drop it from nodes no
  // longer in the group. Collection reads every slot (a gracefully
  // departing node's state is a valid copy source until it is cleared);
  // placement touches only live nodes. Each installed copy is one
  // replica-to-replica transfer charged to kRepairEndpoint.
  const auto is_member = [](const std::vector<size_t>& group, size_t node) {
    return std::find(group.begin(), group.end(), node) != group.end();
  };

  // Epoch allocator counter: the authoritative value is the largest
  // surviving copy (replicas only ever agree or trail after a partial
  // fan-out abort); ex-replicas are reset so a later repair cannot
  // resurrect a stale counter.
  {
    const auto group = GroupFor("epoch-allocator");
    int64_t counter = 0;
    for (const NodeState& n : nodes_) {
      counter = std::max(counter, n.epoch_counter);
    }
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (!ring_.IsLive(i)) continue;
      const int64_t want = is_member(group, i) ? counter : 0;
      if (nodes_[i].epoch_counter != want) {
        if (want != 0) network_->Charge(kRepairEndpoint, 1, 16);
        nodes_[i].epoch_counter = want;
      }
    }
  }

  // Epoch controller records.
  struct EpochRec {
    std::vector<TransactionId> contents;
    bool has_contents = false;
    bool done = false;
    bool aborted = false;
  };
  std::map<Epoch, EpochRec> epochs;
  for (const NodeState& n : nodes_) {
    for (const auto& [e, contents] : n.epoch_contents) {
      EpochRec& rec = epochs[e];
      if (!rec.has_contents) {
        rec.contents = contents;
        rec.has_contents = true;
      }
    }
    for (Epoch e : n.epoch_done) epochs[e].done = true;
    for (Epoch e : n.epoch_aborted) epochs[e].aborted = true;
  }
  for (const auto& [e, rec] : epochs) {
    const auto group = GroupFor("epoch:" + std::to_string(e));
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (!ring_.IsLive(i)) continue;
      NodeState& n = nodes_[i];
      if (!is_member(group, i)) {
        n.epoch_contents.erase(e);
        n.epoch_done.erase(e);
        n.epoch_aborted.erase(e);
        continue;
      }
      const bool knew = n.KnowsEpoch(e);
      if (rec.has_contents) {
        n.epoch_contents[e] = rec.contents;
      } else {
        n.epoch_contents.erase(e);
      }
      if (rec.done) n.epoch_done.insert(e); else n.epoch_done.erase(e);
      if (rec.aborted) n.epoch_aborted.insert(e); else n.epoch_aborted.erase(e);
      if (!knew) {
        network_->Charge(kRepairEndpoint, 1,
                         static_cast<int64_t>(16 * rec.contents.size() + 16));
      }
    }
  }

  // Transactions and the decision logs that ride on the same key.
  // Ordered unions: repair traffic and re-placement below walk them, and
  // that walk order must be reproducible (lint rule D3). Each id's copy
  // source is its first *verified* replica, so repair propagates clean
  // bytes, never rot. When no copy verifies the first one found is kept
  // (tentative) — re-placement cannot invent data checksums say is gone.
  std::map<TransactionId, StoredTxn> txn_union;
  std::set<TransactionId> verified;
  std::map<TransactionId, std::map<ParticipantId, Decision>> dec_union;
  for (const NodeState& n : nodes_) {
    for (const auto& [id, stored] : n.txns) {
      if (verified.count(id) != 0) continue;
      if (db::UnwrapEnvelope(stored.wire).ok()) {
        txn_union[id] = stored;
        verified.insert(id);
      } else {
        txn_union.emplace(id, stored);
      }
    }
    for (const auto& [id, per_peer] : n.decisions) {
      auto& merged = dec_union[id];
      for (const auto& [p, d] : per_peer) merged.emplace(p, d);
    }
  }
  for (const auto& [id, stored] : txn_union) {
    const auto group = GroupFor("txn:" + id.ToString());
    const auto dec_it = dec_union.find(id);
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (!ring_.IsLive(i)) continue;
      NodeState& n = nodes_[i];
      if (!is_member(group, i)) {
        n.txns.erase(id);
        n.decisions.erase(id);
        continue;
      }
      if (n.txns.count(id) == 0) {
        network_->Charge(kRepairEndpoint, 1,
                         static_cast<int64_t>(stored.wire.size()));
      }
      n.txns.insert_or_assign(id, stored);
      if (dec_it != dec_union.end()) {
        n.decisions[id] = dec_it->second;
      } else {
        n.decisions.erase(id);
      }
    }
  }
  // Decision logs whose transaction is gone (aborted residue): keep them
  // placed with the same key discipline.
  for (const auto& [id, per_peer] : dec_union) {
    if (txn_union.count(id) != 0) continue;
    const auto group = GroupFor("txn:" + id.ToString());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (!ring_.IsLive(i)) continue;
      if (!is_member(group, i)) {
        nodes_[i].decisions.erase(id);
      } else {
        nodes_[i].decisions[id] = per_peer;
      }
    }
  }

  // Peer coordinator entries.
  std::map<ParticipantId, CoordEntry> coord_union;
  for (const NodeState& n : nodes_) {
    for (const auto& [p, entry] : n.coordinated) {
      CoordEntry& merged = coord_union[p];
      merged.recno = std::max(merged.recno, entry.recno);
      merged.epoch = std::max(merged.epoch, entry.epoch);
      if (std::tie(entry.decided_recno, entry.decided_count) >
          std::tie(merged.decided_recno, merged.decided_count)) {
        merged.decided_recno = entry.decided_recno;
        merged.decided_count = entry.decided_count;
        merged.prev_decided_recno = entry.prev_decided_recno;
      }
    }
  }
  for (const auto& [p, entry] : coord_union) {
    const auto group = GroupFor("peer:" + std::to_string(p));
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (!ring_.IsLive(i)) continue;
      if (!is_member(group, i)) {
        nodes_[i].coordinated.erase(p);
        continue;
      }
      if (nodes_[i].coordinated.count(p) == 0) {
        network_->Charge(kRepairEndpoint, 1, 24);
      }
      nodes_[i].coordinated[p] = entry;
    }
  }
}

DhtStore::ScrubReport DhtStore::ScrubReplicas() {
  static Counter& checked = MetricsRegistry::Global().GetCounter(
      "integrity.scrub_replicas_checked");
  static Counter& found = MetricsRegistry::Global().GetCounter(
      "integrity.scrub_corrupt_found");
  static Counter& repairs =
      MetricsRegistry::Global().GetCounter("integrity.scrub_repairs");
  static Counter& lost = MetricsRegistry::Global().GetCounter(
      "integrity.scrub_unrecoverable");
  ScrubReport report;
  // Ordered union of stored ids (lint rule D3: deterministic walk).
  std::set<TransactionId> ids;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!ring_.IsLive(i)) continue;
    for (const auto& [id, stored] : nodes_[i].txns) ids.insert(id);
  }
  for (const TransactionId& id : ids) {
    const auto group = GroupFor("txn:" + id.ToString());
    std::optional<size_t> good;
    std::vector<size_t> corrupt;
    for (size_t node : group) {
      auto it = nodes_[node].txns.find(id);
      if (it == nodes_[node].txns.end()) continue;
      ++report.replicas_checked;
      if (db::UnwrapEnvelope(it->second.wire).ok()) {
        if (!good.has_value()) good = node;
      } else {
        ++report.corrupt_found;
        corrupt.push_back(node);
      }
    }
    if (corrupt.empty()) continue;
    if (!good.has_value()) {
      // Rotten everywhere: nothing to heal from. The next read of this
      // id reports kDataLoss; the scrub only surfaces it early.
      ++report.unrecoverable;
      continue;
    }
    const std::string& wire = nodes_[*good].txns.at(id).wire;
    for (size_t bad : corrupt) {
      network_->Charge(kRepairEndpoint, 1,
                       static_cast<int64_t>(wire.size()));
      nodes_[bad].txns.at(id).wire = wire;
      ++report.healed;
    }
  }
  checked.Add(report.replicas_checked);
  found.Add(report.corrupt_found);
  repairs.Add(report.healed);
  lost.Add(report.unrecoverable);
  return report;
}

bool DhtStore::CheckReplicationInvariant() const {
  const auto holders_equal_group = [&](const std::string& key,
                                       auto&& has) {
    const auto group = GroupFor(key);
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const bool member =
          std::find(group.begin(), group.end(), i) != group.end();
      const bool holds = ring_.IsLive(i) && has(nodes_[i]);
      if (member != holds) return false;
    }
    return true;
  };

  bool any_allocated = false;
  for (const NodeState& n : nodes_) any_allocated |= n.epoch_counter != 0;
  if (any_allocated &&
      !holders_equal_group("epoch-allocator", [](const NodeState& n) {
        return n.epoch_counter != 0;
      })) {
    return false;
  }

  // Ordered so the per-key invariant probes below run in a reproducible
  // order (they charge nothing, but determinism is the house style).
  std::set<Epoch> epochs;
  std::set<TransactionId> txn_ids;
  std::set<ParticipantId> peers;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!ring_.IsLive(i)) continue;
    const NodeState& n = nodes_[i];
    for (const auto& [e, c] : n.epoch_contents) epochs.insert(e);
    for (Epoch e : n.epoch_done) epochs.insert(e);
    for (Epoch e : n.epoch_aborted) epochs.insert(e);
    for (const auto& [id, stored] : n.txns) txn_ids.insert(id);
    for (const auto& [p, entry] : n.coordinated) peers.insert(p);
  }
  for (Epoch e : epochs) {
    if (!holders_equal_group(
            "epoch:" + std::to_string(e),
            [&](const NodeState& n) { return n.KnowsEpoch(e); })) {
      return false;
    }
  }
  for (const TransactionId& id : txn_ids) {
    if (!holders_equal_group(
            "txn:" + id.ToString(),
            [&](const NodeState& n) { return n.txns.count(id) != 0; })) {
      return false;
    }
  }
  for (ParticipantId p : peers) {
    if (!holders_equal_group("peer:" + std::to_string(p),
                             [&](const NodeState& n) {
                               return n.coordinated.count(p) != 0;
                             })) {
      return false;
    }
  }
  return true;
}

core::StoreStats DhtStore::StatsFor(ParticipantId peer) const {
  const net::NetStats net = network_->StatsFor(peer);
  core::StoreStats stats;
  stats.sim_network_micros = net.micros;
  stats.wire_micros = net.wire_micros;
  stats.messages = net.messages;
  stats.bytes = net.bytes;
  auto cpu_it = cpu_micros_.find(peer);
  stats.store_cpu_micros = cpu_it == cpu_micros_.end() ? 0 : cpu_it->second;
  auto call_it = calls_.find(peer);
  stats.calls = call_it == calls_.end() ? 0 : call_it->second;
  return stats;
}

}  // namespace orchestra::store
