#include "core/flatten.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"

namespace orchestra::core {

namespace {

// One logical tuple's composed net effect so far.
struct Chain {
  enum class Net { kInsert, kModify, kDelete };
  Net net;
  db::Tuple original;  // pre-image (kModify, kDelete)
  db::Tuple current;   // post-image (kInsert, kModify)
  ParticipantId last_writer = 0;
  bool dead = false;  // chain composed away to a no-op
};

// Flattening state: chains plus two key indexes. "Live" chains have a
// post-image occupying a key; "deleted" chains removed a pre-existing
// tuple and are indexed by that tuple's key so a later re-insert of the
// key composes into a modify.
class Flattener {
 public:
  explicit Flattener(const db::Catalog& catalog) : catalog_(catalog) {}

  Status Add(const Update& u) {
    auto schema_result = catalog_.GetRelation(u.relation());
    if (!schema_result.ok()) return schema_result.status();
    const db::RelationSchema& schema = **schema_result;
    switch (u.kind()) {
      case UpdateKind::kInsert:
        return AddInsert(schema, u);
      case UpdateKind::kDelete:
        return AddDelete(schema, u);
      case UpdateKind::kModify:
        return AddModify(schema, u);
    }
    return Status::Internal("unreachable update kind");
  }

  std::vector<Update> Finish() {
    // Each output with its touched key, derived once.
    std::vector<std::pair<db::Tuple, Update>> keyed;
    const auto emit = [&](Update u) {
      const db::RelationSchema& schema =
          *catalog_.GetRelation(u.relation()).value();
      db::Tuple key = schema.KeyOf(u.is_delete() ? u.old_tuple()
                                                 : u.new_tuple());
      keyed.emplace_back(std::move(key), std::move(u));
    };
    for (const ChainRec& c : chains_) {
      if (c.dead) continue;
      switch (c.net) {
        case Chain::Net::kInsert:
          emit(Update::Insert(c.relation, c.current, c.last_writer));
          break;
        case Chain::Net::kModify:
          if (c.original != c.current) {
            emit(Update::Modify(c.relation, c.original, c.current,
                                c.last_writer));
          }
          break;
        case Chain::Net::kDelete:
          emit(Update::Delete(c.relation, c.original, c.last_writer));
          break;
      }
    }
    // Deterministic output order: relation, then the touched key, then
    // kind (so a delete/insert pair on one key orders delete first).
    // No two outputs tie, so the unstable sort has one result.
    std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
      const Update& ua = a.second;
      const Update& ub = b.second;
      if (ua.relation() != ub.relation()) return ua.relation() < ub.relation();
      if (a.first != b.first) return a.first < b.first;
      return static_cast<int>(ua.kind()) > static_cast<int>(ub.kind());
    });
    std::vector<Update> out;
    out.reserve(keyed.size());
    for (auto& [key, u] : keyed) out.push_back(std::move(u));
    return out;
  }

 private:
  struct ChainRec : Chain {
    std::string relation;
  };

  Status AddInsert(const db::RelationSchema& schema, const Update& u) {
    RelKey key{u.relation(), schema.KeyOf(u.new_tuple())};
    if (live_.count(key) != 0) {
      return Status::Conflict("sequence inserts key " + key.ToString() +
                              " twice");
    }
    auto del_it = deleted_.find(key);
    if (del_it != deleted_.end()) {
      // -t ∘ +t' : remove-and-replace composes to a modify (or a no-op
      // when the re-inserted tuple equals the removed one).
      ChainRec& chain = chains_[del_it->second];
      deleted_.erase(del_it);
      if (chain.original == u.new_tuple()) {
        chain.dead = true;
        return Status::OK();
      }
      chain.net = Chain::Net::kModify;
      chain.current = u.new_tuple();
      chain.last_writer = u.origin();
      live_[key] = IndexOf(chain);
      return Status::OK();
    }
    ChainRec chain;
    chain.relation = u.relation();
    chain.net = Chain::Net::kInsert;
    chain.current = u.new_tuple();
    chain.last_writer = u.origin();
    chains_.push_back(std::move(chain));
    live_[key] = chains_.size() - 1;
    return Status::OK();
  }

  Status AddDelete(const db::RelationSchema& schema, const Update& u) {
    RelKey key{u.relation(), schema.KeyOf(u.old_tuple())};
    auto live_it = live_.find(key);
    if (live_it == live_.end()) {
      if (deleted_.count(key) != 0) {
        return Status::Conflict("sequence deletes key " + key.ToString() +
                                " twice");
      }
      ChainRec chain;
      chain.relation = u.relation();
      chain.net = Chain::Net::kDelete;
      chain.original = u.old_tuple();
      chain.last_writer = u.origin();
      chains_.push_back(std::move(chain));
      deleted_[key] = chains_.size() - 1;
      return Status::OK();
    }
    ChainRec& chain = chains_[live_it->second];
    if (chain.current != u.old_tuple()) {
      return Status::Conflict("delete pre-image " + u.old_tuple().ToString() +
                              " does not match the chain state " +
                              chain.current.ToString());
    }
    live_.erase(live_it);
    if (chain.net == Chain::Net::kInsert) {
      // +t ∘ -t : vanishes.
      chain.dead = true;
      return Status::OK();
    }
    // t0->t ∘ -t : composes to -t0, indexed at t0's key.
    chain.net = Chain::Net::kDelete;
    chain.current = db::Tuple();
    chain.last_writer = u.origin();
    RelKey orig_key{chain.relation, schema.KeyOf(chain.original)};
    if (deleted_.count(orig_key) != 0) {
      return Status::Conflict("sequence deletes key " + orig_key.ToString() +
                              " twice");
    }
    deleted_[orig_key] = IndexOf(chain);
    return Status::OK();
  }

  Status AddModify(const db::RelationSchema& schema, const Update& u) {
    RelKey old_key{u.relation(), schema.KeyOf(u.old_tuple())};
    RelKey new_key{u.relation(), schema.KeyOf(u.new_tuple())};
    if (deleted_.count(old_key) != 0 && live_.count(old_key) == 0) {
      return Status::Conflict("sequence modifies deleted key " +
                              old_key.ToString());
    }
    size_t chain_index;
    auto live_it = live_.find(old_key);
    if (live_it != live_.end()) {
      chain_index = live_it->second;
      if (chains_[chain_index].current != u.old_tuple()) {
        return Status::Conflict(
            "modify pre-image " + u.old_tuple().ToString() +
            " does not match the chain state " +
            chains_[chain_index].current.ToString());
      }
      live_.erase(live_it);
    } else {
      // Chain starts at a pre-existing tuple.
      ChainRec chain;
      chain.relation = u.relation();
      chain.net = Chain::Net::kModify;
      chain.original = u.old_tuple();
      chains_.push_back(std::move(chain));
      chain_index = chains_.size() - 1;
    }
    ChainRec& chain = chains_[chain_index];
    chain.current = u.new_tuple();
    chain.last_writer = u.origin();
    if (!(old_key == new_key) && live_.count(new_key) != 0) {
      return Status::Conflict("sequence moves two tuples onto key " +
                              new_key.ToString());
    }
    // A pre-existing occupant of new_key removed earlier in the sequence
    // stays as an independent delete; the apply step orders deletes first.
    live_[new_key] = chain_index;
    return Status::OK();
  }

  size_t IndexOf(const ChainRec& chain) const {
    return static_cast<size_t>(&chain - chains_.data());
  }

  const db::Catalog& catalog_;
  std::vector<ChainRec> chains_;
  std::unordered_map<RelKey, size_t, RelKeyHash> live_;
  std::unordered_map<RelKey, size_t, RelKeyHash> deleted_;
};

}  // namespace

Result<std::vector<Update>> Flatten(const db::Catalog& catalog,
                                    const std::vector<Update>& sequence) {
  Flattener flattener(catalog);
  for (const Update& u : sequence) {
    ORCH_RETURN_IF_ERROR(flattener.Add(u));
  }
  return flattener.Finish();
}

}  // namespace orchestra::core
