// orchestra_cli: a scriptable shell for driving a CDSS confederation.
//
// Reads commands from stdin (interactively or piped), one per line:
//
//   peers N [central|dht]      declare a confederation of N peers (1..N)
//   trust A B PRIO             peer A accepts peer B's updates at PRIO
//   go                         build the confederation (implicit on first
//                              action command)
//   exec P insert ORG PROT FN          one-update transaction at peer P
//   exec P modify ORG PROT FROM TO
//   exec P delete ORG PROT FN
//   begin P / add insert|modify|delete ... / commit
//                              multi-update transaction
//   publish P                  publish P's queued transactions
//   reconcile P [nc]           reconcile P (nc = network-centric)
//   conflicts P                list P's open conflict groups
//   resolve P GROUP OPT|none   resolve one conflict group at P
//   explain [P] TXNID          render the causal chain behind every
//                              decision recorded for TXNID (at P only,
//                              or across all peers)
//   show P                     print P's instance
//   ratio                      state ratio across all peers
//   stats P                    store-interaction stats for P
//   recover P                  rebuild P from the store (crash recovery)
//   # ...                      comment
//   quit
//
// Example session (also see examples/):
//   peers 3
//   trust 1 2 1
//   trust 1 3 1
//   exec 3 insert rat prot1 cell-metab
//   publish 3
//   reconcile 1
//   show 1
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/participant.h"
#include "net/sim_network.h"
#include "storage/engine.h"
#include "store/central_store.h"
#include "store/dht_store.h"
#include "workload/swissprot.h"

using namespace orchestra;

namespace {

class Shell {
 public:
  Shell() {
    auto catalog = workload::MakeSwissProtCatalog();
    ORCH_CHECK(catalog.ok());
    catalog_ = *std::move(catalog);
  }

  int RunScript(std::istream& in) {
    std::string line;
    while (std::getline(in, line)) {
      if (!Execute(line)) return 0;  // quit
    }
    return 0;
  }

 private:
  static std::vector<std::string> Tokenize(const std::string& line) {
    std::vector<std::string> tokens;
    std::istringstream stream(line);
    std::string token;
    while (stream >> token) tokens.push_back(token);
    return tokens;
  }

  void Error(const std::string& message) {
    std::printf("error: %s\n", message.c_str());
  }

  bool EnsureBuilt() {
    if (!participants_.empty()) return true;
    if (n_peers_ == 0) {
      Error("declare the confederation first: peers N [central|dht]");
      return false;
    }
    if (store_kind_ == "dht") {
      store_ = std::make_unique<store::DhtStore>(n_peers_, &network_,
                                                 &catalog_);
    } else {
      engine_ = storage::StorageEngine::InMemory();
      store_ = std::make_unique<store::CentralStore>(
          engine_.get(), &network_, store::CentralStoreOptions{}, &catalog_);
    }
    for (size_t i = 1; i <= n_peers_; ++i) {
      const auto id = static_cast<core::ParticipantId>(i);
      auto status = store_->RegisterParticipant(id, policies_[i - 1].get());
      if (!status.ok()) {
        Error(status.ToString());
        return false;
      }
      participants_.push_back(std::make_unique<core::Participant>(
          id, &catalog_, *policies_[i - 1]));
    }
    std::printf("confederation of %zu peers over the %s store is up\n",
                n_peers_, store_->name().data());
    return true;
  }

  core::Participant* Peer(const std::string& token) {
    const size_t index = static_cast<size_t>(std::atol(token.c_str()));
    if (index == 0 || index > participants_.size()) {
      Error("no peer " + token);
      return nullptr;
    }
    return participants_[index - 1].get();
  }

  std::optional<core::Update> ParseUpdate(
      const std::vector<std::string>& tokens, size_t at) {
    if (at >= tokens.size()) {
      Error("missing update kind");
      return std::nullopt;
    }
    const std::string& kind = tokens[at];
    auto tuple = [&](size_t from) {
      return db::Tuple{db::Value(tokens[from]), db::Value(tokens[from + 1]),
                       db::Value(tokens[from + 2])};
    };
    if (kind == "insert" && tokens.size() >= at + 4) {
      return core::Update::Insert(workload::kFunctionRelation, tuple(at + 1),
                                  0);
    }
    if (kind == "delete" && tokens.size() >= at + 4) {
      return core::Update::Delete(workload::kFunctionRelation, tuple(at + 1),
                                  0);
    }
    if (kind == "modify" && tokens.size() >= at + 5) {
      db::Tuple old_tuple{db::Value(tokens[at + 1]), db::Value(tokens[at + 2]),
                          db::Value(tokens[at + 3])};
      db::Tuple new_tuple{db::Value(tokens[at + 1]), db::Value(tokens[at + 2]),
                          db::Value(tokens[at + 4])};
      return core::Update::Modify(workload::kFunctionRelation,
                                  std::move(old_tuple), std::move(new_tuple),
                                  0);
    }
    Error("usage: insert ORG PROT FN | modify ORG PROT FROM TO | "
          "delete ORG PROT FN");
    return std::nullopt;
  }

  static std::optional<core::TransactionId> ParseTxnId(
      const std::string& token) {
    const char* s = token.c_str();
    if (*s == 'X' || *s == 'x') ++s;
    unsigned origin = 0;
    unsigned long long seq = 0;
    char trailing = 0;
    if (std::sscanf(s, "%u:%llu%c", &origin, &seq, &trailing) != 2) {
      return std::nullopt;
    }
    core::TransactionId id;
    id.origin = static_cast<core::ParticipantId>(origin);
    id.seq = seq;
    return id;
  }

  /// Renders the causal chain under `rec`: the deferral/rejection
  /// blocker and every decisive counterparty have records of their own
  /// in the same log; walking them explains the explanation. `visited`
  /// cuts cycles — a dilemma's two records are mutually decisive.
  static void ExplainChain(const std::vector<core::ProvenanceRecord>& log,
                           const core::ProvenanceRecord& rec, int depth,
                           std::set<core::TransactionId>* visited) {
    if (depth > 8) return;
    std::vector<core::TransactionId> next;
    if (rec.blocker) next.push_back(*rec.blocker);
    for (const auto& cmp : rec.comparisons) {
      if (cmp.decisive) next.push_back(cmp.counterparty);
    }
    for (const auto& id : next) {
      if (!visited->insert(id).second) continue;
      const core::ProvenanceRecord* cause = nullptr;
      for (const auto& r : log) {  // latest record at or before rec's round
        if (r.txn == id && r.recno <= rec.recno) cause = &r;
      }
      if (cause == nullptr) continue;
      std::printf("%*sbecause: %s\n", depth * 2, "", cause->ToText().c_str());
      ExplainChain(log, *cause, depth + 1, visited);
    }
  }

  void ReportLine(const core::ReconcileReport& report) {
    std::printf("recno %lld: %zu fetched, %zu reconsidered -> %zu accepted, "
                "%zu rejected, %zu deferred (%zu open conflict groups)\n",
                static_cast<long long>(report.recno), report.fetched,
                report.reconsidered, report.accepted.size(),
                report.rejected.size(), report.deferred.size(),
                report.open_conflict_groups);
  }

  // Returns false to quit.
  bool Execute(const std::string& line) {
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty() || tokens[0][0] == '#') return true;
    const std::string& cmd = tokens[0];

    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      std::printf("%s", kHelp);
      return true;
    }
    if (cmd == "peers") {
      if (!participants_.empty()) {
        Error("confederation already built");
        return true;
      }
      if (tokens.size() < 2) {
        Error("usage: peers N [central|dht]");
        return true;
      }
      n_peers_ = static_cast<size_t>(std::atol(tokens[1].c_str()));
      if (n_peers_ == 0 || n_peers_ > 1000) {
        Error("peer count must be in 1..1000");
        n_peers_ = 0;
        return true;
      }
      store_kind_ = tokens.size() > 2 ? tokens[2] : "central";
      policies_.clear();
      for (size_t i = 1; i <= n_peers_; ++i) {
        policies_.push_back(std::make_unique<core::TrustPolicy>(
            static_cast<core::ParticipantId>(i)));
      }
      std::printf("declared %zu peers (%s store); add trust rules, then "
                  "issue any action command\n",
                  n_peers_, store_kind_.c_str());
      return true;
    }
    if (cmd == "trust") {
      if (!participants_.empty()) {
        Error("trust rules must be declared before the first action");
        return true;
      }
      if (tokens.size() < 4 || n_peers_ == 0) {
        Error("usage (after peers): trust A B PRIO");
        return true;
      }
      const size_t a = static_cast<size_t>(std::atol(tokens[1].c_str()));
      const size_t b = static_cast<size_t>(std::atol(tokens[2].c_str()));
      const int prio = std::atoi(tokens[3].c_str());
      if (a == 0 || a > n_peers_ || b == 0 || b > n_peers_) {
        Error("peer out of range");
        return true;
      }
      policies_[a - 1]->TrustPeer(static_cast<core::ParticipantId>(b), prio);
      return true;
    }

    // Everything below acts on a built confederation.
    if (!EnsureBuilt()) return true;

    if (cmd == "exec" && tokens.size() >= 3) {
      core::Participant* peer = Peer(tokens[1]);
      if (peer == nullptr) return true;
      auto update = ParseUpdate(tokens, 2);
      if (!update) return true;
      auto txn = peer->ExecuteTransaction({*std::move(update)});
      if (!txn.ok()) {
        Error(txn.status().ToString());
      } else {
        std::printf("executed %s\n", txn->ToString().c_str());
      }
      return true;
    }
    if (cmd == "begin" && tokens.size() >= 2) {
      pending_peer_ = tokens[1];
      pending_updates_.clear();
      return true;
    }
    if (cmd == "add") {
      if (pending_peer_.empty()) {
        Error("no transaction in progress; use begin P");
        return true;
      }
      auto update = ParseUpdate(tokens, 1);
      if (update) pending_updates_.push_back(*std::move(update));
      return true;
    }
    if (cmd == "commit") {
      core::Participant* peer = Peer(pending_peer_);
      pending_peer_.clear();
      if (peer == nullptr || pending_updates_.empty()) {
        Error("nothing to commit");
        return true;
      }
      auto txn = peer->ExecuteTransaction(std::move(pending_updates_));
      pending_updates_.clear();
      if (!txn.ok()) {
        Error(txn.status().ToString());
      } else {
        std::printf("executed %s\n", txn->ToString().c_str());
      }
      return true;
    }
    if (cmd == "publish" && tokens.size() >= 2) {
      core::Participant* peer = Peer(tokens[1]);
      if (peer == nullptr) return true;
      auto epoch = peer->Publish(store_.get());
      if (!epoch.ok()) {
        Error(epoch.status().ToString());
      } else if (*epoch == core::kNoEpoch) {
        std::printf("nothing to publish\n");
      } else {
        std::printf("published epoch %lld\n", static_cast<long long>(*epoch));
      }
      return true;
    }
    if (cmd == "reconcile" && tokens.size() >= 2) {
      core::Participant* peer = Peer(tokens[1]);
      if (peer == nullptr) return true;
      const bool nc = tokens.size() > 2 && tokens[2] == "nc";
      auto report = nc ? peer->ReconcileNetworkCentric(store_.get())
                       : peer->Reconcile(store_.get());
      if (!report.ok()) {
        Error(report.status().ToString());
      } else {
        ReportLine(*report);
      }
      return true;
    }
    if (cmd == "conflicts" && tokens.size() >= 2) {
      core::Participant* peer = Peer(tokens[1]);
      if (peer == nullptr) return true;
      const auto& groups = peer->pending_conflicts();
      if (groups.empty()) std::printf("no open conflicts\n");
      for (size_t g = 0; g < groups.size(); ++g) {
        std::printf("group %zu: %s\n", g, groups[g].point.ToString().c_str());
        for (size_t o = 0; o < groups[g].options.size(); ++o) {
          std::printf("  option %zu: %s\n", o,
                      groups[g].options[o].effect.c_str());
        }
      }
      return true;
    }
    if (cmd == "resolve" && tokens.size() >= 4) {
      core::Participant* peer = Peer(tokens[1]);
      if (peer == nullptr) return true;
      const size_t group = static_cast<size_t>(std::atol(tokens[2].c_str()));
      std::optional<size_t> option;
      if (tokens[3] != "none") {
        option = static_cast<size_t>(std::atol(tokens[3].c_str()));
      }
      auto report = peer->ResolveConflict(store_.get(), group, option);
      if (!report.ok()) {
        Error(report.status().ToString());
      } else {
        ReportLine(*report);
      }
      return true;
    }
    if (cmd == "explain" && tokens.size() >= 2) {
      std::vector<core::Participant*> scope;
      std::string txn_token;
      if (tokens.size() >= 3) {
        core::Participant* peer = Peer(tokens[1]);
        if (peer == nullptr) return true;
        scope.push_back(peer);
        txn_token = tokens[2];
      } else {
        for (const auto& p : participants_) scope.push_back(p.get());
        txn_token = tokens[1];
      }
      const auto txn = ParseTxnId(txn_token);
      if (!txn) {
        Error("usage: explain [P] TXNID (e.g. explain X3:1)");
        return true;
      }
      bool any = false;
      for (core::Participant* peer : scope) {
        const auto& log = peer->provenance_log();
        for (const auto& rec : log) {
          if (rec.txn != *txn) continue;
          any = true;
          std::printf("%s\n", rec.ToText().c_str());
          std::set<core::TransactionId> visited{rec.txn};
          ExplainChain(log, rec, 1, &visited);
        }
      }
      if (!any) {
        std::printf("no decision recorded for %s\n", txn->ToString().c_str());
      }
      return true;
    }
    if (cmd == "show" && tokens.size() >= 2) {
      core::Participant* peer = Peer(tokens[1]);
      if (peer == nullptr) return true;
      std::printf("%s", peer->instance().ToString().c_str());
      return true;
    }
    if (cmd == "ratio") {
      std::vector<const core::Participant*> view;
      for (const auto& p : participants_) view.push_back(p.get());
      std::printf("state ratio over %s: %.3f\n", workload::kFunctionRelation,
                  sim_ratio(view));
      return true;
    }
    if (cmd == "stats" && tokens.size() >= 2) {
      core::Participant* peer = Peer(tokens[1]);
      if (peer == nullptr) return true;
      const core::StoreStats stats = store_->StatsFor(peer->id());
      std::printf("store: %lld msgs, %lld bytes, %.3f ms network, "
                  "%.3f ms store cpu, %lld calls\n",
                  static_cast<long long>(stats.messages),
                  static_cast<long long>(stats.bytes),
                  static_cast<double>(stats.sim_network_micros) / 1e3,
                  static_cast<double>(stats.store_cpu_micros) / 1e3,
                  static_cast<long long>(stats.calls));
      return true;
    }
    if (cmd == "bootstrap" && tokens.size() >= 3) {
      const size_t index = static_cast<size_t>(std::atol(tokens[1].c_str()));
      const size_t source = static_cast<size_t>(std::atol(tokens[2].c_str()));
      if (index == 0 || index > participants_.size() || source == 0 ||
          source > participants_.size()) {
        Error("usage: bootstrap NEWPEER SOURCEPEER (both in range)");
        return true;
      }
      core::TrustPolicy policy = *policies_[index - 1];
      auto fresh = core::Participant::BootstrapFrom(
          static_cast<core::ParticipantId>(index), &catalog_,
          std::move(policy), store_.get(),
          static_cast<core::ParticipantId>(source));
      if (!fresh.ok()) {
        Error(fresh.status().ToString());
        return true;
      }
      participants_[index - 1] = std::move(*fresh);
      std::printf("peer %zu bootstrapped from peer %zu: %zu tuples adopted, "
                  "%zu deferred to re-decide\n",
                  index, source,
                  participants_[index - 1]->instance().TotalTuples(),
                  participants_[index - 1]->deferred_count());
      return true;
    }
    if (cmd == "recover" && tokens.size() >= 2) {
      const size_t index = static_cast<size_t>(std::atol(tokens[1].c_str()));
      if (index == 0 || index > participants_.size()) {
        Error("no peer " + tokens[1]);
        return true;
      }
      core::TrustPolicy policy = *policies_[index - 1];
      auto recovered = core::Participant::RecoverFromStore(
          static_cast<core::ParticipantId>(index), &catalog_,
          std::move(policy), store_.get());
      if (!recovered.ok()) {
        Error(recovered.status().ToString());
        return true;
      }
      participants_[index - 1] = std::move(*recovered);
      std::printf("peer %zu rebuilt from the store: %zu tuples, %zu applied, "
                  "%zu deferred\n",
                  index, participants_[index - 1]->instance().TotalTuples(),
                  participants_[index - 1]->applied_count(),
                  participants_[index - 1]->deferred_count());
      return true;
    }
    Error("unknown command '" + cmd + "'; try help");
    return true;
  }

  // Local copy of the state-ratio metric to avoid linking the sim lib.
  static double sim_ratio(const std::vector<const core::Participant*>& view);

  static constexpr const char kHelp[] =
      "commands:\n"
      "  peers N [central|dht]\n"
      "  trust A B PRIO\n"
      "  exec P insert|modify|delete ...\n"
      "  begin P / add ... / commit\n"
      "  publish P | reconcile P [nc] | conflicts P\n"
      "  resolve P GROUP OPT|none | show P | ratio | stats P\n"
      "  explain [P] TXNID   why TXNID was accepted/rejected/deferred\n"
      "  recover P | bootstrap NEWPEER SOURCEPEER\n"
      "  quit\n";

  db::Catalog catalog_;
  net::SimNetwork network_;
  std::unique_ptr<storage::StorageEngine> engine_;
  std::unique_ptr<core::UpdateStore> store_;
  size_t n_peers_ = 0;
  std::string store_kind_ = "central";
  std::vector<std::unique_ptr<core::TrustPolicy>> policies_;
  std::vector<std::unique_ptr<core::Participant>> participants_;
  std::string pending_peer_;
  std::vector<core::Update> pending_updates_;
};

double Shell::sim_ratio(const std::vector<const core::Participant*>& view) {
  // Inline state ratio (matches sim::StateRatio).
  std::map<db::Tuple, std::pair<std::set<db::Tuple>, size_t>> states;
  for (const core::Participant* p : view) {
    auto table = p->instance().GetTable(workload::kFunctionRelation);
    if (!table.ok()) continue;
    for (const db::Tuple& tuple : (*table)->Rows()) {
      auto& entry = states[(*table)->schema().KeyOf(tuple)];
      entry.first.insert(tuple);
      entry.second += 1;
    }
  }
  if (states.empty()) return 1.0;
  double total = 0;
  for (const auto& [key, entry] : states) {
    total += static_cast<double>(entry.first.size() +
                                 (entry.second < view.size() ? 1 : 0));
  }
  return total / static_cast<double>(states.size());
}

}  // namespace

int main() {
  Shell shell;
  return shell.RunScript(std::cin);
}
