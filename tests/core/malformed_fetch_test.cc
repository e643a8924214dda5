// A transaction that does not fit the catalog — a tuple of the wrong
// arity, or an update over an unknown relation — must surface as a typed
// Corruption where it enters the participant (a fetch folded into the
// transaction cache, or a recovery bundle): never as a process abort in
// key projection further down, and never as an ordinary rejection
// recorded as if the transaction were well formed.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/participant.h"
#include "core/update_store.h"
#include "test_util.h"

namespace orchestra::core {
namespace {

using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::T;

// Serves one canned transaction, trusted at priority 1, from every read
// path; records nothing.
class StubStore : public UpdateStore, public NetworkCentricStore {
 public:
  explicit StubStore(Transaction txn) : txn_(std::move(txn)) {}

  Status RegisterParticipant(ParticipantId, const TrustPolicy*) override {
    return Status::OK();
  }
  Result<Epoch> Publish(ParticipantId, std::vector<Transaction>) override {
    return Status::NotSupported("stub");
  }
  Result<ReconcileFetch> BeginReconciliation(ParticipantId) override {
    ReconcileFetch fetch;
    fetch.recno = 1;
    fetch.epoch = 1;
    fetch.trusted.emplace_back(txn_.id, 1);
    fetch.transactions.push_back(txn_);
    return fetch;
  }
  Result<NetworkCentricFetch> BeginNetworkCentricReconciliation(
      ParticipantId peer) override {
    NetworkCentricFetch fetch;
    ORCH_ASSIGN_OR_RETURN(fetch.base, BeginReconciliation(peer));
    TrustedTxn t;
    t.id = txn_.id;
    t.priority = 1;
    t.extension = {txn_.id};
    fetch.trusted_txns.push_back(std::move(t));
    return fetch;
  }
  Status RecordDecisions(ParticipantId, int64_t,
                         const std::vector<TransactionId>&,
                         const std::vector<TransactionId>&) override {
    return Status::OK();
  }
  Result<RecoveryBundle> FetchRecoveryState(ParticipantId) const override {
    RecoveryBundle bundle;
    bundle.recno = 1;
    bundle.applied.push_back(txn_);
    return bundle;
  }
  Result<RecoveryBundle> Bootstrap(ParticipantId, ParticipantId) override {
    RecoveryBundle bundle;
    bundle.undecided.emplace_back(txn_.id, 1);
    bundle.closure.push_back(txn_);
    return bundle;
  }
  StoreStats StatsFor(ParticipantId) const override { return {}; }
  std::string_view name() const override { return "stub"; }

 private:
  Transaction txn_;
};

Transaction Malformed(Update update) {
  Transaction txn;
  txn.id = TransactionId{2, 0};
  txn.epoch = 1;
  txn.updates.push_back(std::move(update));
  return txn;
}

class MalformedFetchTest : public ::testing::TestWithParam<Transaction> {
 protected:
  MalformedFetchTest() : catalog_(MakeProteinCatalog()), policy_(1) {
    policy_.TrustPeer(2, 1);
  }

  db::Catalog catalog_;
  TrustPolicy policy_;
};

TEST_P(MalformedFetchTest, ReconcileReturnsCorruption) {
  StubStore store(GetParam());
  Participant p(1, &catalog_, policy_);
  auto report = p.Reconcile(&store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruption)
      << report.status().ToString();
  EXPECT_EQ(p.deferred_count(), 0u);
}

TEST_P(MalformedFetchTest, NetworkCentricReconcileReturnsCorruption) {
  StubStore store(GetParam());
  Participant p(1, &catalog_, policy_);
  auto report = p.ReconcileNetworkCentric(&store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruption)
      << report.status().ToString();
}

TEST_P(MalformedFetchTest, RecoveryAndBootstrapReturnCorruption) {
  StubStore store(GetParam());
  auto recovered = Participant::RecoverFromStore(1, &catalog_, policy_, &store);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
  auto bootstrapped =
      Participant::BootstrapFrom(1, &catalog_, policy_, &store, 2);
  ASSERT_FALSE(bootstrapped.ok());
  EXPECT_EQ(bootstrapped.status().code(), StatusCode::kCorruption);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, MalformedFetchTest,
    ::testing::Values(
        // F has three columns and a two-column key: unchecked, this
        // tuple aborts the process in key projection.
        Malformed(Update::Insert("F", T({"rat"}), 2)),
        // No relation G in the catalog.
        Malformed(Update::Insert("G", T({"rat", "p1", "x"}), 2))),
    [](const ::testing::TestParamInfo<Transaction>& info) {
      return info.index == 0 ? std::string("WrongArity")
                             : std::string("UnknownRelation");
    });

}  // namespace
}  // namespace orchestra::core
