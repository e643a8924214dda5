#include "core/update.h"

#include <gtest/gtest.h>

#include "core/transaction.h"
#include "test_util.h"
#include "workload/swissprot.h"

namespace orchestra::core {
namespace {

using orchestra::testing::Del;
using orchestra::testing::Ins;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::Mod;
using orchestra::testing::T;
using orchestra::testing::Txn;

class UpdateTest : public ::testing::Test {
 protected:
  db::Catalog catalog_ = MakeProteinCatalog();
  const db::RelationSchema& schema() { return **catalog_.GetRelation("F"); }
};

TEST_F(UpdateTest, FactoryInvariants) {
  const Update ins = Ins("rat", "p1", "x", 3);
  EXPECT_TRUE(ins.is_insert());
  EXPECT_TRUE(ins.old_tuple().empty());
  EXPECT_EQ(ins.new_tuple(), T({"rat", "p1", "x"}));
  EXPECT_EQ(ins.origin(), 3u);

  const Update del = Del("rat", "p1", "x", 2);
  EXPECT_TRUE(del.is_delete());
  EXPECT_TRUE(del.new_tuple().empty());

  const Update mod = Mod("rat", "p1", "x", "y", 1);
  EXPECT_TRUE(mod.is_modify());
  EXPECT_EQ(mod.old_tuple(), T({"rat", "p1", "x"}));
  EXPECT_EQ(mod.new_tuple(), T({"rat", "p1", "y"}));
}

TEST_F(UpdateTest, ReadAndWriteKeys) {
  EXPECT_EQ(Ins("rat", "p1", "x", 1).ReadKey(schema()), std::nullopt);
  EXPECT_EQ(Ins("rat", "p1", "x", 1).WriteKey(schema()), T({"rat", "p1"}));
  EXPECT_EQ(Del("rat", "p1", "x", 1).ReadKey(schema()), T({"rat", "p1"}));
  EXPECT_EQ(Del("rat", "p1", "x", 1).WriteKey(schema()), std::nullopt);
  EXPECT_EQ(Mod("rat", "p1", "x", "y", 1).ReadKey(schema()), T({"rat", "p1"}));
  EXPECT_EQ(Mod("rat", "p1", "x", "y", 1).WriteKey(schema()),
            T({"rat", "p1"}));
}

TEST_F(UpdateTest, TouchedKeysDeduplicates) {
  // Same-key modify touches one key.
  EXPECT_EQ(Mod("rat", "p1", "x", "y", 1).TouchedKeys(schema()).size(), 1u);
  // Key-changing modify touches two.
  const Update mover =
      Update::Modify("F", T({"rat", "p1", "x"}), T({"rat", "p2", "x"}), 1);
  EXPECT_EQ(mover.TouchedKeys(schema()).size(), 2u);
}

TEST_F(UpdateTest, ToStringMatchesPaperNotation) {
  EXPECT_EQ(Ins("rat", "p1", "x", 3).ToString(),
            "+F('rat', 'p1', 'x');3");
  EXPECT_EQ(Del("rat", "p1", "x", 2).ToString(), "-F('rat', 'p1', 'x');2");
  EXPECT_NE(Mod("rat", "p1", "x", "y", 1).ToString().find("->"),
            std::string::npos);
}

TEST_F(UpdateTest, EqualityIsStructural) {
  EXPECT_EQ(Ins("rat", "p1", "x", 1), Ins("rat", "p1", "x", 1));
  EXPECT_NE(Ins("rat", "p1", "x", 1), Ins("rat", "p1", "x", 2));
  EXPECT_NE(Ins("rat", "p1", "x", 1), Del("rat", "p1", "x", 1));
}

// Updates travel only inside a transaction, so each kind round-trips
// through the transaction codec, with the transaction's own origin (left
// out of the bytes) and with a foreign one (written).
TEST_F(UpdateTest, SerdeRoundTripAllKinds) {
  for (const Update& u :
       {Ins("rat", "p1", "immune", 3), Del("mouse", "p2", "metab", 2),
        Mod("rat", "p1", "a", "b", 1)}) {
    for (ParticipantId txn_origin : {u.origin(), ParticipantId{9}}) {
      const Transaction txn = Txn(txn_origin, 4, {u});
      std::string buf;
      EncodeTransaction(&buf, txn);
      EXPECT_EQ(EncodedTransactionSize(txn), buf.size());
      size_t pos = 0;
      auto decoded = DecodeTransaction(buf, &pos);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ASSERT_EQ(decoded->updates.size(), 1u);
      EXPECT_EQ(decoded->updates[0], u);
      EXPECT_EQ(pos, buf.size());
    }
  }
}

TEST_F(UpdateTest, DecodeRejectsGarbage) {
  size_t pos = 0;
  EXPECT_EQ(DecodeTransaction("", &pos).status().code(),
            StatusCode::kCorruption);
  // Header X1:2 in epoch 3, one update whose kind byte is not a kind.
  pos = 0;
  EXPECT_EQ(DecodeTransaction("\x01\x02\x04\x01\x07garbage", &pos)
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST_F(UpdateTest, OwnOriginIsLeftOutOfTheBytes) {
  const Transaction own = Txn(3, 7, {Ins("rat", "p1", "x", 3)});
  const Transaction foreign = Txn(3, 7, {Ins("rat", "p1", "x", 300)});
  // A foreign origin costs its varint (two bytes for 300); the own one
  // costs nothing beyond the kind byte's flag.
  EXPECT_EQ(EncodedTransactionSize(foreign), EncodedTransactionSize(own) + 2);
}

// A SwissProt insert (§6) brings about 7.3 cross-references, each
// restating the relation name and the parent's organism and protein:
// the codec writes each of those strings once per transaction.
TEST_F(UpdateTest, SwissProtInsertWritesRepeatedStringsOnce) {
  const std::string organism = "Homo sapiens";
  const std::string protein = "P04637";
  Transaction txn;
  txn.id = {5, 11};
  txn.epoch = 2;
  txn.updates.push_back(Update::Insert(
      workload::kFunctionRelation,
      db::Tuple{db::Value(organism), db::Value(protein),
                db::Value("DNA binding")},
      5));
  const char* const kDbs[] = {"EMBL", "PDB",  "Pfam", "InterPro",
                              "GO",   "EMBL", "PDB"};
  for (int r = 0; r < 7; ++r) {
    txn.updates.push_back(Update::Insert(
        workload::kCrossRefRelation,
        db::Tuple{db::Value(organism), db::Value(protein),
                  db::Value(kDbs[r]),
                  db::Value(std::string(kDbs[r]).substr(0, 2) + "00000" +
                            std::to_string(r))},
        5));
  }
  std::string buf;
  EncodeTransaction(&buf, txn);
  EXPECT_EQ(EncodedTransactionSize(txn), buf.size());
  const auto occurrences = [&](const std::string& needle) {
    int n = 0;
    for (size_t at = buf.find(needle); at != std::string::npos;
         at = buf.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences(organism), 1);
  EXPECT_EQ(occurrences(protein), 1);
  EXPECT_EQ(occurrences(workload::kCrossRefRelation), 1);
  EXPECT_EQ(occurrences("EMBL"), 1);
  size_t pos = 0;
  auto decoded = DecodeTransaction(buf, &pos);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->updates, txn.updates);
}

TEST(TransactionIdTest, OrderingAndFormatting) {
  const TransactionId a{1, 5};
  const TransactionId b{1, 6};
  const TransactionId c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (TransactionId{1, 5}));
  EXPECT_NE(a, b);
  EXPECT_EQ(a.ToString(), "X1:5");
  EXPECT_EQ(TransactionIdHash()(a), TransactionIdHash()(TransactionId{1, 5}));
}

TEST_F(UpdateTest, TransactionSerdeRoundTrip) {
  Transaction txn = Txn(3, 7,
                        {Ins("rat", "p1", "x", 3), Mod("rat", "p2", "a", "b", 3)},
                        {{2, 1}, {1, 4}}, 9);
  std::string buf;
  EncodeTransaction(&buf, txn);
  size_t pos = 0;
  auto decoded = DecodeTransaction(buf, &pos);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, txn.id);
  EXPECT_EQ(decoded->epoch, 9);
  EXPECT_EQ(decoded->updates, txn.updates);
  EXPECT_EQ(decoded->antecedents, txn.antecedents);
  EXPECT_EQ(EncodedTransactionSize(txn), buf.size());
}

TEST_F(UpdateTest, TransactionWithNoEpochRoundTrips) {
  Transaction txn = Txn(1, 0, {Ins("rat", "p1", "x", 1)});
  txn.epoch = kNoEpoch;
  std::string buf;
  EncodeTransaction(&buf, txn);
  size_t pos = 0;
  EXPECT_EQ(DecodeTransaction(buf, &pos)->epoch, kNoEpoch);
}

TEST(TransactionMapTest, PutGetContains) {
  TransactionMap map;
  EXPECT_FALSE(map.Contains({1, 0}));
  EXPECT_TRUE(map.Get({1, 0}).status().IsNotFound());
  map.Put(Txn(1, 0, {Ins("rat", "p1", "x", 1)}));
  ASSERT_TRUE(map.Contains({1, 0}));
  auto txn = map.Get({1, 0});
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ((*txn)->id, (TransactionId{1, 0}));
  EXPECT_EQ(map.size(), 1u);
}

TEST_F(UpdateTest, TransactionToStringListsUpdatesAndAntecedents) {
  Transaction txn =
      Txn(3, 1, {Ins("rat", "p1", "x", 3)}, {{3, 0}});
  const std::string s = txn.ToString();
  EXPECT_NE(s.find("X3:1"), std::string::npos);
  EXPECT_NE(s.find("ante{X3:0}"), std::string::npos);
}

}  // namespace
}  // namespace orchestra::core
