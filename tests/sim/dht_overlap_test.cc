// The scatter-gather DHT client, checked on the simulated timeline of a
// traced confederation: overlapped phases still respect every reply they
// wait for, and overlapping moves only time, never a message or a byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/trace_check.h"
#include "sim/cdss.h"

namespace orchestra::sim {
namespace {

CdssConfig TieredDhtConfig() {
  CdssConfig cfg;
  cfg.participants = 8;
  cfg.store = StoreKind::kDht;
  cfg.topology = TrustTopology::kTiered;
  cfg.txns_between_recons = 2;
  cfg.rounds = 6;
  cfg.seed = 42;
  return cfg;
}

TEST(DhtOverlapTest, PhasesWaitForTheRepliesTheyNeed) {
  CdssConfig cfg = TieredDhtConfig();
  // Uniform trust defers every conflict, and later transactions name
  // those deferred transactions as antecedents. The peer has decided
  // nothing about them, so the decided overlay cannot skip them and the
  // fetch still needs a second, chained BFS level to ask for them.
  // (Under tiered trust the only antecedents left were ones the peer
  // had rejected and holds, which the overlay now skips.)
  cfg.topology = TrustTopology::kUniform;
  cfg.sim_trace = true;
  auto cdss = Cdss::Make(cfg);
  ASSERT_TRUE(cdss.ok()) << cdss.status().ToString();
  auto result = (*cdss)->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<testing::ParsedEvent> events =
      testing::ParseEvents((*cdss)->sim_tracer()->ToJson());
  ASSERT_TRUE(testing::SpansNestPerTrack(events));

  // Per peer track, walked in record order. RecordDecisions runs inside
  // the participant's reconcile.record_decisions span as one concurrent
  // phase: the completion witness and the per-owner multi-puts all
  // travel in the dht.record.puts overlap, which fills the whole
  // recording; the witness has no dht.record.witness phase of its own.
  // The witness also carries the watermark, so from the end of the
  // epoch scan to the puts, nothing but the BFS levels may send: the
  // fetch has no sequential tail trip.
  struct Track {
    bool open = false;              // inside a puts or level overlap
    long long open_max_recv = -1;   // latest reply inside it
    std::vector<long long> open_sends;
    bool in_record = false;         // inside reconcile.record_decisions
    long long record_begin = -1;
    int puts_in_record = 0;
    long long puts_begin = -1;
    long long puts_end = -1;
    long long level_max_recv = -1;  // the previous BFS level's last reply
    bool fetch_tail = false;        // past the epoch scan, before the puts
  };
  std::map<long, Track> tracks;
  int recordings = 0;
  int chained_levels = 0;
  int parallel_puts = 0;
  int fetch_tails = 0;
  for (const testing::ParsedEvent& e : events) {
    Track& t = tracks[e.tid];
    EXPECT_NE(e.name, "dht.record.witness")
        << "peer " << e.tid << ": the witness left the recording overlap";
    const bool puts = e.name == "dht.record.puts";
    const bool level = e.name == "dht.fetch.level";
    if (e.name == "dht.fetch.head") t.level_max_recv = -1;  // a new fetch
    if (e.name == "dht.fetch.scan" && e.phase == 'E') t.fetch_tail = true;
    if (puts && e.phase == 'B' && t.fetch_tail) {
      t.fetch_tail = false;
      ++fetch_tails;
    }
    if (e.name == "reconcile.record_decisions") {
      if (e.phase == 'B') {
        t.in_record = true;
        t.record_begin = e.ts;
        t.puts_in_record = 0;
      } else {
        // The recording lasts exactly as long as its one overlap.
        EXPECT_EQ(t.puts_in_record, 1) << "peer " << e.tid;
        EXPECT_EQ(t.puts_begin, t.record_begin) << "peer " << e.tid;
        EXPECT_EQ(t.puts_end, e.ts) << "peer " << e.tid;
        t.in_record = false;
        ++recordings;
      }
      continue;
    }
    if ((puts || level) && e.phase == 'B') {
      t.open = true;
      t.open_max_recv = -1;
      t.open_sends.clear();
      if (puts) {
        ++t.puts_in_record;
        t.puts_begin = e.ts;
      }
      continue;
    }
    if ((puts || level) && e.phase == 'E') {
      if (level) {
        if (t.level_max_recv >= 0 && !t.open_sends.empty()) {
          EXPECT_GE(t.open_sends.front(), t.level_max_recv)
              << "peer " << e.tid << ": a BFS level sent before the "
              << "previous level's last reply arrived";
          ++chained_levels;
        }
        t.level_max_recv = t.open_max_recv;
      } else {
        t.puts_end = e.ts;
        // Even a recording with no decision sends its witness, and the
        // first message leaves with the overlap's opening.
        ASSERT_FALSE(t.open_sends.empty())
            << "peer " << e.tid << ": a recording sent no witness";
        EXPECT_EQ(t.open_sends.front(), t.puts_begin)
            << "peer " << e.tid << ": the first recording message waited";
        // Lanes leave together: two sends at one instant.
        std::sort(t.open_sends.begin(), t.open_sends.end());
        if (std::adjacent_find(t.open_sends.begin(), t.open_sends.end()) !=
            t.open_sends.end()) {
          ++parallel_puts;
        }
      }
      t.open = false;
      continue;
    }
    if (e.name == "net.send") {
      EXPECT_FALSE(t.fetch_tail && !t.open)
          << "peer " << e.tid << ": a sequential trip between the fetch's "
          << "last BFS level and its decision puts";
      EXPECT_FALSE(t.in_record && !t.open)
          << "peer " << e.tid << ": a recording message outside its "
          << "dht.record.puts overlap";
      if (t.open) t.open_sends.push_back(e.ts);
    }
    if (e.name == "net.recv" && t.open) {
      t.open_max_recv = std::max(t.open_max_recv, e.ts);
    }
  }
  // The checks above ran on real protocol traffic.
  EXPECT_GE(recordings, static_cast<int>(cfg.participants * cfg.rounds) / 2);
  EXPECT_GE(fetch_tails, static_cast<int>(cfg.participants * cfg.rounds) / 2);
  EXPECT_GT(chained_levels, 0);
  EXPECT_GT(parallel_puts, 0);

  // A recording with no decision has no put to send: its only messages
  // are the completion witness's, and they travel inside the overlap.
  // (The run is over, so which recno the witness names does not matter.)
  const core::ParticipantId peer = (*cdss)->participant(0).id();
  const int64_t messages_before = (*cdss)->store().StatsFor(peer).messages;
  ASSERT_TRUE((*cdss)->store().RecordDecisions(peer, 1, {}, {}).ok());
  EXPECT_GT((*cdss)->store().StatsFor(peer).messages, messages_before);
  const std::vector<testing::ParsedEvent> tail =
      testing::ParseEvents((*cdss)->sim_tracer()->ToJson());
  ASSERT_GT(tail.size(), events.size());
  bool in_puts = false;
  int witness_sends = 0;
  for (size_t i = events.size(); i < tail.size(); ++i) {
    const testing::ParsedEvent& e = tail[i];
    ASSERT_EQ(e.tid, static_cast<long>(peer));
    if (e.name == "dht.record.puts") in_puts = e.phase == 'B';
    if (e.name == "net.send") {
      EXPECT_TRUE(in_puts) << "a witness message outside dht.record.puts";
      ++witness_sends;
    }
  }
  EXPECT_GT(witness_sends, 0);
}

// A publish (Fig. 6) runs steps 1-4 one after another, then one
// concurrent phase: the epoch's id list (5) leaves first, beside the
// transaction stores and their acks (6), and the commit (7) waits for
// every reply of that phase.
TEST(DhtOverlapTest, PublishSendsItsIdListBesideTheStores) {
  CdssConfig cfg = TieredDhtConfig();
  cfg.sim_trace = true;
  auto cdss = Cdss::Make(cfg);
  ASSERT_TRUE(cdss.ok()) << cdss.status().ToString();
  auto result = (*cdss)->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<testing::ParsedEvent> events =
      testing::ParseEvents((*cdss)->sim_tracer()->ToJson());
  ASSERT_TRUE(testing::SpansNestPerTrack(events));

  // Per peer track, walked in record order. Step (3), the controller's
  // 8-byte confirmation to the allocator, is the publish's only 8-byte
  // send before its stores (this run has no churn, so no failed probe);
  // the allocator's 16-byte begin-publishing reply (4) follows it.
  struct Track {
    bool in_publish = false;  // inside participant.publish
    std::vector<long long> sends_before;  // bytes, before the store phase
    int stores = 0;           // dht.publish.store overlaps in the publish
    bool in_store = false;
    long long store_begin = -1;
    long long store_max_recv = -1;
    std::vector<long long> store_sends;
    bool awaiting_commit = false;  // the store phase closed, no send yet
  };
  std::map<long, Track> tracks;
  int publishes = 0;
  int commits = 0;
  for (const testing::ParsedEvent& e : events) {
    Track& t = tracks[e.tid];
    if (e.name == "participant.publish") {
      if (e.phase == 'B') {
        t = Track{};
        t.in_publish = true;
      } else {
        EXPECT_EQ(t.stores, 1) << "peer " << e.tid;
        t.in_publish = false;
        ++publishes;
      }
      continue;
    }
    if (!t.in_publish) continue;
    if (e.name == "dht.publish.store") {
      if (e.phase == 'B') {
        ++t.stores;
        t.in_store = true;
        t.store_begin = e.ts;
        // Nothing is sent between the begin-publishing reply and the
        // store phase: the id list no longer goes on its own.
        const size_t n = t.sends_before.size();
        ASSERT_GE(n, 2u) << "peer " << e.tid;
        EXPECT_EQ(t.sends_before[n - 2], 8) << "peer " << e.tid;
        EXPECT_EQ(t.sends_before[n - 1], 16)
            << "peer " << e.tid << ": a send between the allocator's "
            << "begin-publishing reply and the store phase";
      } else {
        t.in_store = false;
        t.awaiting_commit = true;
        ASSERT_FALSE(t.store_sends.empty()) << "peer " << e.tid;
        EXPECT_EQ(t.store_sends.front(), t.store_begin)
            << "peer " << e.tid << ": the first publish message waited";
        std::sort(t.store_sends.begin(), t.store_sends.end());
        EXPECT_NE(std::adjacent_find(t.store_sends.begin(),
                                     t.store_sends.end()),
                  t.store_sends.end())
            << "peer " << e.tid << ": no two publish messages left together";
      }
      continue;
    }
    if (e.name == "net.send") {
      if (t.in_store) {
        t.store_sends.push_back(e.ts);
      } else if (t.awaiting_commit) {
        EXPECT_GE(e.ts, t.store_max_recv)
            << "peer " << e.tid << ": the commit left before a reply of "
            << "the store phase arrived";
        t.awaiting_commit = false;
        ++commits;
      } else if (t.stores == 0) {
        t.sends_before.push_back(e.bytes);
      }
    }
    if (e.name == "net.recv" && t.in_store) {
      t.store_max_recv = std::max(t.store_max_recv, e.ts);
    }
  }
  // The checks above ran on real protocol traffic.
  EXPECT_GE(publishes, static_cast<int>(cfg.participants * cfg.rounds) / 2);
  EXPECT_EQ(commits, publishes);
}

// Per-peer message and byte counts of this seeded run. Overlapping moves
// only the peers' clocks, so these are also what a stop-and-wait client
// sending the same lookups is charged. Five peers count less than before
// the decided overlay skipped antecedents the peer rejected and holds:
// messages were {577, 582, 619, 630, 509, 589, 612, 619} and bytes
// {59866, 59657, 60159, 61212, 59593, 60845, 64359, 59916}. Every peer
// counts less again since the completion witness carries the watermark
// and the fetch's own watermark commit and its ack are gone: messages
// were {572, 582, 619, 630, 507, 577, 603, 599} and bytes {59647, 59657,
// 60159, 61212, 59437, 60235, 63821, 59012}.
//
// The overlapped time, the one count here that overlapping may move, is
// pinned too. Every peer's drops since a publish's epoch id list travels
// beside its transaction stores instead of before them, while messages,
// bytes and wire time stay as they were: it was {108658, 116609, 118311,
// 121471, 107802, 107719, 115065, 107692}.
//
// Bytes, wire time and overlapped time all drop, and messages stay, since
// the compact transaction codec writes each repeated string once per
// transaction and leaves out update origins equal to the transaction's.
// Under the per-update codec bytes were {59023, 58889, 59391, 60444,
// 59101, 59611, 63197, 58244}, wire time {275409, 277403, 295931, 301501,
// 248955, 277956, 291216, 285815} and overlapped time {99604, 107555,
// 108124, 112417, 99754, 98162, 107017, 99604}.
TEST(DhtOverlapTest, MessageCountsMatchStopAndWait) {
  auto cdss = Cdss::Make(TieredDhtConfig());
  ASSERT_TRUE(cdss.ok()) << cdss.status().ToString();
  auto result = (*cdss)->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<int64_t> kMessages = {542, 546, 583, 594,
                                          489, 547, 573, 563};
  const std::vector<int64_t> kBytes = {40247, 40991, 42076, 43086,
                                       40302, 41669, 43740, 41268};
  const std::vector<int64_t> kWireMicros = {273909, 275982, 294551, 300094,
                                            247458, 276521, 289657, 284466};
  const std::vector<int64_t> kNetworkMicros = {99001,  107124, 107652, 111920,
                                               99279,  97768,  106418, 99102};
  std::vector<int64_t> messages;
  std::vector<int64_t> bytes;
  std::vector<int64_t> wire_micros;
  std::vector<int64_t> network_micros;
  for (size_t i = 0; i < (*cdss)->participant_count(); ++i) {
    const core::StoreStats stats =
        (*cdss)->store().StatsFor((*cdss)->participant(i).id());
    messages.push_back(stats.messages);
    bytes.push_back(stats.bytes);
    wire_micros.push_back(stats.wire_micros);
    network_micros.push_back(stats.sim_network_micros);
  }
  EXPECT_EQ(messages, kMessages);
  EXPECT_EQ(bytes, kBytes);
  EXPECT_EQ(wire_micros, kWireMicros);
  EXPECT_EQ(network_micros, kNetworkMicros);
}

}  // namespace
}  // namespace orchestra::sim
