// The scatter-gather DHT client, checked on the simulated timeline of a
// traced confederation: overlapped phases still respect every reply they
// wait for, and overlapping moves only time, never a message or a byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/trace_check.h"
#include "sim/cdss.h"
#include "workload/swissprot.h"

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

// A publish (Fig. 6) asks the allocator for an epoch (1), then runs one
// concurrent phase, dht.publish.begin, of two lanes: the controller's
// begin-epoch exchange (2)+(3), and the allocator's begin-publishing
// reply (4) followed by the store phase, in which the epoch's id list
// (5) leaves first, beside the transaction stores and their acks (6).
// The commit (7) waits for every reply of both lanes.
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

  // Per peer track, walked in record order, where each send is followed
  // by its receive. In the begin phase, before the store phase, the sends
  // are (2) (a routed send of 16 bytes a hop, then its replica fan-out),
  // (3), the controller's 8-byte confirmation to the allocator, and (4),
  // the allocator's 16-byte begin-publishing reply. This run has no
  // churn, so no failed probe adds a send, and (3) is the only 8-byte
  // send.
  struct Track {
    bool in_publish = false;  // inside participant.publish
    int sends_before = 0;     // sends before the begin phase
    int begins = 0;           // dht.publish.begin overlaps in the publish
    int stores = 0;           // dht.publish.store overlaps in the publish
    bool in_begin = false;
    long long begin_ts = -1;
    long long begin_max_recv = -1;
    std::vector<std::pair<long long, long long>> begin_sends;  // ts, bytes
    long long last_recv = -1;     // the receive of the latest send
    long long confirm_recv = -1;  // (3)'s receive
    bool in_store = false;
    long long store_begin = -1;
    std::vector<long long> store_sends;
    bool awaiting_commit = false;  // the begin phase closed, no send yet
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
        EXPECT_EQ(t.begins, 1) << "peer " << e.tid;
        EXPECT_EQ(t.stores, 1) << "peer " << e.tid;
        t.in_publish = false;
        ++publishes;
      }
      continue;
    }
    if (!t.in_publish) continue;
    if (e.name == "dht.publish.begin") {
      if (e.phase == 'B') {
        ++t.begins;
        t.in_begin = true;
        t.begin_ts = e.ts;
        // The epoch request (1) goes before the phase.
        EXPECT_GE(t.sends_before, 1) << "peer " << e.tid;
      } else {
        t.in_begin = false;
        t.awaiting_commit = true;
      }
      continue;
    }
    if (e.name == "dht.publish.store") {
      if (e.phase == 'B') {
        ++t.stores;
        EXPECT_TRUE(t.in_begin) << "peer " << e.tid;
        t.in_store = true;
        t.store_begin = e.ts;
        const size_t n = t.begin_sends.size();
        ASSERT_GE(n, 3u) << "peer " << e.tid;
        // (2) and (4) leave together, as the phase opens.
        EXPECT_EQ(t.begin_sends.front().first, t.begin_ts)
            << "peer " << e.tid;
        EXPECT_EQ(t.begin_sends[n - 1].second, 16) << "peer " << e.tid;
        EXPECT_EQ(t.begin_sends[n - 1].first, t.begin_ts)
            << "peer " << e.tid << ": the begin-publishing reply waited "
            << "for the begin-epoch exchange";
        EXPECT_EQ(t.begin_sends[n - 2].second, 8) << "peer " << e.tid;
        // (5) and (6) leave before (3) is received.
        EXPECT_LT(t.store_begin, t.confirm_recv)
            << "peer " << e.tid << ": the stores waited for the "
            << "controller's confirmation";
      } else {
        t.in_store = false;
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
      } else if (t.in_begin) {
        t.begin_sends.emplace_back(e.ts, e.bytes);
      } else if (t.awaiting_commit) {
        EXPECT_GE(e.ts, t.begin_max_recv)
            << "peer " << e.tid << ": the commit left before a reply of "
            << "the begin phase arrived";
        t.awaiting_commit = false;
        ++commits;
      } else if (t.begins == 0) {
        ++t.sends_before;
      }
    }
    if (e.name == "net.recv") {
      t.last_recv = e.ts;
      if (t.in_begin) {
        t.begin_max_recv = std::max(t.begin_max_recv, e.ts);
        if (!t.in_store && !t.begin_sends.empty() &&
            t.begin_sends.back().second == 8) {
          t.confirm_recv = e.ts;
        }
      }
    }
  }
  // The checks above ran on real protocol traffic.
  EXPECT_GE(publishes, static_cast<int>(cfg.participants * cfg.rounds) / 2);
  EXPECT_EQ(commits, publishes);
}

// The fetch head reads the allocator and the coordinator on two lanes.
// A client that holds its watermark scans the epochs on the allocator's
// lane, nested in the head, before the coordinator's reply arrives. An
// incarnation's first fetch holds none: it scans only once that reply
// arrived, and so does the first fetch after RecoverFromStore.
TEST(DhtOverlapTest, EpochScanWaitsOnlyForTheAllocator) {
  CdssConfig cfg = TieredDhtConfig();
  cfg.sim_trace = true;
  auto cdss = Cdss::Make(cfg);
  ASSERT_TRUE(cdss.ok()) << cdss.status().ToString();
  auto result = (*cdss)->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Per peer track, walked in record order, where each send is followed
  // by its receive. The head's sends are the allocator's request (none
  // when the peer's node owns the allocator key) and reply on lane 0,
  // then the coordinator's routed request, its replica fan-out and its
  // reply on lane 1. Both lanes start as the head opens, so the second
  // send stamped with the head's opening starts lane 1, and the latest
  // receive in the head before the scan opens is lane 1's last.
  struct Fetch {
    bool nested = false;            // the scan opened inside the head
    long long allocator_recv = -1;  // the allocator's reply arrived
    long long coord_recv = -1;      // the coordinator lane's last receive
    long long first_scan_send = -1;
  };
  struct Track {
    bool in_head = false;
    bool in_scan = false;
    long long head_begin = -1;
    int lanes_started = 0;     // head sends stamped with the head's opening
    long long head_recv = -1;  // latest receive in the head, before the scan
    Fetch fetch;
    std::vector<Fetch> fetches;
  };
  const auto walk = [](const std::vector<testing::ParsedEvent>& events,
                       size_t from, std::map<long, Track>* tracks) {
    for (size_t i = from; i < events.size(); ++i) {
      const testing::ParsedEvent& e = events[i];
      Track& t = (*tracks)[e.tid];
      if (e.name == "dht.fetch.head") {
        if (e.phase == 'B') {
          t.in_head = true;
          t.head_begin = e.ts;
          t.lanes_started = 0;
          t.head_recv = -1;
          t.fetch = Fetch{};
        } else {
          t.in_head = false;
        }
        continue;
      }
      if (e.name == "dht.fetch.scan") {
        if (e.phase == 'B') {
          t.in_scan = true;
          t.fetch.nested = t.in_head;
          t.fetch.coord_recv = t.head_recv;
        } else {
          t.in_scan = false;
          t.fetches.push_back(t.fetch);
        }
        continue;
      }
      if (e.name == "net.send") {
        if (t.in_scan && t.fetch.first_scan_send < 0) {
          t.fetch.first_scan_send = e.ts;
        } else if (t.in_head && !t.in_scan && e.ts == t.head_begin) {
          ++t.lanes_started;
        }
      }
      if (e.name == "net.recv" && t.in_head && !t.in_scan) {
        t.head_recv = std::max(t.head_recv, e.ts);
        if (t.lanes_started == 1) t.fetch.allocator_recv = e.ts;
      }
    }
  };
  const std::vector<testing::ParsedEvent> events =
      testing::ParseEvents((*cdss)->sim_tracer()->ToJson());
  ASSERT_TRUE(testing::SpansNestPerTrack(events));
  std::map<long, Track> tracks;
  walk(events, 0, &tracks);
  int early = 0;
  int before_coordinator = 0;
  for (size_t i = 0; i < (*cdss)->participant_count(); ++i) {
    const core::ParticipantId peer = (*cdss)->participant(i).id();
    const std::vector<Fetch>& fetches = tracks[peer].fetches;
    ASSERT_EQ(fetches.size(), cfg.rounds) << "peer " << peer;
    for (size_t k = 0; k < fetches.size(); ++k) {
      const Fetch& f = fetches[k];
      // Only the incarnation's first fetch waits for the coordinator.
      EXPECT_EQ(f.nested, k > 0) << "peer " << peer << " fetch " << k;
      if (f.first_scan_send < 0) continue;  // no new epoch to scan
      if (f.nested) {
        // The scan leaves as the allocator's reply arrives, however long
        // the coordinator's lane runs.
        EXPECT_EQ(f.first_scan_send, f.allocator_recv)
            << "peer " << peer << " fetch " << k;
        EXPECT_LE(f.first_scan_send, f.coord_recv)
            << "peer " << peer << " fetch " << k;
        ++early;
        if (f.first_scan_send < f.coord_recv) ++before_coordinator;
      } else {
        EXPECT_GE(f.first_scan_send, f.coord_recv)
            << "peer " << peer << " fetch " << k;
      }
    }
  }
  EXPECT_GE(early, static_cast<int>(cfg.participants * (cfg.rounds - 1)) / 2);
  // The first scan send precedes the coordinator lane's last receive
  // wherever that lane is the longer one.
  EXPECT_GE(before_coordinator, early / 2);

  // A recovered peer is a new incarnation: its first fetch reads the
  // watermark from the coordinator's reply, and its second scans early
  // again.
  core::Participant& lost = (*cdss)->participant(0);
  auto catalog = workload::MakeSwissProtCatalog();
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  auto recovered = core::Participant::RecoverFromStore(
      lost.id(), &*catalog, lost.policy(), &(*cdss)->store());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  for (int round = 0; round < 2; ++round) {
    auto report = (*recovered)->Reconcile(&(*cdss)->store());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  const std::vector<testing::ParsedEvent> tail =
      testing::ParseEvents((*cdss)->sim_tracer()->ToJson());
  std::map<long, Track> after;
  walk(tail, events.size(), &after);
  const std::vector<Fetch>& fetches = after[lost.id()].fetches;
  ASSERT_EQ(fetches.size(), 2u);
  EXPECT_FALSE(fetches[0].nested);
  EXPECT_GE(fetches[0].first_scan_send, fetches[0].coord_recv);
  EXPECT_TRUE(fetches[1].nested);
}

// Within a BFS level, each owner streams its answers message and its
// payload frames back together, on two lanes of a dht.fetch.reply
// overlap inside the owner's lane.
TEST(DhtOverlapTest, LevelPayloadLeavesWithItsAnswers) {
  CdssConfig cfg = TieredDhtConfig();
  cfg.sim_trace = true;
  auto cdss = Cdss::Make(cfg);
  ASSERT_TRUE(cdss.ok()) << cdss.status().ToString();
  auto result = (*cdss)->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<testing::ParsedEvent> events =
      testing::ParseEvents((*cdss)->sim_tracer()->ToJson());
  ASSERT_TRUE(testing::SpansNestPerTrack(events));

  struct Track {
    bool in_level = false;
    bool in_reply = false;
    long long reply_begin = -1;
    std::vector<long long> reply_sends;
  };
  std::map<long, Track> tracks;
  int replies = 0;
  int with_payload = 0;
  for (const testing::ParsedEvent& e : events) {
    Track& t = tracks[e.tid];
    if (e.name == "dht.fetch.level") t.in_level = e.phase == 'B';
    if (e.name == "dht.fetch.reply") {
      if (e.phase == 'B') {
        EXPECT_TRUE(t.in_level) << "peer " << e.tid;
        t.in_reply = true;
        t.reply_begin = e.ts;
        t.reply_sends.clear();
        continue;
      }
      t.in_reply = false;
      ++replies;
      // The answers message, and the payload when anything shipped.
      ASSERT_GE(t.reply_sends.size(), 1u) << "peer " << e.tid;
      ASSERT_LE(t.reply_sends.size(), 2u) << "peer " << e.tid;
      for (long long sent : t.reply_sends) {
        EXPECT_EQ(sent, t.reply_begin)
            << "peer " << e.tid << ": a level reply waited for another";
      }
      if (t.reply_sends.size() == 2) ++with_payload;
      continue;
    }
    if (e.name == "net.send" && t.in_reply) t.reply_sends.push_back(e.ts);
  }
  // The checks above ran on real protocol traffic.
  EXPECT_GE(replies, with_payload);
  EXPECT_GT(with_payload, 0);
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
//
// Only the overlapped time drops, since three chains stopped waiting for
// replies whose content the next message does not use: a publish's
// begin-publishing reply (4) leaves beside the begin-epoch exchange
// (2)+(3), a client holding its watermark scans the epochs once the
// allocator replied, and a BFS level's payload streams back beside its
// answers. Messages, bytes and wire time stay as they were; overlapped
// time was {99001, 107124, 107652, 111920, 99279, 97768, 106418, 99102}.
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
  const std::vector<int64_t> kNetworkMicros = {81465, 90584, 92080, 91881,
                                               84255, 81739, 91346, 74048};
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
