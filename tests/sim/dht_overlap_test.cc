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
  // the participant's reconcile.record_decisions span: its per-owner
  // multi-puts inside the dht.record.puts overlap, then the completion
  // witness in its own dht.record.witness phase, which must follow the
  // overlap, not ride in it. The witness also carries the watermark, so
  // from the end of the epoch scan to the puts, nothing but the BFS
  // levels may send: the fetch has no sequential tail trip.
  struct Track {
    bool open = false;              // inside a puts or level overlap
    long long open_max_recv = -1;   // latest reply inside it
    std::vector<long long> open_sends;
    bool puts_closed = false;       // inside record_decisions, puts done
    long long puts_max_recv = -1;
    bool in_witness = false;        // inside dht.record.witness
    int witness_sends = 0;
    long long level_max_recv = -1;  // the previous BFS level's last reply
    bool fetch_tail = false;        // past the epoch scan, before the puts
  };
  std::map<long, Track> tracks;
  int witnesses = 0;
  int chained_levels = 0;
  int parallel_puts = 0;
  int fetch_tails = 0;
  for (const testing::ParsedEvent& e : events) {
    Track& t = tracks[e.tid];
    const bool puts = e.name == "dht.record.puts";
    const bool level = e.name == "dht.fetch.level";
    if (e.name == "dht.fetch.head") t.level_max_recv = -1;  // a new fetch
    if (e.name == "dht.fetch.scan" && e.phase == 'E') t.fetch_tail = true;
    if (puts && e.phase == 'B' && t.fetch_tail) {
      t.fetch_tail = false;
      ++fetch_tails;
    }
    if (e.name == "reconcile.record_decisions") {
      if (e.phase == 'E' && t.puts_closed) {
        EXPECT_GT(t.witness_sends, 0)
            << "peer " << e.tid << ": no completion witness after the puts";
        ++witnesses;
      }
      t.puts_closed = false;
      t.witness_sends = 0;
      continue;
    }
    if (e.name == "dht.record.witness") {
      EXPECT_TRUE(t.puts_closed)
          << "peer " << e.tid << ": completion witness outside a "
          << "recording, or before its puts";
      t.in_witness = e.phase == 'B';
      continue;
    }
    if ((puts || level) && e.phase == 'B') {
      t.open = true;
      t.open_max_recv = -1;
      t.open_sends.clear();
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
        t.puts_closed = true;
        t.puts_max_recv = t.open_max_recv;
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
      if (t.open) {
        t.open_sends.push_back(e.ts);
      } else if (t.puts_closed) {
        EXPECT_TRUE(t.in_witness)
            << "peer " << e.tid << ": a send after the puts outside the "
            << "completion witness";
        EXPECT_GE(e.ts, t.puts_max_recv)
            << "peer " << e.tid << ": completion witness sent before "
            << "every per-owner put was acknowledged";
        ++t.witness_sends;
      }
    }
    if (e.name == "net.recv" && t.open) {
      t.open_max_recv = std::max(t.open_max_recv, e.ts);
    }
  }
  // The checks above ran on real protocol traffic.
  EXPECT_GE(witnesses, static_cast<int>(cfg.participants * cfg.rounds) / 2);
  EXPECT_GE(fetch_tails, static_cast<int>(cfg.participants * cfg.rounds) / 2);
  EXPECT_GT(chained_levels, 0);
  EXPECT_GT(parallel_puts, 0);
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
TEST(DhtOverlapTest, MessageCountsMatchStopAndWait) {
  auto cdss = Cdss::Make(TieredDhtConfig());
  ASSERT_TRUE(cdss.ok()) << cdss.status().ToString();
  auto result = (*cdss)->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<int64_t> kMessages = {542, 546, 583, 594,
                                          489, 547, 573, 563};
  const std::vector<int64_t> kBytes = {59023, 58889, 59391, 60444,
                                       59101, 59611, 63197, 58244};
  std::vector<int64_t> messages;
  std::vector<int64_t> bytes;
  for (size_t i = 0; i < (*cdss)->participant_count(); ++i) {
    const core::StoreStats stats =
        (*cdss)->store().StatsFor((*cdss)->participant(i).id());
    messages.push_back(stats.messages);
    bytes.push_back(stats.bytes);
  }
  EXPECT_EQ(messages, kMessages);
  EXPECT_EQ(bytes, kBytes);
}

}  // namespace
}  // namespace orchestra::sim
