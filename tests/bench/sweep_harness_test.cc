// The sweep harness behind `orch_sweep`: its JSON writer, its baseline
// matcher, its `exercised` gate and the CLI's usage exit status.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "sweep_harness.h"

namespace orchestra::bench {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("sweep_harness_test_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

// Exit status of a shell command, or -1 if it did not exit normally.
int ExitStatus(const std::string& command) {
  const int raw = std::system(command.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

bool HaveJq() { return ExitStatus("command -v jq >/dev/null 2>&1") == 0; }

Leg CentralLeg() {
  Leg leg;
  leg.config.participants = 10;
  leg.config.rounds = 3;
  leg.config.store = sim::StoreKind::kCentral;
  return leg;
}

TEST(SweepJsonTest, WritesValidJsonWithPerFieldPrecisionAndEscaping) {
  Json j;
  j.Begin('{', true).Field("bench", "harness");
  j.Field("state_ratio", 1.0 / 3.0, 6).Field("ok", true).Field("n", 42);
  j.Field("error", "said \"no\" \\ then\nstopped");
  j.Field("per_pair", std::vector<double>{2.5, 3.0}, 2);
  j.Key("runs").Begin('[', true);
  j.Begin('{').Field("seed", 1).Field("rounds", std::vector<int64_t>{4, 5});
  j.Close().Begin('{').Field("seed", 2).Close();
  j.Close().Close();

  const std::string& text = j.text();
  EXPECT_NE(text.find("\"state_ratio\": 0.333333,"), std::string::npos)
      << text;
  EXPECT_NE(text.find(R"("said \"no\" \\ then\u000astopped")"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"per_pair\": [2.50, 3.00]"), std::string::npos);
  EXPECT_NE(text.find("{\"seed\": 1, \"rounds\": [4, 5]},\n"),
            std::string::npos)
      << text;

  const std::string path = TempPath("doc.json");
  ASSERT_TRUE(j.WriteTo(path));
  if (!HaveJq()) {
    std::remove(path.c_str());
    GTEST_SKIP() << "jq not installed";
  }
  const std::string query =
      ".state_ratio == 0.333333 and .ok and .n == 42 and"
      " .error == \"said \\\"no\\\" \\\\ then\\nstopped\" and"
      " .per_pair == [2.5, 3] and (.runs | length) == 2 and"
      " .runs[0].rounds == [4, 5]";
  EXPECT_EQ(ExitStatus("jq -e '" + query + "' " + path + " >/dev/null"), 0)
      << text;
  std::remove(path.c_str());
}

TEST(SweepJsonTest, WriteToReportsAnUnwritablePath) {
  Json j;
  j.Begin('{').Close();
  EXPECT_FALSE(j.WriteTo(TempPath("missing_dir") + "/doc.json"));
}

TEST(SweepLegTest, MatcherSeesIdenticalRunsAndDifferentTrust) {
  Leg a = CentralLeg(), b = CentralLeg(), tiered = CentralLeg();
  tiered.config.topology = sim::TrustTopology::kTiered;
  for (Leg* leg : {&a, &b, &tiered}) {
    RunLeg(*leg);
    ASSERT_TRUE(leg->ok) << leg->error;
    ASSERT_EQ(leg->peers.size(), 10u);
  }
  EXPECT_TRUE(Matches(a, b));
  EXPECT_FALSE(Matches(a, tiered));
  EXPECT_FALSE(Matches(tiered, a));

  // One peer missing one decision diverges even at the same state ratio.
  Leg altered = a;
  ASSERT_FALSE(altered.peers[3].applied.empty());
  altered.peers[3].applied.pop_back();
  EXPECT_FALSE(Matches(a, altered));
}

TEST(SweepLegTest, FailedLegNeverMatches) {
  Leg bad = CentralLeg();
  bad.config.churn.enabled = true;  // Cdss::Make rejects churn off the DHT
  RunLeg(bad);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_FALSE(Matches(bad, bad));
}

TEST(SweepLegTest, SeededLegThatInjectsNothingFailsExercisedGate) {
  Leg silent = CentralLeg();
  silent.seed = 7;
  silent.config.fault.seed = 7;
  silent.config.fault.failure_probability = 0;
  RunLeg(silent);
  ASSERT_TRUE(silent.ok) << silent.error;
  EXPECT_FALSE(Exercised(silent));

  Leg faulted = CentralLeg();
  faulted.seed = 7;
  faulted.config.fault.seed = 7;
  faulted.config.fault.failure_probability = 0.01;
  RunLeg(faulted);
  ASSERT_TRUE(faulted.ok) << faulted.error;
  EXPECT_TRUE(Exercised(faulted));
}

TEST(OrchSweepCliTest, UnknownSweepExitsTwo) {
  EXPECT_EQ(ExitStatus(std::string(ORCH_SWEEP_BIN) + " bogus " +
                       TempPath("bogus.json") + " 2>/dev/null"),
            2);
  EXPECT_EQ(ExitStatus(std::string(ORCH_SWEEP_BIN) + " 2>/dev/null"), 2);
}

}  // namespace
}  // namespace orchestra::bench
