// Self-tests of the benchmark itself: generated request sequences are pure
// functions of the seed, reported tails rest on enough samples and print
// their counts, and a corrupted response counts as failed, never as timed.
//
//   cmake --build .bench_build --target perfbench_selftest && .bench_build/perfbench_selftest
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench.hpp"
#include "driver.hpp"
#include "http/server.hpp"
#include "json/serialize.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::string Describe(const Op& op) {
  return std::string(ofmf::http::to_string(op.method)) + " " + op.target + " " +
         std::to_string(op.kind) + " " + op.body;
}

std::vector<std::string> PollSequence(const PollInventory& inventory, std::uint64_t seed,
                                      std::size_t conn) {
  PollMix mix(inventory, seed, conn);
  std::vector<std::string> ops;
  for (int i = 0; i < 2000; ++i) ops.push_back(Describe(mix.Next()));
  return ops;
}

FedInventory SyntheticFedInventory() {
  FedInventory inventory;
  for (int i = 0; i < 512; ++i) {
    inventory.fabric_leaves.push_back("/redfish/v1/Fabrics/fab" + std::to_string(i % 16) +
                                      "/Endpoints/ep" + std::to_string(i / 16));
    inventory.blocks.push_back("/redfish/v1/CompositionService/ResourceBlocks/b" +
                               std::to_string(i));
  }
  inventory.blocks_total = 512;
  return inventory;
}

std::vector<std::string> FedSequence(const FedInventory& inventory, std::uint64_t seed) {
  FedMix mix(inventory, seed, 1);
  std::vector<std::string> ops;
  for (int i = 0; i < 2000; ++i) ops.push_back(Describe(mix.Next()));
  return ops;
}

std::vector<std::string> JobSequence(std::uint64_t seed) {
  JobMix mix(seed, 2);
  std::vector<std::string> jobs;
  for (int i = 0; i < 500; ++i) {
    const JobPlan plan = mix.Next();
    jobs.push_back(std::to_string(plan.cores) + " " + std::to_string(plan.memory_gib) + " " +
                   std::to_string(plan.storage_gib) + " " + plan.subsystem_nqn);
  }
  return jobs;
}

TEST(Sequences, PollMixIsAPureFunctionOfTheSeed) {
  const PollInventory inventory = PollInventory::Build();
  EXPECT_EQ(PollSequence(inventory, 7, 0), PollSequence(inventory, 7, 0));
  EXPECT_NE(PollSequence(inventory, 7, 0), PollSequence(inventory, 8, 0));
  EXPECT_NE(PollSequence(inventory, 7, 0), PollSequence(inventory, 7, 1));
}

TEST(Sequences, PollMixHasItsStatedShares) {
  const PollInventory inventory = PollInventory::Build();
  PollMix mix(inventory, 3, 0);
  int kinds[4] = {0, 0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++kinds[mix.Next().kind];
  EXPECT_NEAR(kinds[kLeafGet] / 20000.0, 0.75, 0.02);
  EXPECT_NEAR(kinds[kQueryGet] / 20000.0, 0.10, 0.02);
  EXPECT_NEAR(kinds[kConditionalGet] / 20000.0, 0.10, 0.02);
  EXPECT_NEAR(kinds[kLeafPatch] / 20000.0, 0.05, 0.01);
}

TEST(Sequences, FedMixIsAPureFunctionOfTheSeed) {
  const FedInventory inventory = SyntheticFedInventory();
  EXPECT_EQ(FedSequence(inventory, 11), FedSequence(inventory, 11));
  EXPECT_NE(FedSequence(inventory, 11), FedSequence(inventory, 12));
}

TEST(Sequences, JobMixIsAPureFunctionOfTheSeed) {
  EXPECT_EQ(JobSequence(5), JobSequence(5));
  EXPECT_NE(JobSequence(5), JobSequence(6));
}

TEST(Tails, HighPercentileNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(TailSupported(999, 99.0));
  EXPECT_TRUE(TailSupported(1000, 99.0));
  EXPECT_FALSE(TailSupported(99, 90.0));
  EXPECT_TRUE(TailSupported(100, 90.0));
}

std::vector<Timed> Ramp(std::size_t n) {
  std::vector<Timed> samples;
  for (std::size_t i = 0; i < n; ++i) samples.push_back(Timed{i * 1000, 1.0 + i % 100});
  return samples;
}

/// Fills in every required metric the test did not set; percentile pairs get
/// ample samples so only the metric under test can fail the tail check.
void AddOtherMetrics(Report& report, const std::vector<std::string>& names, Scope scope) {
  for (const std::string& name : names) {
    if (report.has(name)) continue;
    const std::size_t p99 = name.rfind(".p99");
    if (p99 != std::string::npos) {
      report.AddLatency(scope, name.substr(0, p99) + ".p50", name, Latency{5000, 1, 2, 3}, "us");
    } else if (!report.has(name)) {
      report.Add(scope, name, 1.0, "x");
    }
  }
}

TEST(Tails, ReportPrintsSampleCounts) {
  Report report;
  report.CountOps(1, 0);
  for (const char* base : {"get", "collection", "write"}) report.AddRoundTrip(base, Ramp(5000));
  AddOtherMetrics(report, kEndToEndMetrics, Scope::kEndToEnd);
  testing::internal::CaptureStdout();
  EXPECT_EQ(report.Finish(false), 0);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("get_p90_us"), std::string::npos);
  EXPECT_NE(out.find("(n=" + std::to_string(5000 / kSlices) + ")"), std::string::npos)
      << out;  // per slice
  EXPECT_NE(out.find("(n=5000)"), std::string::npos) << out;  // whole-window p99
}

TEST(Tails, ResultLineRefusesAP99OnFewerThanATousandSamples) {
  for (const std::size_t n : {999, 1000}) {
    Report report;
    report.CountOps(1, 0);
    report.AddLatency(Scope::kLayer, "http.inbound_us.p50", "http.inbound_us.p99",
                      Latency{n, 1.0, 2.0, 3.0}, "us");
    AddOtherMetrics(report, kLayerMetrics, Scope::kLayer);
    testing::internal::CaptureStdout();
    const int code = report.Finish(true);
    const bool refused = testing::internal::GetCapturedStdout().find(
                             "FAILED CHECK: http.inbound_us.p99") != std::string::npos;
    EXPECT_EQ(refused, n < 1000);
    EXPECT_EQ(code != 0, n < 1000);
  }
}

TEST(Tails, SlicedRateOfASteadyStream) {
  std::vector<std::uint64_t> done;
  for (std::uint64_t i = 0; i <= 1000; ++i) done.push_back(i * 1'000'000);  // 1000/s for 1 s
  EXPECT_NEAR(SlicedRate(done), 1000.0, 10.0);
}

TEST(Tails, QuietQuartileIgnoresAMinorityOfSlowSlices) {
  // A steal burst halves the rate and doubles the latency of 8 slices in 20.
  std::vector<double> rates(20, 1000.0), p50s(20, 100.0);
  for (std::size_t i = 0; i < 8; ++i) {
    rates[i * 2] = 500.0;
    p50s[i * 2] = 200.0;
  }
  EXPECT_DOUBLE_EQ(QuietQuartile(rates, false), 1000.0);
  EXPECT_DOUBLE_EQ(QuietQuartile(p50s, true), 100.0);
  // A slower program moves every slice, and the figure with them.
  for (double& p50 : p50s) p50 *= 1.2;
  EXPECT_DOUBLE_EQ(QuietQuartile(p50s, true), 120.0);
}

TEST(Driver, CorruptedResponseIsFailedNotTimed) {
  ofmf::http::TcpServer server;
  ASSERT_TRUE(server
                  .Start([](const ofmf::http::Request& request) {
                    return ofmf::http::MakeJsonResponse(
                        200, ofmf::json::Json::Obj({{"@odata.id", request.path},
                                                    {"Name", "a resource of some length"}}));
                  })
                  .ok());
  DriverConfig config;
  config.port = server.port();
  config.connections = 2;
  config.deadline_ns = ~0ull;
  config.max_ops = 40;
  config.corrupt_seq = 17;
  int n = 0;
  const DriverResult result = RunClosedLoop(
      config,
      [&n](std::size_t) {
        Op op;
        op.target = "/redfish/v1/Things/" + std::to_string(n++);
        return op;
      },
      [](std::size_t, const Op& op, const ofmf::http::Response& response) {
        return CheckDocument(response, 200, op.target, nullptr);
      });
  server.Stop();
  EXPECT_EQ(result.attempted, 40u);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.samples.size(), 39u);
  for (const Sample& sample : result.samples) EXPECT_NE(sample.seq, 17u);
}

TEST(Driver, TracedRequestsCarryTheSequenceAndUntracedOnesDoNot) {
  Op op;
  op.target = "/redfish/v1";
  op.headers.emplace_back("X-Auth-Token", "t");
  EXPECT_EQ(WireRequest(op, 0).find(kBenchSeqHeader), std::string::npos);
  EXPECT_NE(WireRequest(op, 42).find(std::string(kBenchSeqHeader) + ": 42"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
