// The three workloads. Each builds the real stack over loopback TCP with
// shipped defaults, times its set-up several times, drives closed-loop
// load, verifies every response, and fills the report. The request mixes are
// pure functions of (seed, connection) so the self-tests can pin them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "driver.hpp"

namespace perfbench {

/// Zipf(s) over ranks [0, n): rank 0 is the hottest.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t Draw(ofmf::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// A deterministic permutation of [0, n) drawn from `seed`.
std::vector<std::size_t> Permutation(std::size_t n, std::uint64_t seed);

// ------------------------------------------------------------ poll_read ----

/// The poll_read inventory: every URI the four fabricsim agents publish that
/// the mix reads, in a fixed order.
struct PollInventory {
  std::vector<std::string> leaves;     // endpoints, volumes, storage pools
  std::vector<std::string> endpoints;  // PATCH targets (subset of leaves)
  std::string query_collection;        // the ~1k-member CXL Endpoints
  std::size_t queried_endpoints = 0;   // endpoints[0, n) are its members
  std::vector<std::string> queries;    // "?$filter=...&$select=..." suffixes
  std::vector<long long> query_counts; // expected Members@odata.count

  static PollInventory Build();
};

enum PollKind { kLeafGet = 0, kQueryGet = 1, kConditionalGet = 2, kLeafPatch = 3 };

/// The poll_read mix for one connection: ~75% Zipf leaf GETs, ~10%
/// $filter/$select collection GETs, ~10% conditional GETs, ~5% PATCHes.
/// Auth and If-None-Match headers are added by the workload at send time.
class PollMix {
 public:
  PollMix(const PollInventory& inventory, std::uint64_t seed, std::size_t conn);
  Op Next();

  /// About 2% of query GETs then miss the response cache (the eight cached
  /// query bodies are dropped once per ~400 queries): the median and 90th
  /// percentile query are hits for every seed and the 99th a miss, and the
  /// ~1088-member filter a miss costs stays off most requests' path.
  static constexpr std::uint64_t kQueriedPatchOneIn = 200;

 private:
  const PollInventory& inventory_;
  ofmf::Rng rng_;
  ZipfSampler leaf_zipf_;
  std::vector<std::size_t> leaf_order_;
  std::uint64_t patches_ = 0;
};

// ------------------------------------------------------- federated_read ----

struct FedInventory {
  std::vector<std::string> fabric_leaves;  // ring-forwarded fabric endpoints
  std::vector<std::string> blocks;         // ResourceBlock members
  long long blocks_total = 0;              // sum of shard-local block counts
};

enum FedKind { kFabricGet = 0, kBlockGet = 1, kAggregateGet = 2, kFabricPatch = 3 };

/// The federated_read mix: ~67% fabric leaf GETs, ~10% ResourceBlock member
/// GETs, ~20% aggregated ResourceBlocks GETs, ~3% fabric leaf PATCHes.
class FedMix {
 public:
  FedMix(const FedInventory& inventory, std::uint64_t seed, std::size_t conn);
  Op Next();

 private:
  const FedInventory& inventory_;
  ofmf::Rng rng_;
  ZipfSampler leaf_zipf_;
  std::vector<std::size_t> leaf_order_;
  std::uint64_t patches_ = 0;
};

// -------------------------------------------------------- compose_churn ----

/// One job a launcher composes: what it asks for, from its own rack.
struct JobPlan {
  int cores = 0;
  double memory_gib = 0.0;
  double storage_gib = 0.0;
  std::string subsystem_nqn;
};

/// The job sequence of one launcher (a pure function of seed and launcher).
class JobMix {
 public:
  JobMix(std::uint64_t seed, std::size_t launcher);
  JobPlan Next();

  static constexpr int kSubsystems = 4;
  static std::string SubsystemNqn(int index);

 private:
  ofmf::Rng rng_;
};

void RunPollRead(const Options& options, Report& report);
void RunComposeChurn(const Options& options, Report& report);
void RunFederatedRead(const Options& options, Report& report);

}  // namespace perfbench
