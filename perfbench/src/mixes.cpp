// Request and job generators. Everything here is a pure function of the
// seed, the connection (or launcher) index and a fixed inventory.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

namespace http = ofmf::http;

namespace {

/// Independent stream per (seed, stream, salt): splitmix64 of the mix.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string Numbered(const char* prefix, int width, std::size_t i) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s%0*zu", prefix, width, i);
  return buffer;
}

/// Skew of the leaf popularity: the hot set fits the response cache and the
/// tail misses, without any one leaf taking more than a few percent.
constexpr double kZipfSkew = 0.9;

}  // namespace

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Draw(ofmf::Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::vector<std::size_t> Permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  ofmf::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(0, i - 1)]);
  }
  return order;
}

// ------------------------------------------------------------ poll_read ----

PollInventory PollInventory::Build() {
  PollInventory inventory;
  const auto endpoint = [&](const std::string& fabric, const std::string& name) {
    const std::string uri = "/redfish/v1/Fabrics/" + fabric + "/Endpoints/" + name;
    inventory.leaves.push_back(uri);
    inventory.endpoints.push_back(uri);
  };
  for (std::size_t i = 0; i < 1024; ++i) endpoint("CXL", Numbered("host", 4, i));
  for (std::size_t i = 0; i < 64; ++i) endpoint("CXL", Numbered("mld", 2, i));
  for (std::size_t i = 0; i < 2560; ++i) endpoint("IB", Numbered("ibn", 4, i));
  for (std::size_t i = 0; i < 2560; ++i) endpoint("Ethernet", Numbered("nic", 4, i));
  for (std::size_t i = 0; i < 512; ++i) {
    const std::string nqn = "nqn.2026-01.org.ofmf:" + Numbered("jbof", 3, i);
    endpoint("NVMeoF", nqn);
    inventory.leaves.push_back("/redfish/v1/StorageServices/NVMeoF/StoragePools/" + nqn);
    inventory.leaves.push_back("/redfish/v1/StorageServices/NVMeoF/Volumes/" + nqn + "-ns1");
  }
  inventory.query_collection = "/redfish/v1/Fabrics/CXL/Endpoints";
  inventory.queried_endpoints = 1024 + 64;
  const std::string select = "&$select=Members,Members@odata.count";
  const auto query = [&](const std::string& filter, long long count) {
    inventory.queries.push_back("?$filter=" + filter + select);
    inventory.query_counts.push_back(count);
  };
  query("EndpointRole%20eq%20%27Target%27", 64);
  query("EndpointRole%20eq%20%27Initiator%27", 1024);
  for (const std::size_t host : {7, 100, 333, 512, 777, 1000}) {
    query("Id%20eq%20%27" + Numbered("host", 4, host) + "%27", 1);
  }
  return inventory;
}

PollMix::PollMix(const PollInventory& inventory, std::uint64_t seed, std::size_t conn)
    : inventory_(inventory),
      rng_(StreamSeed(seed, conn, 0x9011)),
      leaf_zipf_(inventory.leaves.size(), kZipfSkew),
      // Every connection shares the seed's hot set; only draws differ.
      leaf_order_(Permutation(inventory.leaves.size(), StreamSeed(seed, 0, 0x1eaf))) {}

Op PollMix::Next() {
  Op op;
  const double u = rng_.NextDouble();
  if (u < 0.75) {
    op.kind = kLeafGet;
    op.target = inventory_.leaves[leaf_order_[leaf_zipf_.Draw(rng_)]];
  } else if (u < 0.85) {
    op.kind = kQueryGet;
    const std::size_t q = rng_.UniformInt(0, inventory_.queries.size() - 1);
    op.target = inventory_.query_collection + inventory_.queries[q];
  } else if (u < 0.95) {
    op.kind = kConditionalGet;
    op.target = inventory_.leaves[leaf_order_[leaf_zipf_.Draw(rng_)]];
  } else {
    op.kind = kLeafPatch;
    op.method = http::Method::kPatch;
    // One PATCH in kQueriedPatchOneIn lands in the queried collection (and
    // invalidates its cached query bodies); the rest fall uniformly on the
    // other fabrics' endpoints. Neither share depends on the seed's hot
    // set, so the cache sees the same invalidation load for every seed.
    const std::size_t queried = inventory_.queried_endpoints;
    op.target = rng_.UniformInt(1, kQueriedPatchOneIn) == 1
                    ? inventory_.endpoints[rng_.UniformInt(0, queried - 1)]
                    : inventory_.endpoints[rng_.UniformInt(queried, inventory_.endpoints.size() - 1)];
    op.body = "{\"Name\":\"polled " + std::to_string(++patches_) + "\"}";
  }
  return op;
}

// ------------------------------------------------------- federated_read ----

FedMix::FedMix(const FedInventory& inventory, std::uint64_t seed, std::size_t conn)
    : inventory_(inventory),
      rng_(StreamSeed(seed, conn, 0xfed)),
      leaf_zipf_(inventory.fabric_leaves.size(), kZipfSkew),
      leaf_order_(Permutation(inventory.fabric_leaves.size(), StreamSeed(seed, 0, 0xf1eaf))) {}

Op FedMix::Next() {
  Op op;
  const double u = rng_.NextDouble();
  if (u < 0.67) {
    op.kind = kFabricGet;
    op.target = inventory_.fabric_leaves[leaf_order_[leaf_zipf_.Draw(rng_)]];
  } else if (u < 0.77) {
    op.kind = kBlockGet;
    op.target = inventory_.blocks[rng_.UniformInt(0, inventory_.blocks.size() - 1)];
  } else if (u < 0.97) {
    op.kind = kAggregateGet;
    op.target = "/redfish/v1/CompositionService/ResourceBlocks";
  } else {
    op.kind = kFabricPatch;
    op.method = http::Method::kPatch;
    op.target = inventory_.fabric_leaves[leaf_order_[leaf_zipf_.Draw(rng_)]];
    op.body = "{\"Name\":\"routed " + std::to_string(++patches_) + "\"}";
  }
  return op;
}

// -------------------------------------------------------- compose_churn ----

JobMix::JobMix(std::uint64_t seed, std::size_t launcher)
    : rng_(StreamSeed(seed, launcher, 0xc0b)) {}

JobPlan JobMix::Next() {
  JobPlan plan;
  plan.cores = 4 * static_cast<int>(rng_.UniformInt(1, 4));
  plan.memory_gib = 16.0 * static_cast<double>(rng_.UniformInt(1, 6));
  plan.storage_gib = 128.0 * static_cast<double>(rng_.UniformInt(1, 8));
  plan.subsystem_nqn = SubsystemNqn(static_cast<int>(rng_.UniformInt(0, kSubsystems - 1)));
  return plan;
}

std::string JobMix::SubsystemNqn(int index) {
  return "nqn.2026-01.org.ofmf:pool" + std::to_string(index);
}

}  // namespace perfbench
