// Durability-layer tests: journal framing and torn-tail detection, group
// commit, snapshot compaction + rotation, crash/torn-write/short-fsync
// injection, and the service-level recovery contract — restart + recovery
// rebuilds a tree byte-identical to a reference replayed from the surviving
// journal prefix, with no half-composed system and no leaked block claim.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/faults.hpp"
#include "common/rng.hpp"
#include "http/message.hpp"
#include "json/parse.hpp"
#include "json/serialize.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"
#include "redfish/tree.hpp"
#include "store/journal.hpp"
#include "store/store.hpp"

namespace ofmf {
namespace {

namespace fs = std::filesystem;
using json::Json;
using store::Journal;
using store::PersistentStore;
using store::StoreOptions;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ofmf_store_" + name;
  fs::remove_all(dir);
  return dir;
}

StoreOptions Options(const std::string& dir) {
  StoreOptions options;
  options.dir = dir;
  return options;
}

/// Wires a tree's mutation log straight into a store (what EnableDurability
/// does inside OfmfService).
void Attach(redfish::ResourceTree& tree, PersistentStore& store) {
  tree.SetMutationLog([&store](const redfish::ResourceTree::Mutation& mutation) {
    store.LogMutation(mutation);
  });
}

std::string TreeBytes(const redfish::ResourceTree& tree) {
  return json::Serialize(tree.ExportState());
}

/// Independent recovery reference: parse the snapshot file by hand (magic +
/// one CRC frame) and replay every surviving journal record via the tree's
/// Restore primitives, stopping at the first torn generation — without going
/// through PersistentStore::Recover.
void RebuildReference(const std::string& dir, redfish::ResourceTree& tree) {
  const std::string snapshot_path = dir + "/snapshot.snap";
  if (fs::exists(snapshot_path)) {
    std::ifstream in(snapshot_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 16u);
    ASSERT_EQ(bytes.substr(0, 8), "OFMFSNP1");
    auto doc = json::Parse(std::string_view(bytes).substr(16));
    ASSERT_TRUE(doc.ok()) << doc.status().message();
    ASSERT_TRUE(tree.ImportState(*doc).ok());
  }
  std::vector<std::string> journals;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal-", 0) == 0 && name.size() > 4 &&
        name.substr(name.size() - 4) == ".wal") {
      journals.push_back(entry.path().string());
    }
  }
  std::sort(journals.begin(), journals.end());
  for (const std::string& path : journals) {
    auto scan = Journal::ReadAll(path);
    ASSERT_TRUE(scan.ok());
    for (const std::string& record : scan->records) {
      auto doc = json::Parse(record);
      ASSERT_TRUE(doc.ok());
      const std::string op = doc->GetString("op");
      if (op == "put") {
        ASSERT_TRUE(tree.RestorePut(doc->GetString("uri"), doc->GetString("type"),
                                    doc->at("doc"),
                                    static_cast<std::uint64_t>(doc->GetInt("ver", 1)))
                        .ok());
      } else if (op == "del") {
        ASSERT_TRUE(tree.RestoreDelete(doc->GetString("uri")).ok());
      }
    }
    if (scan->torn_tail) break;  // nothing after the damage can be trusted
  }
}

TEST(Crc32Test, MatchesKnownVector) {
  EXPECT_EQ(store::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(store::Crc32(""), 0u);
}

TEST(JournalTest, RoundTripsFrames) {
  const std::string dir = FreshDir("journal_roundtrip");
  fs::create_directories(dir);
  const std::string path = dir + "/j.wal";
  auto journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->AppendRaw(Journal::EncodeFrame(R"({"a":1})")).ok());
  ASSERT_TRUE((*journal)->AppendRaw(Journal::EncodeFrame(R"({"b":2})")).ok());
  ASSERT_TRUE((*journal)->Fsync().ok());

  auto scan = Journal::ReadAll(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0], R"({"a":1})");
  EXPECT_EQ(scan->records[1], R"({"b":2})");
  EXPECT_EQ(scan->valid_bytes, (*journal)->size());
}

TEST(JournalTest, TornTailDetectedAndTruncatedAway) {
  const std::string dir = FreshDir("journal_torn");
  fs::create_directories(dir);
  const std::string path = dir + "/j.wal";
  auto journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->AppendRaw(Journal::EncodeFrame(R"({"a":1})")).ok());
  const std::uint64_t intact = (*journal)->size();
  const std::string partial = Journal::EncodeFrame(R"({"torn":true})");
  ASSERT_TRUE((*journal)->AppendRaw(partial.substr(0, partial.size() / 2)).ok());

  auto scan = Journal::ReadAll(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->valid_bytes, intact);

  ASSERT_TRUE((*journal)->TruncateTo(scan->valid_bytes).ok());
  auto clean = Journal::ReadAll(path);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->torn_tail);
  EXPECT_EQ(clean->records.size(), 1u);
}

TEST(JournalTest, CorruptFrameStopsReplayAtPrefix) {
  const std::string dir = FreshDir("journal_corrupt");
  fs::create_directories(dir);
  const std::string path = dir + "/j.wal";
  std::uint64_t second_frame_offset = 0;
  {
    auto journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->AppendRaw(Journal::EncodeFrame(R"({"keep":1})")).ok());
    second_frame_offset = (*journal)->size();
    ASSERT_TRUE((*journal)->AppendRaw(Journal::EncodeFrame(R"({"rot":2})")).ok());
    ASSERT_TRUE((*journal)->AppendRaw(Journal::EncodeFrame(R"({"after":3})")).ok());
  }
  {
    // Flip one payload byte of the middle frame: its CRC must now fail, and
    // replay must keep only the frames before it — never the ones after.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(second_frame_offset + 8 + 2));
    file.put('X');
  }
  auto scan = Journal::ReadAll(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0], R"({"keep":1})");
}

TEST(StoreTest, JournalReplayRebuildsTreeByteIdentical) {
  const std::string dir = FreshDir("replay");
  auto store = PersistentStore::Open(Options(dir));
  ASSERT_TRUE(store.ok());

  redfish::ResourceTree tree;
  Attach(tree, **store);
  ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/c1", "#Chassis.v1_21_0.Chassis",
                          Json::Obj({{"Id", "c1"}}))
                  .ok());
  ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/c2", "#Chassis.v1_21_0.Chassis",
                          Json::Obj({{"Id", "c2"}}))
                  .ok());
  ASSERT_TRUE(tree.Patch("/redfish/v1/Chassis/c1",
                         Json::Obj({{"AssetTag", "rack-7"}}))
                  .ok());
  ASSERT_TRUE(tree.Delete("/redfish/v1/Chassis/c2").ok());
  ASSERT_TRUE((*store)->Flush().ok());

  redfish::ResourceTree recovered;
  auto state = (*store)->Recover(recovered);
  ASSERT_TRUE(state.ok());
  EXPECT_FALSE(state->report.had_snapshot);
  EXPECT_FALSE(state->report.torn_tail);
  EXPECT_EQ(state->report.records_replayed, 4u);
  EXPECT_EQ(TreeBytes(recovered), TreeBytes(tree));
  // Exact versions restored => identical ETags (the CAS claims depend on it).
  EXPECT_EQ(recovered.ETagOf("/redfish/v1/Chassis/c1"),
            tree.ETagOf("/redfish/v1/Chassis/c1"));
}

TEST(StoreTest, GroupCommitAmortizesFsyncs) {
  const std::string dir = FreshDir("group_commit");
  StoreOptions options = Options(dir);
  options.group_commit_records = 8;
  auto store = PersistentStore::Open(options);
  ASSERT_TRUE(store.ok());
  redfish::ResourceTree tree;
  Attach(tree, **store);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/c" + std::to_string(i),
                            "#Chassis.v1_21_0.Chassis",
                            Json::Obj({{"Id", std::to_string(i)}}))
                    .ok());
  }
  const store::StoreStats stats = (*store)->stats();
  EXPECT_EQ(stats.appended, 64u);
  EXPECT_EQ(stats.committed, 64u);
  EXPECT_EQ(stats.commits, 8u);  // 64 records / 8 per batch
  EXPECT_EQ(stats.fsyncs, 8u);

  const std::string dir2 = FreshDir("per_record_commit");
  StoreOptions eager = Options(dir2);
  eager.group_commit = false;
  auto store2 = PersistentStore::Open(eager);
  ASSERT_TRUE(store2.ok());
  redfish::ResourceTree tree2;
  Attach(tree2, **store2);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(tree2.Create("/redfish/v1/Chassis/c" + std::to_string(i),
                             "#Chassis.v1_21_0.Chassis",
                             Json::Obj({{"Id", std::to_string(i)}}))
                    .ok());
  }
  EXPECT_EQ((*store2)->stats().fsyncs, 16u);  // one per record: the slow baseline
}

TEST(StoreTest, CompactionSnapshotsRotatesAndDeletesOldGenerations) {
  const std::string dir = FreshDir("compact");
  auto store = PersistentStore::Open(Options(dir));
  ASSERT_TRUE(store.ok());
  redfish::ResourceTree tree;
  Attach(tree, **store);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/c" + std::to_string(i),
                            "#Chassis.v1_21_0.Chassis",
                            Json::Obj({{"Id", std::to_string(i)}}))
                    .ok());
  }
  ASSERT_TRUE(
      (*store)->Compact([&] { return tree.ExportState(); }, {}).ok());
  EXPECT_TRUE(fs::exists((*store)->snapshot_path()));
  EXPECT_FALSE(fs::exists(dir + "/snapshot.snap.tmp"));

  std::size_t journal_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("journal-", 0) == 0) ++journal_files;
  }
  EXPECT_EQ(journal_files, 1u);  // old generations deleted after the rename

  // Mutations after compaction land in the fresh generation...
  ASSERT_TRUE(tree.Patch("/redfish/v1/Chassis/c0", Json::Obj({{"AssetTag", "x"}})).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  // ...and recovery = snapshot + replay of just that delta.
  redfish::ResourceTree recovered;
  auto state = (*store)->Recover(recovered);
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->report.had_snapshot);
  EXPECT_EQ(state->report.records_replayed, 1u);
  EXPECT_EQ(TreeBytes(recovered), TreeBytes(tree));
}

// The recovery budget at its working size: 10,000 resources, a quarter of
// them patched since, come back byte-identical in under a second from the
// journal alone and from a snapshot. The clock is checked only in optimized,
// uninstrumented builds.
TEST(StoreTest, TenThousandResourcesRecoverWithinOneSecond) {
  const std::string dir = FreshDir("recover_10k");
  auto store = PersistentStore::Open(Options(dir));
  ASSERT_TRUE(store.ok());
  redfish::ResourceTree tree;
  Attach(tree, **store);
  for (int i = 0; i < 10000; ++i) {
    const std::string id = "c" + std::to_string(i);
    ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/" + id, "#Chassis.v1_21_0.Chassis",
                            Json::Obj({{"Id", id},
                                       {"Name", "chassis " + id},
                                       {"AssetTag", "rack-" + std::to_string(i % 16)},
                                       {"Status", Json::Obj({{"State", "Enabled"},
                                                             {"Health", "OK"}})}}))
                    .ok());
  }
  for (int i = 0; i < 2500; ++i) {
    ASSERT_TRUE(tree.Patch("/redfish/v1/Chassis/c" + std::to_string(i),
                           Json::Obj({{"AssetTag", "patched"}}))
                    .ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());

  const auto recover = [&](std::size_t expect_replayed) {
    redfish::ResourceTree recovered;
    const auto start = std::chrono::steady_clock::now();
    auto state = (*store)->Recover(recovered);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(state->report.records_replayed, expect_replayed);
    EXPECT_EQ(TreeBytes(recovered), TreeBytes(tree));
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    EXPECT_LT(elapsed, std::chrono::seconds(1));
#else
    (void)elapsed;
#endif
  };
  recover(12500);
  ASSERT_TRUE((*store)->Compact([&] { return tree.ExportState(); }, {}).ok());
  recover(0);
}

TEST(StoreTest, StrayJournalLookalikeFilesAreIgnored) {
  const std::string dir = FreshDir("stray");
  auto store = PersistentStore::Open(Options(dir));
  ASSERT_TRUE(store.ok());
  // Files whose names merely resemble a generation must be neither replayed
  // by Recover nor deleted by Compact's rotation.
  { std::ofstream(dir + "/journal-00000001.wal.bak") << "operator backup"; }
  { std::ofstream(dir + "/journal-1.wal") << "unpadded, not ours"; }

  redfish::ResourceTree tree;
  Attach(tree, **store);
  ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/c1", "#Chassis.v1_21_0.Chassis",
                          Json::Obj({{"Id", "c1"}}))
                  .ok());
  ASSERT_TRUE((*store)->Flush().ok());

  redfish::ResourceTree recovered;
  auto state = (*store)->Recover(recovered);
  ASSERT_TRUE(state.ok()) << state.status().message();
  EXPECT_EQ(state->report.records_replayed, 1u);
  EXPECT_EQ(TreeBytes(recovered), TreeBytes(tree));

  ASSERT_TRUE((*store)->Compact([&] { return tree.ExportState(); }, {}).ok());
  EXPECT_TRUE(fs::exists(dir + "/journal-00000001.wal.bak"));
  EXPECT_TRUE(fs::exists(dir + "/journal-1.wal"));
}

TEST(StoreTest, CorruptSnapshotRefusesByDefaultAndDegradesWhenAsked) {
  const std::string dir = FreshDir("corrupt_snapshot");
  {
    auto store = PersistentStore::Open(Options(dir));
    ASSERT_TRUE(store.ok());
    redfish::ResourceTree tree;
    Attach(tree, **store);
    ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/c1", "#Chassis.v1_21_0.Chassis",
                            Json::Obj({{"Id", "c1"}}))
                    .ok());
    ASSERT_TRUE((*store)->Compact([&] { return tree.ExportState(); }, {}).ok());
    // Post-snapshot delta: lives only in the fresh journal generation.
    ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/c2", "#Chassis.v1_21_0.Chassis",
                            Json::Obj({{"Id", "c2"}}))
                    .ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }

  // Flip one payload byte: the snapshot CRC must catch the rot.
  const std::string snapshot = dir + "/snapshot.snap";
  {
    std::ifstream in(snapshot, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes.empty());
    bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
    std::ofstream out(snapshot, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  {
    // Default: refuse, naming the corrupt file, rather than silently serving
    // a tree that lost everything up to the last compaction.
    auto store = PersistentStore::Open(Options(dir));
    ASSERT_TRUE(store.ok());
    redfish::ResourceTree recovered;
    auto state = (*store)->Recover(recovered);
    ASSERT_FALSE(state.ok());
    EXPECT_THAT(state.status().message(), ::testing::HasSubstr(snapshot));
    EXPECT_TRUE(fs::exists(snapshot));  // left in place for the operator
  }

  {
    // Opt-in: the bad snapshot is set aside and the surviving journal
    // generations replay alone — c2 (post-compaction) comes back, c1 (its
    // record was rotated away with the old generation) is gone.
    StoreOptions degraded = Options(dir);
    degraded.recover_without_snapshot = true;
    auto store = PersistentStore::Open(degraded);
    ASSERT_TRUE(store.ok());
    redfish::ResourceTree recovered;
    auto state = (*store)->Recover(recovered);
    ASSERT_TRUE(state.ok()) << state.status().message();
    EXPECT_TRUE(state->report.snapshot_discarded);
    EXPECT_FALSE(state->report.had_snapshot);
    EXPECT_TRUE(recovered.Exists("/redfish/v1/Chassis/c2"));
    EXPECT_FALSE(recovered.Exists("/redfish/v1/Chassis/c1"));
    EXPECT_FALSE(fs::exists(snapshot));
    EXPECT_TRUE(fs::exists(snapshot + ".corrupt"));  // kept for forensics
  }
}

TEST(StoreTest, ConcurrentCompactionsAndAppendsLoseNothing) {
  const std::string dir = FreshDir("concurrent_compact");
  StoreOptions options = Options(dir);
  options.fsync_on_commit = false;  // platter durability is not under test
  auto store = PersistentStore::Open(options);
  ASSERT_TRUE(store.ok());
  redfish::ResourceTree tree;
  Attach(tree, **store);

  // Race appends against repeated compactions from several threads, the way
  // per-connection Handle() threads race when compaction_due() flips true.
  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const int id = next.fetch_add(1);
        ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/c" + std::to_string(id),
                                "#Chassis.v1_21_0.Chassis",
                                Json::Obj({{"Id", std::to_string(id)}}))
                        .ok());
        if (i % 10 == 0) {
          ASSERT_TRUE(
              (*store)->Compact([&] { return tree.ExportState(); }, {}).ok());
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_FALSE((*store)->crashed());

  redfish::ResourceTree recovered;
  auto state = (*store)->Recover(recovered);
  ASSERT_TRUE(state.ok()) << state.status().message();
  EXPECT_EQ(recovered.size(), tree.size());
  EXPECT_EQ(TreeBytes(recovered), TreeBytes(tree));
}

TEST(StoreTest, InjectedCrashDropsEverythingPastLastFsync) {
  const std::string dir = FreshDir("crash");
  StoreOptions options = Options(dir);
  options.group_commit_records = 100;  // keep everything buffered until Flush
  auto store = PersistentStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto faults = std::make_shared<FaultInjector>(7);
  (*store)->set_fault_injector(faults);

  redfish::ResourceTree tree;
  Attach(tree, **store);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/sync" + std::to_string(i),
                            "#Chassis.v1_21_0.Chassis", Json::Obj({{"Id", "s"}}))
                    .ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());  // these four are on the platter

  faults->ArmNthCall("store.commit.crash", FaultKind::kCrash, 1);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/lost" + std::to_string(i),
                            "#Chassis.v1_21_0.Chassis", Json::Obj({{"Id", "l"}}))
                    .ok());
  }
  EXPECT_FALSE((*store)->Flush().ok());
  EXPECT_TRUE((*store)->crashed());
  EXPECT_EQ((*store)->stats().dropped_after_crash, 4u);
  // The dead store absorbs later mutations like a crashed process would.
  ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/after", "#Chassis.v1_21_0.Chassis",
                          Json::Obj({{"Id", "a"}}))
                  .ok());

  auto reopened = PersistentStore::Open(Options(dir));
  ASSERT_TRUE(reopened.ok());
  redfish::ResourceTree recovered;
  auto state = (*reopened)->Recover(recovered);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->report.records_replayed, 4u);
  EXPECT_TRUE(recovered.Exists("/redfish/v1/Chassis/sync0"));
  EXPECT_FALSE(recovered.Exists("/redfish/v1/Chassis/lost0"));
  EXPECT_FALSE(recovered.Exists("/redfish/v1/Chassis/after"));
}

TEST(StoreTest, TornWritePersistsOnlyAPrefixAndRecoveryKeepsIt) {
  const std::string dir = FreshDir("torn");
  StoreOptions options = Options(dir);
  options.group_commit_records = 100;
  auto store = PersistentStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto faults = std::make_shared<FaultInjector>(11);
  (*store)->set_fault_injector(faults);

  redfish::ResourceTree tree;
  Attach(tree, **store);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/c" + std::to_string(i),
                            "#Chassis.v1_21_0.Chassis",
                            Json::Obj({{"Id", std::to_string(i)}}))
                    .ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());  // c0..c2 are on the platter

  // One big record in its own batch: the torn write persists half of its
  // frame, which MUST land mid-frame and be detected as a torn tail.
  faults->ArmNthCall("store.commit.torn", FaultKind::kTornWrite, 1);
  ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/big", "#Chassis.v1_21_0.Chassis",
                          Json::Obj({{"Id", "big"}, {"AssetTag", std::string(512, 'x')}}))
                  .ok());
  EXPECT_FALSE((*store)->Flush().ok());
  EXPECT_TRUE((*store)->crashed());

  auto reopened = PersistentStore::Open(Options(dir));
  ASSERT_TRUE(reopened.ok());
  redfish::ResourceTree recovered;
  auto state = (*reopened)->Recover(recovered);
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->report.torn_tail);
  EXPECT_EQ(state->report.records_replayed, 3u);  // the synced prefix, nothing more
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(recovered.Exists("/redfish/v1/Chassis/c" + std::to_string(i)));
  }
  EXPECT_FALSE(recovered.Exists("/redfish/v1/Chassis/big"));
  // And the truncation is durable: a second recovery sees a clean journal.
  redfish::ResourceTree again;
  auto second = PersistentStore::Open(Options(dir));
  ASSERT_TRUE(second.ok());
  auto state2 = (*second)->Recover(again);
  ASSERT_TRUE(state2.ok());
  EXPECT_FALSE(state2->report.torn_tail);
  EXPECT_EQ(TreeBytes(again), TreeBytes(recovered));
}

TEST(StoreTest, ShortFsyncWidensTheCrashLossWindow) {
  const std::string dir = FreshDir("short_fsync");
  StoreOptions options = Options(dir);
  options.group_commit_records = 2;
  auto store = PersistentStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto faults = std::make_shared<FaultInjector>(13);
  (*store)->set_fault_injector(faults);
  // First commit's fsync is silently skipped: its records reach the file but
  // not the platter. The crash on the second commit then wipes BOTH batches —
  // the file is truncated back to the last real fsync (the magic header).
  faults->ArmNthCall("store.fsync", FaultKind::kShortFsync, 1);
  faults->ArmNthCall("store.commit.crash", FaultKind::kCrash, 2);

  redfish::ResourceTree tree;
  Attach(tree, **store);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(tree.Create("/redfish/v1/Chassis/c" + std::to_string(i),
                            "#Chassis.v1_21_0.Chassis",
                            Json::Obj({{"Id", std::to_string(i)}}))
                    .ok());
  }
  EXPECT_TRUE((*store)->crashed());

  auto reopened = PersistentStore::Open(Options(dir));
  ASSERT_TRUE(reopened.ok());
  redfish::ResourceTree recovered;
  auto state = (*reopened)->Recover(recovered);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->report.records_replayed, 0u);
  EXPECT_EQ(recovered.size(), 0u);
}

// ---------------------------------------------------------------- service --

class DurableServiceTest : public ::testing::Test {
 protected:
  static std::unique_ptr<core::OfmfService> StartService(
      const std::string& dir, std::shared_ptr<FaultInjector> faults = nullptr,
      StoreOptions options = {}) {
    auto service = std::make_unique<core::OfmfService>();
    EXPECT_TRUE(service->Bootstrap().ok());
    options.dir = dir;
    auto store = PersistentStore::Open(options);
    EXPECT_TRUE(store.ok());
    if (faults != nullptr) (*store)->set_fault_injector(faults);
    EXPECT_TRUE(service->EnableDurability(std::move(*store)).ok());
    return service;
  }

  static void RegisterBlocks(core::OfmfService& service, int count) {
    for (int i = 0; i < count; ++i) {
      core::BlockCapability block;
      block.id = "b" + std::to_string(i);
      block.block_type = i % 2 == 0 ? "Compute" : "Memory";
      block.cores = 8;
      block.memory_gib = 32;
      EXPECT_TRUE(service.composition().RegisterBlock(block).ok());
    }
  }

  /// No half-composed system, no leaked or double claim.
  static void CheckCompositionInvariants(core::OfmfService& service) {
    auto systems = service.tree().Members(core::kSystems);
    ASSERT_TRUE(systems.ok());
    std::set<std::string> claimed;
    for (const std::string& system_uri : *systems) {
      auto blocks = service.composition().BlocksOf(system_uri);
      ASSERT_TRUE(blocks.ok()) << system_uri;
      for (const std::string& block_uri : *blocks) {
        EXPECT_TRUE(claimed.insert(block_uri).second)
            << block_uri << " claimed twice";
        EXPECT_EQ(*service.composition().BlockState(block_uri), "Composed");
      }
    }
    for (const std::string& uri : service.tree().UrisUnder(core::kResourceBlocks)) {
      if (uri == std::string(core::kResourceBlocks) || claimed.count(uri) != 0) continue;
      EXPECT_EQ(*service.composition().BlockState(uri), "Unused")
          << uri << " is claimed by no system";
    }
  }
};

TEST_F(DurableServiceTest, RestartPreservesEtagsSessionsAndIdCounters) {
  const std::string dir = FreshDir("service_restart");
  std::string token;
  std::string block_etag;
  std::string old_system;
  {
    auto service = StartService(dir);
    RegisterBlocks(*service, 4);
    auto system = service->composition().Compose(
        "job1", {std::string(core::kResourceBlocks) + "/b0",
                 std::string(core::kResourceBlocks) + "/b1"});
    ASSERT_TRUE(system.ok());
    old_system = *system;

    const http::Request login = http::MakeJsonRequest(
        http::Method::kPost, core::kSessions,
        Json::Obj({{"UserName", "admin"}, {"Password", "ofmf"}}));
    const http::Response response = service->Handle(login);
    ASSERT_EQ(response.status, 201);
    token = response.headers.GetOr("X-Auth-Token", "");
    ASSERT_FALSE(token.empty());

    block_etag = service->tree().ETagOf(std::string(core::kResourceBlocks) + "/b0");
    ASSERT_TRUE(service->FlushStore().ok());
  }

  auto service = StartService(dir);
  // ETags (and the CAS claims keyed on them) survive the restart exactly.
  EXPECT_EQ(service->tree().ETagOf(std::string(core::kResourceBlocks) + "/b0"),
            block_etag);
  // The session token authenticates again.
  EXPECT_TRUE(service->sessions().Authenticate(token).has_value());
  auto report = service->ReconcileWithAgents();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->systems_adopted, 1u);
  EXPECT_EQ(report->systems_rolled_back, 0u);
  CheckCompositionInvariants(*service);
  // The id counter resumed past the recovered system: no URI collision.
  auto next = service->composition().Compose(
      "job2", {std::string(core::kResourceBlocks) + "/b2"});
  ASSERT_TRUE(next.ok());
  EXPECT_NE(*next, old_system);
}

TEST_F(DurableServiceTest, RestartPreservesTenantsAndSessionTenantBinding) {
  const std::string dir = FreshDir("service_tenants");
  std::string token;
  {
    auto service = StartService(dir);
    core::TenantInfo tenant;
    tenant.id = "gold";
    tenant.qos_class = "Guaranteed";
    tenant.weight = 3;
    tenant.rate_rps = 10.0;
    tenant.users = {"alice"};
    ASSERT_TRUE(service->sessions().CreateTenant(tenant).ok());
    service->sessions().AddUser("alice", "secret");
    // Login over HTTP: that path journals the token alongside the Session
    // resource, so it must survive the restart.
    const http::Response login = service->Handle(http::MakeJsonRequest(
        http::Method::kPost, core::kSessions,
        Json::Obj({{"UserName", "alice"}, {"Password", "secret"}})));
    ASSERT_EQ(login.status, 201);
    token = login.headers.GetOr("X-Auth-Token", "");
    ASSERT_FALSE(token.empty());
    ASSERT_EQ(service->sessions().TenantOfToken(token), "gold");
    ASSERT_TRUE(service->FlushStore().ok());
  }

  auto service = StartService(dir);
  // The tenant resource came back through the journal with every QoS knob.
  auto tenant = service->sessions().GetTenant("gold");
  ASSERT_TRUE(tenant.ok());
  EXPECT_EQ(tenant->qos_class, "Guaranteed");
  EXPECT_EQ(tenant->weight, 3u);
  EXPECT_DOUBLE_EQ(tenant->rate_rps, 10.0);
  // The restored session re-derived its tenant binding (tenants are adopted
  // before sessions during recovery), so the reactor's classifier still maps
  // the old token to the right scheduling queue.
  auto session = service->sessions().Authenticate(token);
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(session->tenant, "gold");
  EXPECT_EQ(service->sessions().TenantOfToken(token), "gold");
}

TEST_F(DurableServiceTest, ReconcileRollsBackHalfComposedAndReleasesLeaks) {
  const std::string dir = FreshDir("service_reconcile");
  {
    auto service = StartService(dir);
    RegisterBlocks(*service, 4);
    auto system = service->composition().Compose(
        "doomed", {std::string(core::kResourceBlocks) + "/b0",
                   std::string(core::kResourceBlocks) + "/b1"});
    ASSERT_TRUE(system.ok());
    // Sabotage, as a crash mid-compose would leave it: one of the system's
    // claims is gone, and an unrelated block holds a claim no system owns.
    ASSERT_TRUE(service->tree()
                    .Patch(std::string(core::kResourceBlocks) + "/b1",
                           Json::Obj({{"CompositionStatus",
                                       Json::Obj({{"CompositionState", "Unused"}})}}))
                    .ok());
    ASSERT_TRUE(service->tree()
                    .Patch(std::string(core::kResourceBlocks) + "/b3",
                           Json::Obj({{"CompositionStatus",
                                       Json::Obj({{"CompositionState", "Composed"}})}}))
                    .ok());
    ASSERT_TRUE(service->FlushStore().ok());
  }

  auto service = StartService(dir);
  auto report = service->ReconcileWithAgents();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->systems_adopted, 0u);
  EXPECT_EQ(report->systems_rolled_back, 1u);
  EXPECT_EQ(report->claims_released, 1u);
  EXPECT_EQ(service->tree().Members(core::kSystems)->size(), 0u);
  CheckCompositionInvariants(*service);
  EXPECT_EQ(service->composition().FreeBlockUris().size(), 4u);
}

TEST_F(DurableServiceTest, CrashRecoveryPropertySeededSchedules) {
  // The acceptance property: for seeded crash/torn-write schedules firing at
  // arbitrary commit points mid-churn, restart + recovery yields a tree
  // byte-identical to an independently rebuilt reference (snapshot + the
  // surviving journal prefix), and reconciliation leaves no half-composed
  // system and no leaked claim.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string dir = FreshDir("property_" + std::to_string(seed));
    auto faults = std::make_shared<FaultInjector>(seed);
    StoreOptions options;
    options.group_commit_records = 4;  // commits interleave tightly with churn
    {
      auto service = StartService(dir, faults, options);
      RegisterBlocks(*service, 6);
      const FaultKind kind = seed % 2 == 0 ? FaultKind::kTornWrite : FaultKind::kCrash;
      const char* point =
          kind == FaultKind::kTornWrite ? "store.commit.torn" : "store.commit.crash";
      faults->ArmNthCall(point, kind, 2 + seed * 3);

      std::vector<std::string> live;
      Rng rng(seed * 977);
      for (int i = 0; i < 60; ++i) {
        const std::uint64_t dice = rng.NextU64() % 10;
        if (dice < 5) {
          const std::string block =
              std::string(core::kResourceBlocks) + "/b" + std::to_string(rng.NextU64() % 6);
          auto system =
              service->composition().Compose("job" + std::to_string(i), {block});
          if (system.ok()) live.push_back(*system);
        } else if (dice < 8 && !live.empty()) {
          if (service->composition().Decompose(live.front()).ok()) {
            live.erase(live.begin());
          }
        } else {
          (void)service->tree().Patch(
              std::string(core::kResourceBlocks) + "/b" + std::to_string(rng.NextU64() % 6),
              Json::Obj({{"AssetTag", "churn-" + std::to_string(i)}}));
        }
      }
      EXPECT_TRUE(service->store()->crashed())
          << "schedule never fired; churn too short for this seed";
    }

    // Independent reference: snapshot file + manual replay of the surviving
    // journal prefix, no PersistentStore involved.
    redfish::ResourceTree reference;
    RebuildReference(dir, reference);

    auto service = StartService(dir, nullptr, options);
    EXPECT_EQ(TreeBytes(service->tree()), TreeBytes(reference));

    auto report = service->ReconcileWithAgents();
    ASSERT_TRUE(report.ok());
    CheckCompositionInvariants(*service);

    // The recovered service is live: it can keep composing.
    auto blocks = service->composition().FreeBlockUris();
    if (!blocks.empty()) {
      EXPECT_TRUE(service->composition().Compose("post-recovery", {blocks[0]}).ok());
    }
  }
}

TEST_F(DurableServiceTest, CrashDuringCompactionKeepsAuthoritativeSnapshot) {
  const std::string dir = FreshDir("compact_crash");
  auto faults = std::make_shared<FaultInjector>(21);
  std::string expected;
  {
    auto service = StartService(dir, faults);
    RegisterBlocks(*service, 3);
    ASSERT_TRUE(service->FlushStore().ok());
    expected = TreeBytes(service->tree());
    // Crash between the tmp write and the rename: the tmp file must be
    // ignored and the previous snapshot + journal stay authoritative.
    faults->ArmNthCall("store.compact.crash", FaultKind::kCrash, 2);
    EXPECT_FALSE(service->CompactStore().ok());
    EXPECT_TRUE(service->store()->crashed());
  }
  auto service = StartService(dir);
  EXPECT_EQ(TreeBytes(service->tree()), expected);
}

}  // namespace
}  // namespace ofmf
