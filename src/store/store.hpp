// Persistence for the management plane: a write-ahead journal of resource-
// tree mutations plus periodic snapshot compaction, so an OFMF restart can
// rebuild the exact Redfish tree (same payloads, same versions, same ETags)
// the fabric hardware was composed against.
//
// Durability model:
//   * Every tree mutation is journaled as a *state* record (the resulting
//     document + version, not the operation), appended under the tree's
//     write lock so journal order is apply order. State records make replay
//     idempotent: replaying a record whose effect is already present (e.g.
//     a journal that overlaps its snapshot after a crash mid-compaction) is
//     a no-op.
//   * Group commit: records buffer in memory and hit the file + one fsync
//     per batch, so the fsync cost is amortized across a burst of writes
//     and never touches the (lock-free, cache-served) read fast lane.
//   * Compaction: the whole tree is serialized to snapshot.snap.tmp, fsynced,
//     atomically renamed over snapshot.snap, and the journal is rotated to a
//     fresh generation; old generations are deleted only after the rename.
//   * Recovery: load the snapshot (if any), replay every surviving journal
//     generation in order, stop at the first torn/corrupt frame and truncate
//     it away. The result is always a valid prefix of the mutation history.
//
// Crash/torn-write/short-fsync *injection* rides the shared FaultInjector:
//   "store.commit.crash"  (kCrash)      power loss before the batch lands
//   "store.commit.torn"   (kTornWrite)  only a prefix of the batch persists
//   "store.fsync"         (kShortFsync) fsync silently skipped; a later
//                                       crash drops the unsynced suffix
//   "store.compact.crash" (kCrash)      power loss around snapshot rename
// A simulated crash truncates the journal to its last-synced byte (the page
// cache vanished) and marks the store dead; every later call fails
// Unavailable, exactly like writing to a crashed process.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/faults.hpp"
#include "common/result.hpp"
#include "redfish/tree.hpp"
#include "store/journal.hpp"

namespace ofmf::store {

struct StoreOptions {
  std::string dir;
  /// true: records buffer until the batch thresholds below; false: every
  /// record commits (write + fsync) immediately — the safe/slow baseline.
  bool group_commit = true;
  std::size_t group_commit_records = 64;
  std::size_t group_commit_bytes = 256 * 1024;
  /// false skips fsync entirely (tests where platter durability is not
  /// under test).
  bool fsync_on_commit = true;
  /// Compaction is suggested (compaction_due()) past either threshold.
  std::uint64_t compact_after_records = 8192;
  std::uint64_t compact_after_bytes = 8ull * 1024 * 1024;
  /// Opt-in last resort: when the snapshot fails its magic/CRC check,
  /// set it aside (snapshot.snap.corrupt) and recover from the surviving
  /// journal generations alone instead of refusing to start. Off by
  /// default because journals alone may predate the last compaction.
  bool recover_without_snapshot = false;
};

struct StoreStats {
  std::uint64_t appended = 0;   // records accepted into the buffer
  std::uint64_t committed = 0;  // records written to the journal file
  std::uint64_t commits = 0;    // group-commit batches written
  std::uint64_t fsyncs = 0;
  std::uint64_t compactions = 0;
  std::uint64_t dropped_after_crash = 0;  // records lost to the dead store
  std::uint64_t io_errors = 0;  // real (non-injected) write/fsync failures
};

/// Session secrets ride in the journal/snapshot, never in the Redfish tree
/// (a GET must not leak another client's token).
struct DurableSession {
  std::string id;
  std::string user;
  std::string token;
};

/// Durable event-delivery state: the publisher's sequence counter, the
/// bounded tail of published event records, and each subscription's
/// acknowledged-delivery cursor. Journaled incrementally ("evt"/"cur"
/// records) and folded into every snapshot, so after crash recovery the
/// EventService resumes each subscription at its cursor — acknowledged
/// events are never redelivered and unacknowledged ones are never lost.
struct DurableEventState {
  std::uint64_t next_sequence = 0;  // highest sequence ever assigned
  /// Published event records (sequence -> serialized Event document),
  /// oldest first. Bounded by the EventService's retention window.
  std::vector<std::pair<std::uint64_t, json::Json>> events;
  /// Subscription URI -> highest acknowledged sequence.
  std::vector<std::pair<std::string, std::uint64_t>> cursors;
};

struct RecoveryReport {
  bool had_snapshot = false;
  bool snapshot_discarded = false;  // corrupt snapshot set aside (opt-in)
  bool torn_tail = false;       // replay stopped at a torn/corrupt frame
  std::size_t resources = 0;    // tree entries after recovery
  std::size_t records_replayed = 0;
  std::size_t sessions = 0;     // durable sessions surfaced to the service
  double recover_seconds = 0.0;
};

class PersistentStore {
 public:
  /// Creates `options.dir` if needed and starts a fresh journal generation.
  /// Existing snapshot/journal files are untouched until Recover()/Compact().
  static Result<std::unique_ptr<PersistentStore>> Open(StoreOptions options);

  ~PersistentStore();
  PersistentStore(const PersistentStore&) = delete;
  PersistentStore& operator=(const PersistentStore&) = delete;

  void set_fault_injector(std::shared_ptr<FaultInjector> faults);

  /// Journals one tree mutation. Called from the tree's mutation log — i.e.
  /// under the tree's write lock — so it must not (and does not) re-enter
  /// the tree. Failures are absorbed (the dead-store counter records them).
  void LogMutation(const redfish::ResourceTree::Mutation& mutation);

  /// Journals a session secret (replayed to the SessionService on recovery).
  void LogSession(const DurableSession& session);

  /// Journals one published event record (sequence + serialized document).
  /// Replay feeds the EventService's retained log, so events published but
  /// not yet acknowledged by every subscriber survive a crash.
  void LogEvent(std::uint64_t sequence, const json::Json& record);

  /// Journals a subscription's delivery cursor: every event with a sequence
  /// <= `sequence` has been acknowledged by the destination. Last record
  /// wins on replay.
  void LogEventCursor(const std::string& subscription_uri, std::uint64_t sequence);

  /// Commits everything buffered (group commit now).
  Status Flush();

  /// True when the journal has grown past the compaction thresholds.
  bool compaction_due() const;

  /// Snapshot + rotate. `export_state` is invoked with no store locks held
  /// (lock-order: tree before store) and must return the tree's ExportState()
  /// document. The store flips into carry mode *before* the export, so any
  /// record journaled concurrently — whose effect may or may not have made
  /// the snapshot — is re-journaled into the fresh generation; replay is
  /// idempotent, so the overlap is harmless and nothing is lost to rotation.
  Status Compact(const std::function<json::Json()>& export_state,
                 const std::vector<DurableSession>& sessions);
  /// As above, additionally folding event-delivery state into the snapshot.
  Status Compact(const std::function<json::Json()>& export_state,
                 const std::vector<DurableSession>& sessions,
                 const DurableEventState& events);

  struct RecoveredState {
    RecoveryReport report;
    std::vector<DurableSession> sessions;
    DurableEventState events;
  };

  /// Loads the snapshot and replays the journal into `tree` (wholesale; the
  /// tree's previous contents are discarded). Call once, before attaching
  /// LogMutation to the tree. Torn tails are truncated on disk so the next
  /// recovery sees a clean journal.
  Result<RecoveredState> Recover(redfish::ResourceTree& tree);

  StoreStats stats() const;
  bool crashed() const;
  const StoreOptions& options() const { return options_; }
  std::string snapshot_path() const;

 private:
  explicit PersistentStore(StoreOptions options);

  Status StartGeneration(std::uint64_t generation);
  void AppendRecord(std::string payload);
  Status CommitLocked();
  void SimulateCrashLocked();
  FaultDecision Probe(const char* point);

  std::string JournalPathFor(std::uint64_t generation) const;
  std::vector<std::pair<std::uint64_t, std::string>> ListJournalFiles() const;

  StoreOptions options_;
  std::shared_ptr<FaultInjector> faults_;

  /// Held for the whole of Compact(): two concurrent compactions would race
  /// carry_/generation rotation and can lose committed records. Acquired
  /// before mu_ (mu_ is dropped during the export); never the reverse.
  std::mutex compact_mu_;
  mutable std::mutex mu_;
  std::unique_ptr<Journal> journal_;  // active generation
  std::uint64_t generation_ = 0;
  std::uint64_t synced_bytes_ = 0;  // survives a simulated power loss
  std::vector<std::string> pending_;  // framed but uncommitted records
  std::size_t pending_bytes_ = 0;
  bool compacting_ = false;
  std::vector<std::string> carry_;  // records logged while a Compact exports
  bool dead_ = false;
  std::uint64_t records_since_compact_ = 0;
  StoreStats stats_;
};

}  // namespace ofmf::store
