#include "store/store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

#include "common/clock.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "json/parse.hpp"
#include "json/serialize.hpp"

namespace ofmf::store {
namespace fs = std::filesystem;
namespace {

constexpr char kSnapshotMagic[9] = "OFMFSNP1";
constexpr std::uint64_t kSnapshotMagicSize = 8;
constexpr const char* kSnapshotName = "snapshot.snap";
constexpr const char* kSnapshotTmpName = "snapshot.snap.tmp";

Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("cannot open " + path + " for fsync: " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal("fsync of " + path + " failed");
  return Status::Ok();
}

std::string EncodePut(const std::string& uri,
                      const redfish::ResourceTree::SnapshotPtr& after) {
  return json::Serialize(json::Json::Obj({{"op", "put"},
                                          {"uri", uri},
                                          {"type", after->odata_type},
                                          {"ver", after->version},
                                          {"doc", after->payload}}));
}

std::string EncodeDelete(const std::string& uri) {
  return json::Serialize(json::Json::Obj({{"op", "del"}, {"uri", uri}}));
}

std::string EncodeSession(const DurableSession& session) {
  return json::Serialize(json::Json::Obj({{"op", "sess"},
                                          {"id", session.id},
                                          {"user", session.user},
                                          {"token", session.token}}));
}

std::string EncodeEvent(std::uint64_t sequence, const json::Json& record) {
  return json::Serialize(json::Json::Obj(
      {{"op", "evt"}, {"seq", static_cast<std::int64_t>(sequence)}, {"rec", record}}));
}

std::string EncodeCursor(const std::string& uri, std::uint64_t sequence) {
  return json::Serialize(json::Json::Obj(
      {{"op", "cur"}, {"uri", uri}, {"seq", static_cast<std::int64_t>(sequence)}}));
}

}  // namespace

PersistentStore::PersistentStore(StoreOptions options) : options_(std::move(options)) {}

PersistentStore::~PersistentStore() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dead_) (void)CommitLocked();
}

Result<std::unique_ptr<PersistentStore>> PersistentStore::Open(StoreOptions options) {
  if (options.dir.empty()) return Status::InvalidArgument("store dir must be non-empty");
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("cannot create store dir " + options.dir + ": " + ec.message());
  }
  std::unique_ptr<PersistentStore> self(new PersistentStore(std::move(options)));
  std::uint64_t next_generation = 1;
  for (const auto& [generation, path] : self->ListJournalFiles()) {
    next_generation = std::max(next_generation, generation + 1);
  }
  OFMF_RETURN_IF_ERROR(self->StartGeneration(next_generation));
  return self;
}

std::string PersistentStore::JournalPathFor(std::uint64_t generation) const {
  char name[32];
  std::snprintf(name, sizeof(name), "journal-%08llu.wal",
                static_cast<unsigned long long>(generation));
  return (fs::path(options_.dir) / name).string();
}

std::string PersistentStore::snapshot_path() const {
  return (fs::path(options_.dir) / kSnapshotName).string();
}

std::vector<std::pair<std::uint64_t, std::string>> PersistentStore::ListJournalFiles()
    const {
  std::vector<std::pair<std::uint64_t, std::string>> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long generation = 0;
    // Round-trip the parsed generation through JournalPathFor: sscanf alone
    // would accept strays like journal-1.wal.bak and let Recover replay (and
    // Compact delete) files that are not journal generations.
    if (std::sscanf(name.c_str(), "journal-%llu.wal", &generation) == 1 &&
        fs::path(JournalPathFor(generation)).filename().string() == name) {
      files.emplace_back(generation, entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

Status PersistentStore::StartGeneration(std::uint64_t generation) {
  OFMF_ASSIGN_OR_RETURN(std::unique_ptr<Journal> journal,
                        Journal::Open(JournalPathFor(generation)));
  journal_ = std::move(journal);
  generation_ = generation;
  synced_bytes_ = journal_->size();
  records_since_compact_ = 0;
  return Status::Ok();
}

void PersistentStore::set_fault_injector(std::shared_ptr<FaultInjector> faults) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = std::move(faults);
}

FaultDecision PersistentStore::Probe(const char* point) {
  if (faults_ == nullptr || !faults_->enabled()) return {};
  return faults_->Evaluate(point);
}

void PersistentStore::LogMutation(const redfish::ResourceTree::Mutation& mutation) {
  AppendRecord(mutation.kind == redfish::ChangeKind::kDeleted
                   ? EncodeDelete(mutation.uri)
                   : EncodePut(mutation.uri, mutation.after));
}

void PersistentStore::LogSession(const DurableSession& session) {
  AppendRecord(EncodeSession(session));
}

void PersistentStore::LogEvent(std::uint64_t sequence, const json::Json& record) {
  AppendRecord(EncodeEvent(sequence, record));
}

void PersistentStore::LogEventCursor(const std::string& subscription_uri,
                                     std::uint64_t sequence) {
  AppendRecord(EncodeCursor(subscription_uri, sequence));
}

void PersistentStore::AppendRecord(std::string payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) {
    ++stats_.dropped_after_crash;
    return;
  }
  if (compacting_) carry_.push_back(payload);
  std::string frame = Journal::EncodeFrame(payload);
  pending_bytes_ += frame.size();
  pending_.push_back(std::move(frame));
  ++stats_.appended;
  ++records_since_compact_;
  const bool due = !options_.group_commit ||
                   pending_.size() >= options_.group_commit_records ||
                   pending_bytes_ >= options_.group_commit_bytes;
  if (due) (void)CommitLocked();
}

Status PersistentStore::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return CommitLocked();
}

Status PersistentStore::CommitLocked() {
  if (dead_) return Status::Unavailable("store crashed (injected)");
  if (pending_.empty()) return Status::Ok();

  // One commit = one span (child of whatever mutation triggered it) plus a
  // batch-size sample, so group-commit effectiveness shows up in telemetry.
  trace::Span commit_span("journal.commit");
  static metrics::Histogram& batch_records =
      metrics::Registry::instance().histogram("journal.batch.records");
  static metrics::Histogram& commit_latency =
      metrics::Registry::instance().histogram("journal.commit.ns");
  metrics::ScopedTimer commit_timer(commit_latency);
  batch_records.Record(pending_.size());
  if (commit_span.active()) {
    commit_span.Note(std::to_string(pending_.size()) + " records");
  }

  std::string batch;
  batch.reserve(pending_bytes_);
  for (const std::string& frame : pending_) batch.append(frame);
  const std::size_t records = pending_.size();
  pending_.clear();
  pending_bytes_ = 0;

  const FaultDecision crash = Probe("store.commit.crash");
  if (crash.kind == FaultKind::kCrash) {
    stats_.dropped_after_crash += records;
    SimulateCrashLocked();
    return Status::Unavailable("store crashed (injected) before commit");
  }
  const FaultDecision torn = Probe("store.commit.torn");
  if (torn.kind == FaultKind::kTornWrite) {
    // Power loss mid-write: only a prefix of the batch reaches the platter.
    // Those bytes ARE persistent — recovery must detect the half frame and
    // truncate it, not trust it.
    const std::string prefix = batch.substr(0, std::max<std::size_t>(1, batch.size() / 2));
    (void)journal_->AppendRaw(prefix);
    stats_.dropped_after_crash += records;
    synced_bytes_ = journal_->size();
    dead_ = true;
    return Status::Unavailable("store crashed (injected) mid-write: torn tail");
  }

  if (Status appended = journal_->AppendRaw(batch); !appended.ok()) {
    // Real I/O failure (disk full, EIO): the batch may be partially on disk
    // and can never be trusted. Roll the file back to its last synced byte
    // and mark the store dead — serving on while silently non-durable is
    // worse than failing loudly — and account for the loss.
    ++stats_.io_errors;
    stats_.dropped_after_crash += records;
    SimulateCrashLocked();
    OFMF_ERROR << "journal append failed, store is now dead: " << appended.message();
    return appended;
  }
  ++stats_.commits;
  stats_.committed += records;
  if (options_.fsync_on_commit) {
    const FaultDecision short_fsync = Probe("store.fsync");
    if (short_fsync.kind == FaultKind::kShortFsync) {
      // fsync silently skipped: the records sit in the page cache and will
      // vanish if a crash lands before the next successful fsync.
      return Status::Ok();
    }
    trace::Span fsync_span("journal.fsync");
    static metrics::Histogram& fsync_latency =
        metrics::Registry::instance().histogram("journal.fsync.ns");
    metrics::ScopedTimer fsync_timer(fsync_latency);
    if (Status synced = journal_->Fsync(); !synced.ok()) {
      // The batch reached the file but fsync failed, so the kernel makes no
      // promise it will ever reach the platter. Same treatment as a failed
      // write: truncate to the synced prefix, die loudly, count the loss.
      ++stats_.io_errors;
      stats_.dropped_after_crash += records;
      SimulateCrashLocked();
      OFMF_ERROR << "journal fsync failed, store is now dead: " << synced.message();
      return synced;
    }
    ++stats_.fsyncs;
  }
  synced_bytes_ = journal_->size();
  return Status::Ok();
}

void PersistentStore::SimulateCrashLocked() {
  // Everything past the last fsync lived in the page cache; it is gone.
  (void)journal_->TruncateTo(synced_bytes_);
  dead_ = true;
}

bool PersistentStore::compaction_due() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return false;
  return records_since_compact_ >= options_.compact_after_records ||
         (journal_ != nullptr && journal_->size() >= options_.compact_after_bytes);
}

Status PersistentStore::Compact(const std::function<json::Json()>& export_state,
                                const std::vector<DurableSession>& sessions) {
  return Compact(export_state, sessions, DurableEventState{});
}

Status PersistentStore::Compact(const std::function<json::Json()>& export_state,
                                const std::vector<DurableSession>& sessions,
                                const DurableEventState& events) {
  // Handle() triggers compaction from per-connection threads whenever it is
  // due; two interleaved compactions would clobber each other's carry_ and
  // could rotate an older snapshot over a newer one after deleting the
  // journal generations backing it. One compaction at a time; a loser just
  // skips — the winner's snapshot subsumes (or carries) its records.
  std::unique_lock<std::mutex> compact_lock(compact_mu_, std::try_to_lock);
  if (!compact_lock.owns_lock()) return Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return Status::Unavailable("store crashed (injected)");
    // Fold buffered records into the outgoing generation first. Their tree
    // effects happened before the export below acquires the tree lock, so
    // the snapshot subsumes them — and the old generation is only deleted
    // after the snapshot rename lands, so a failure anywhere in between
    // loses nothing.
    OFMF_RETURN_IF_ERROR(CommitLocked());
    // Carry mode: every record appended from here until rotation is kept
    // aside, because the export below may or may not observe its effect.
    compacting_ = true;
    carry_.clear();
  }
  const json::Json state = export_state();  // takes the tree lock; not ours

  json::Json doc = json::Json::Obj({{"format", 1}});
  doc.as_object().Set("resources", state.at("resources"));
  json::Array session_records;
  for (const DurableSession& session : sessions) {
    session_records.push_back(json::Json::Obj(
        {{"id", session.id}, {"user", session.user}, {"token", session.token}}));
  }
  doc.as_object().Set("sessions", json::Json(std::move(session_records)));
  doc.as_object().Set("eventseq", static_cast<std::int64_t>(events.next_sequence));
  json::Array event_records;
  for (const auto& [sequence, record] : events.events) {
    event_records.push_back(json::Json::Obj(
        {{"seq", static_cast<std::int64_t>(sequence)}, {"rec", record}}));
  }
  doc.as_object().Set("events", json::Json(std::move(event_records)));
  json::Array cursor_records;
  for (const auto& [uri, sequence] : events.cursors) {
    cursor_records.push_back(json::Json::Obj(
        {{"uri", uri}, {"seq", static_cast<std::int64_t>(sequence)}}));
  }
  doc.as_object().Set("cursors", json::Json(std::move(cursor_records)));
  const std::string serialized = json::Serialize(doc);

  std::lock_guard<std::mutex> lock(mu_);
  compacting_ = false;  // mu_ held through rotation: no append can interleave
  if (dead_) {
    carry_.clear();
    return Status::Unavailable("store crashed (injected)");
  }

  const FaultDecision before = Probe("store.compact.crash");
  if (before.kind == FaultKind::kCrash) {
    carry_.clear();
    SimulateCrashLocked();
    return Status::Unavailable("store crashed (injected) before snapshot write");
  }

  const std::string tmp_path = (fs::path(options_.dir) / kSnapshotTmpName).string();
  {
    const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return Status::Internal("cannot create " + tmp_path + ": " + std::strerror(errno));
    }
    const std::string frame = Journal::EncodeFrame(serialized);
    std::string blob;
    blob.reserve(kSnapshotMagicSize + frame.size());
    blob.append(kSnapshotMagic, kSnapshotMagicSize);
    blob.append(frame);
    std::size_t off = 0;
    Status wrote = Status::Ok();
    while (off < blob.size()) {
      const ssize_t n = ::write(fd, blob.data() + off, blob.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        wrote = Status::Internal("snapshot write failed: " + std::string(std::strerror(errno)));
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    if (wrote.ok() && ::fsync(fd) != 0) {
      wrote = Status::Internal("snapshot fsync failed");
    }
    ::close(fd);
    if (!wrote.ok()) return wrote;
  }

  const FaultDecision mid = Probe("store.compact.crash");
  if (mid.kind == FaultKind::kCrash) {
    // Crash between tmp write and rename: the old snapshot (or none) stays
    // authoritative; the tmp file is ignored by recovery.
    carry_.clear();
    SimulateCrashLocked();
    return Status::Unavailable("store crashed (injected) before snapshot rename");
  }

  std::error_code ec;
  fs::rename(tmp_path, snapshot_path(), ec);
  if (ec) return Status::Internal("snapshot rename failed: " + ec.message());
  OFMF_RETURN_IF_ERROR(FsyncPath(options_.dir));

  // Rotate: fresh generation first, then delete the old ones. A crash in
  // between leaves extra generations whose replay over the new snapshot is
  // idempotent (state records), so recovery still converges.
  const std::uint64_t old_generation = generation_;
  OFMF_RETURN_IF_ERROR(StartGeneration(old_generation + 1));
  for (const auto& [generation, path] : ListJournalFiles()) {
    if (generation <= old_generation) fs::remove(path, ec);
  }

  // Records journaled while the caller serialized the tree: re-journal them
  // into the fresh generation (their effects may postdate the snapshot).
  // Everything buffered right now arrived during carry mode (the entry
  // commit drained the rest), so rebuilding pending_ from carry_ alone
  // journals each of those records exactly once.
  pending_.clear();
  pending_bytes_ = 0;
  for (const std::string& record : carry_) {
    std::string frame = Journal::EncodeFrame(record);
    pending_bytes_ += frame.size();
    pending_.push_back(std::move(frame));
    ++records_since_compact_;
  }
  carry_.clear();
  ++stats_.compactions;
  return CommitLocked();
}

Result<PersistentStore::RecoveredState> PersistentStore::Recover(
    redfish::ResourceTree& tree) {
  // Recover is a startup-time, single-caller operation (documented: call
  // once, before attaching LogMutation). mu_ is taken only around the
  // store's own journal state, never across tree calls — the mutation-log
  // path locks tree-then-store, so holding mu_ while replaying into the
  // tree would invert that order.
  std::uint64_t active_generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return Status::Unavailable("store crashed (injected)");
    active_generation = generation_;
  }
  Stopwatch timer;
  RecoveredState recovered;
  // Cursor records are last-wins (snapshot first, then journal order); fold
  // through a map and flatten at the end.
  std::map<std::string, std::uint64_t> cursors;
  auto note_sequence = [&recovered](std::uint64_t sequence) {
    recovered.events.next_sequence = std::max(recovered.events.next_sequence, sequence);
  };

  // 1. Snapshot (when present and intact).
  {
    std::ifstream in(snapshot_path(), std::ios::binary);
    if (in) {
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      std::string corrupt;  // when non-empty: why the snapshot can't be trusted
      Journal::Scan scan;
      if (bytes.size() <= kSnapshotMagicSize + 8 ||
          std::memcmp(bytes.data(), kSnapshotMagic, kSnapshotMagicSize) != 0) {
        corrupt = "bad magic header";
      } else {
        scan = [&] {
          // Reuse the frame parser by viewing the snapshot body as one frame.
          Journal::Scan s;
          const char* p = bytes.data() + kSnapshotMagicSize;
          const std::uint32_t length =
              static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
              (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
              (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
              (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24);
          const std::uint32_t crc =
              static_cast<std::uint32_t>(static_cast<unsigned char>(p[4])) |
              (static_cast<std::uint32_t>(static_cast<unsigned char>(p[5])) << 8) |
              (static_cast<std::uint32_t>(static_cast<unsigned char>(p[6])) << 16) |
              (static_cast<std::uint32_t>(static_cast<unsigned char>(p[7])) << 24);
          if (kSnapshotMagicSize + 8 + length > bytes.size()) {
            s.torn_tail = true;
            return s;
          }
          const std::string_view payload(p + 8, length);
          if (Crc32(payload) != crc) {
            s.torn_tail = true;
            return s;
          }
          s.records.emplace_back(payload);
          return s;
        }();
        if (scan.torn_tail || scan.records.empty()) corrupt = "failed its CRC check";
      }
      if (!corrupt.empty()) {
        const std::string path = snapshot_path();
        OFMF_ERROR << "snapshot " << path << " " << corrupt
                   << (options_.recover_without_snapshot
                           ? "; setting it aside and recovering from journals alone"
                           : "; refusing to recover");
        if (!options_.recover_without_snapshot) {
          // Refuse by default: journals alone may not reach back past the
          // last compaction, so silently continuing could resurrect a stale
          // tree. The message names the file and the explicit way out.
          return Status::Internal(
              "snapshot " + path + " " + corrupt +
              "; restore it from a copy, or set "
              "StoreOptions::recover_without_snapshot to set it aside and "
              "rebuild from the surviving journal generations alone");
        }
        // Opt-in degraded path: keep the bad snapshot for forensics (never
        // deleted, and the .corrupt name hides it from future recoveries)
        // and fall through to journal-only replay.
        std::error_code ec;
        fs::rename(path, path + ".corrupt", ec);
        recovered.report.snapshot_discarded = true;
      } else {
        OFMF_ASSIGN_OR_RETURN(json::Json doc, json::Parse(scan.records.front()));
        OFMF_RETURN_IF_ERROR(tree.ImportState(doc));
        recovered.report.had_snapshot = true;
        const json::Json& sessions = doc.at("sessions");
        if (sessions.is_array()) {
          for (const json::Json& entry : sessions.as_array()) {
            recovered.sessions.push_back({entry.GetString("id"), entry.GetString("user"),
                                          entry.GetString("token")});
          }
        }
        note_sequence(static_cast<std::uint64_t>(doc.GetInt("eventseq", 0)));
        const json::Json& events = doc.at("events");
        if (events.is_array()) {
          for (const json::Json& entry : events.as_array()) {
            const auto sequence = static_cast<std::uint64_t>(entry.GetInt("seq", 0));
            recovered.events.events.emplace_back(sequence, entry.at("rec"));
            note_sequence(sequence);
          }
        }
        const json::Json& snapshot_cursors = doc.at("cursors");
        if (snapshot_cursors.is_array()) {
          for (const json::Json& entry : snapshot_cursors.as_array()) {
            const auto sequence = static_cast<std::uint64_t>(entry.GetInt("seq", 0));
            cursors[entry.GetString("uri")] = sequence;
            note_sequence(sequence);
          }
        }
      }
    }
  }

  // 2. Journal replay, oldest generation first, stopping (for good) at the
  //    first torn or corrupt frame: everything after it postdates the damage
  //    and cannot be trusted to be a prefix of history.
  bool stop = false;
  for (const auto& [generation, path] : ListJournalFiles()) {
    if (stop) break;
    OFMF_ASSIGN_OR_RETURN(Journal::Scan scan, Journal::ReadAll(path));
    for (const std::string& record : scan.records) {
      OFMF_ASSIGN_OR_RETURN(json::Json doc, json::Parse(record));
      const std::string op = doc.GetString("op");
      if (op == "put") {
        OFMF_RETURN_IF_ERROR(tree.RestorePut(
            doc.GetString("uri"), doc.GetString("type"), doc.at("doc"),
            static_cast<std::uint64_t>(doc.GetInt("ver", 1))));
      } else if (op == "del") {
        OFMF_RETURN_IF_ERROR(tree.RestoreDelete(doc.GetString("uri")));
      } else if (op == "sess") {
        recovered.sessions.push_back(
            {doc.GetString("id"), doc.GetString("user"), doc.GetString("token")});
      } else if (op == "evt") {
        const auto sequence = static_cast<std::uint64_t>(doc.GetInt("seq", 0));
        recovered.events.events.emplace_back(sequence, doc.at("rec"));
        note_sequence(sequence);
      } else if (op == "cur") {
        const auto sequence = static_cast<std::uint64_t>(doc.GetInt("seq", 0));
        cursors[doc.GetString("uri")] = sequence;
        note_sequence(sequence);
      }  // unknown ops are skipped: forward compatibility
      ++recovered.report.records_replayed;
    }
    if (scan.torn_tail) {
      recovered.report.torn_tail = true;
      stop = true;
      if (generation == active_generation) {
        std::lock_guard<std::mutex> lock(mu_);
        OFMF_RETURN_IF_ERROR(journal_->TruncateTo(
            std::max<std::uint64_t>(scan.valid_bytes, Journal::kMagicSize)));
        synced_bytes_ = journal_->size();
      } else {
        std::error_code ec;
        fs::resize_file(path, std::max<std::uint64_t>(scan.valid_bytes, 0), ec);
      }
    }
  }

  recovered.events.cursors.assign(cursors.begin(), cursors.end());
  recovered.report.resources = tree.size();
  recovered.report.sessions = recovered.sessions.size();
  recovered.report.recover_seconds = timer.ElapsedSeconds();
  return recovered;
}

StoreStats PersistentStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool PersistentStore::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

}  // namespace ofmf::store
