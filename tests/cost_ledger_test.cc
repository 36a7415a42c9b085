#include "src/stats/cost_ledger.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/types.h"

// Every heap allocation in this binary bumps this counter, so a test can
// assert that a stretch of code allocates nothing. The matching deletes are
// replaced too, so sanitizer builds see malloc paired with free throughout.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
// Kept out of line: inlined into a caller, GCC would pair the free() with
// that caller's operator new and warn about a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace camelot {
namespace {

CostEvent Event(uint32_t site, std::string_view role, std::string_view phase,
                CostPrimitive primitive) {
  return CostEvent{SiteId{site}, role, phase, primitive};
}

TEST(CostLedgerTest, KeyUsesRolePhaseAndPrimitiveSuffix) {
  EXPECT_EQ(CostLedger::Key(Event(0, "coord", "2pc.commit", CostPrimitive::kLogForce)),
            "coord/2pc.commit/force");
  EXPECT_EQ(CostLedger::Key(Event(1, "sub", "COMMIT-ACK", CostPrimitive::kDatagram)),
            "sub/COMMIT-ACK/dgram");
  EXPECT_EQ(CostLedger::Key(Event(0, "ipc", "tranman", CostPrimitive::kLocalIpc)),
            "ipc/tranman/call");
  EXPECT_EQ(CostLedger::Key(Event(0, "ipc", "server", CostPrimitive::kLocalIpcServer)),
            "ipc/server/server_call");
  EXPECT_EQ(CostLedger::Key(Event(0, "ipc", "server", CostPrimitive::kLocalOutOfLine)),
            "ipc/server/oob");
  EXPECT_EQ(CostLedger::Key(Event(0, "ipc", "server", CostPrimitive::kLocalOneway)),
            "ipc/server/oneway");
  EXPECT_EQ(CostLedger::Key(Event(0, "ipc", "comman", CostPrimitive::kRemoteRpc)),
            "ipc/comman/rpc");
  EXPECT_EQ(CostLedger::Key(Event(0, "sub", "commit", CostPrimitive::kLogSpool)),
            "sub/commit/spool");
}

TEST(CostLedgerTest, CountsAggregateByKey) {
  CostLedger ledger;
  ledger.Record(Event(0, "coord", "2pc.commit", CostPrimitive::kLogForce));
  ledger.Record(Event(0, "coord", "2pc.commit", CostPrimitive::kLogForce));
  ledger.Record(Event(1, "sub", "prepare", CostPrimitive::kLogForce));
  const CountVector counts = ledger.Counts();
  EXPECT_EQ(counts.at("coord/2pc.commit/force"), 2);
  EXPECT_EQ(counts.at("sub/prepare/force"), 1);
  EXPECT_EQ(counts.size(), 2u);
}

TEST(CostLedgerTest, ConformanceCountsExcludeNetAndWalShadows) {
  CostLedger ledger;
  ledger.Record(Event(0, "coord", "COMMIT", CostPrimitive::kDatagram));
  ledger.Record(Event(0, "net", "COMMIT", CostPrimitive::kDatagram));
  ledger.Record(Event(0, "wal", "force", CostPrimitive::kLogForce));
  ledger.Record(Event(0, "ipc", "tranman", CostPrimitive::kLocalIpc));
  const CountVector conformance = ledger.ConformanceCounts();
  EXPECT_EQ(conformance.count("net/COMMIT/dgram"), 0u);
  EXPECT_EQ(conformance.count("wal/force/force"), 0u);
  EXPECT_EQ(conformance.at("coord/COMMIT/dgram"), 1);
  EXPECT_EQ(conformance.at("ipc/tranman/call"), 1);
  // Protocol view additionally drops the IPC layer.
  const CountVector protocol = ledger.ProtocolCounts();
  EXPECT_EQ(protocol.count("ipc/tranman/call"), 0u);
  EXPECT_EQ(protocol.at("coord/COMMIT/dgram"), 1);
}

TEST(CostLedgerTest, UnexpectedRolesStayInConformanceDomain) {
  // Takeover activity during a "fault-free" run must surface in a diff, not
  // vanish into an exclusion list.
  CostLedger ledger;
  ledger.Record(Event(2, "takeover", "replicate", CostPrimitive::kLogForce));
  EXPECT_EQ(ledger.ConformanceCounts().at("takeover/replicate/force"), 1);
}

TEST(CostLedgerTest, DiffEmptyIffEqual) {
  CountVector a{{"coord/commit/force", 1}, {"sub/prepare/force", 2}};
  CountVector b = a;
  EXPECT_EQ(CostLedger::Diff(a, b), "");
  b["sub/prepare/force"] = 3;
  const std::string diff = CostLedger::Diff(a, b);
  EXPECT_NE(diff.find("sub/prepare/force"), std::string::npos);
  EXPECT_NE(diff.find("predicted 2"), std::string::npos);
  EXPECT_NE(diff.find("measured 3"), std::string::npos);
  EXPECT_NE(diff.find("(+1)"), std::string::npos);
  // Keys only on one side appear too, with a signed delta.
  CountVector missing{{"coord/commit/force", 1}};
  const std::string missing_diff = CostLedger::Diff(a, missing);
  EXPECT_NE(missing_diff.find("sub/prepare/force"), std::string::npos);
  EXPECT_NE(missing_diff.find("(-2)"), std::string::npos);
}

TEST(CostLedgerTest, AddCountsMerges) {
  CountVector into{{"a/b/force", 1}};
  AddCounts(into, CountVector{{"a/b/force", 2}, {"c/d/dgram", 1}});
  EXPECT_EQ(into.at("a/b/force"), 3);
  EXPECT_EQ(into.at("c/d/dgram"), 1);
}

TEST(CostLedgerTest, RenderListsEveryEntry) {
  const std::string rendered =
      CostLedger::Render(CountVector{{"a/b/force", 1}, {"c/d/dgram", 2}});
  EXPECT_NE(rendered.find("a/b/force"), std::string::npos);
  EXPECT_NE(rendered.find("c/d/dgram"), std::string::npos);
}

TEST(CostLedgerTest, DefaultRecorderIsInert) {
  const CostRecorder recorder;
  EXPECT_FALSE(recorder.active());
  // Must not crash.
  recorder.Record("coord", "commit", CostPrimitive::kLogForce);
}

TEST(CostLedgerTest, RecorderTagsSite) {
  CostLedger ledger;
  const CostRecorder recorder(&ledger, SiteId{7});
  EXPECT_TRUE(recorder.active());
  recorder.Record("coord", "commit", CostPrimitive::kLogForce);
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.events().begin()->site, SiteId{7});
}

// --- Aggregation against a per-event reference ---------------------------------

using EventTuple = std::tuple<uint32_t, std::string, std::string, CostPrimitive>;

// A seeded stream over 4 sites and every role family the runtime records,
// with enough distinct keys to grow the index several times. One phase is
// longer than any small-string buffer, so its text lives on the heap.
std::vector<EventTuple> RandomStream(uint64_t seed, int n) {
  static const char* const kRoles[] = {"coord", "sub", "ipc", "net", "wal", "takeover"};
  static const char* const kPhases[] = {"2pc.commit", "PREPARE", "tranman", "send",
                                        "a-phase-name-longer-than-any-sso-buffer"};
  std::mt19937_64 rng(seed);
  std::vector<EventTuple> stream;
  stream.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    stream.emplace_back(static_cast<uint32_t>(rng() % 4), kRoles[rng() % 6], kPhases[rng() % 5],
                        static_cast<CostPrimitive>(rng() % 8));
  }
  return stream;
}

// The reference fold: one key per event, filtered by role, summed.
CountVector FoldCounts(const std::vector<EventTuple>& stream,
                       const std::vector<std::string>& excluded_roles) {
  CountVector counts;
  for (const auto& [site, role, phase, primitive] : stream) {
    bool excluded = false;
    for (const std::string& r : excluded_roles) {
      excluded = excluded || r == role;
    }
    if (!excluded) {
      ++counts[role + "/" + phase + "/" + CostPrimitiveSuffix(primitive)];
    }
  }
  return counts;
}

std::map<EventTuple, int64_t> Multiset(const std::vector<EventTuple>& stream) {
  std::map<EventTuple, int64_t> out;
  for (const EventTuple& e : stream) {
    ++out[e];
  }
  return out;
}

void RecordStream(CostLedger& ledger, const std::vector<EventTuple>& stream) {
  for (const auto& [site, role, phase, primitive] : stream) {
    ledger.Record(Event(site, role, phase, primitive));
  }
}

TEST(CostLedgerTest, AggregatesMatchPerEventFold) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<EventTuple> stream = RandomStream(seed, 20000);
    CostLedger ledger;
    RecordStream(ledger, stream);
    EXPECT_EQ(ledger.size(), stream.size());
    EXPECT_EQ(ledger.Counts(), FoldCounts(stream, {})) << "seed " << seed;
    EXPECT_EQ(ledger.ConformanceCounts(), FoldCounts(stream, {"net", "wal"})) << "seed " << seed;
    EXPECT_EQ(ledger.ProtocolCounts(), FoldCounts(stream, {"net", "wal", "ipc"}))
        << "seed " << seed;
  }
}

TEST(CostLedgerTest, EventsYieldTheRecordedMultiset) {
  const std::vector<EventTuple> stream = RandomStream(7, 20000);
  CostLedger ledger;
  RecordStream(ledger, stream);
  std::vector<EventTuple> yielded;
  for (const CostEvent& e : ledger.events()) {
    yielded.emplace_back(e.site.value, std::string(e.role), std::string(e.phase), e.primitive);
  }
  EXPECT_EQ(yielded.size(), ledger.size());
  EXPECT_EQ(Multiset(yielded), Multiset(stream));
}

TEST(CostLedgerTest, EmptyLedgerYieldsNothing) {
  const CostLedger ledger;
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_TRUE(ledger.events().begin() == ledger.events().end());
  EXPECT_TRUE(ledger.Counts().empty());
}

TEST(CostLedgerTest, ClearResetsCountsAndSize) {
  CostLedger ledger;
  RecordStream(ledger, RandomStream(11, 5000));
  ledger.Clear();
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_TRUE(ledger.Counts().empty());
  EXPECT_TRUE(ledger.ConformanceCounts().empty());
  EXPECT_TRUE(ledger.events().begin() == ledger.events().end());
  // Recording after a Clear counts from zero, for old and new keys alike.
  const std::vector<EventTuple> again = RandomStream(12, 3000);
  RecordStream(ledger, again);
  EXPECT_EQ(ledger.size(), again.size());
  EXPECT_EQ(ledger.Counts(), FoldCounts(again, {}));
  std::vector<EventTuple> yielded;
  for (const CostEvent& e : ledger.events()) {
    yielded.emplace_back(e.site.value, std::string(e.role), std::string(e.phase), e.primitive);
  }
  EXPECT_EQ(Multiset(yielded), Multiset(again));
}

TEST(CostLedgerTest, RecordCopiesKeyTextFromTemporaries) {
  CostLedger ledger;
  const std::string long_role(40, 'r');
  const std::string long_phase(48, 'p');
  {
    // Heap-backed strings freed right after the call: the ledger must not
    // keep views into them (ASan turns a kept view into a use-after-free).
    std::string role = long_role;
    std::string phase = long_phase;
    ledger.Record(CostEvent{SiteId{2}, role, phase, CostPrimitive::kLogForce});
  }
  ledger.Record(
      CostEvent{SiteId{2}, std::string(long_role), std::string(long_phase), CostPrimitive::kLogForce});
  {
    const CostRecorder recorder(&ledger, SiteId{3});
    recorder.Record(std::string(long_role), std::string("tmp-") + long_phase,
                    CostPrimitive::kDatagram);
  }
  EXPECT_EQ(ledger.size(), 3u);
  const CountVector counts = ledger.Counts();
  EXPECT_EQ(counts.at(long_role + "/" + long_phase + "/force"), 2);
  EXPECT_EQ(counts.at(long_role + "/tmp-" + long_phase + "/dgram"), 1);
  int64_t seen = 0;
  for (const CostEvent& e : ledger.events()) {
    EXPECT_EQ(e.role, long_role);
    ++seen;
  }
  EXPECT_EQ(seen, 3);
}

TEST(CostLedgerTest, RecordingSeenKeysDoesNotAllocate) {
  const std::vector<EventTuple> stream = RandomStream(5, 4000);
  CostLedger ledger;
  const int64_t warmup_start = g_allocations.load();
  RecordStream(ledger, stream);  // Warm-up: every key in the stream is seen.
  // First sightings copy key text and grow the index, so the counter moves.
  EXPECT_GT(g_allocations.load() - warmup_start, 0);
  const CostRecorder recorder(&ledger, SiteId{1});
  recorder.Record("ipc", "tranman", CostPrimitive::kLocalIpc);

  const int64_t before = g_allocations.load();
  for (int i = 0; i < 100000; ++i) {
    const auto& [site, role, phase, primitive] = stream[static_cast<size_t>(i) % stream.size()];
    ledger.Record(Event(site, role, phase, primitive));
  }
  for (int i = 0; i < 1000; ++i) {
    recorder.Record("ipc", "tranman", CostPrimitive::kLocalIpc);
  }
  int64_t yielded = 0;
  for (const CostEvent& e : ledger.events()) {
    yielded += e.site.value < 4 ? 1 : 0;
  }
  const int64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(ledger.size(), stream.size() + 1 + 100000 + 1000);
  EXPECT_EQ(static_cast<size_t>(yielded), ledger.size());
}

}  // namespace
}  // namespace camelot
