// CostLedger: a queryable count of every cost-model primitive the running
// system executes — log forces and spooled appends, datagrams, local IPCs,
// remote RPCs — aggregated per {site, role, phase, primitive} bucket.
//
// The paper's static analysis (src/analysis) predicts protocol latency as a
// sum of exactly these primitives (Table 2). The ledger is the measured side
// of that equation: the ConformanceOracle (src/harness) diffs the predicted
// primitive-count vector against the ledger after every fault-free protocol
// run, so an extra log force or datagram fails tests instead of silently
// invalidating every reproduced figure.
//
// Every reader consumes aggregates, so the ledger keeps one counter per
// distinct key rather than one record per primitive: its memory is bounded
// by the number of keys a world ever uses (tens), not by how long it runs.
// Recording a key already seen hashes it, finds its bucket and bumps a
// counter; it never allocates.
//
// Count vectors are keyed "role/phase/primitive", e.g.
//   coord/2pc.commit/force   sub/COMMIT-ACK/dgram   ipc/tranman/call
// Roles "coord" and "sub" describe protocol work; "ipc" the local/remote IPC
// layer; "net" and "wal" are site-level shadows of the same activity (every
// datagram also appears as net/..., every force as wal/...) kept outside the
// conformance domain.
#ifndef SRC_STATS_COST_LEDGER_H_
#define SRC_STATS_COST_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/types.h"

namespace camelot {

// One countable primitive from the paper's Table 2 cost model.
enum class CostPrimitive {
  kLogForce,        // Synchronous log force (15ms in the model).
  kLogSpool,        // Unforced log append (free in the model, counted anyway).
  kDatagram,        // One protocol message to one destination.
  kLocalIpc,        // Local RPC, client-style (1.5ms).
  kLocalIpcServer,  // Local RPC into a data server (3.0ms).
  kLocalOutOfLine,  // Local RPC with out-of-line body (5.5ms).
  kLocalOneway,     // Local one-way notification (1.0ms).
  kRemoteRpc,       // Remote server-to-server RPC (29ms).
};

// Short key suffix: "force", "spool", "dgram", "call", "server_call", "oob",
// "oneway", "rpc".
const char* CostPrimitiveSuffix(CostPrimitive primitive);

// One primitive occurrence. The views only need to outlive the Record call:
// the ledger copies a key's text the first time it sees the key.
struct CostEvent {
  SiteId site;
  std::string_view role;   // "coord", "sub", "ipc", "net", "wal", "peer", ...
  std::string_view phase;  // Protocol step ("2pc.commit") or message type ("PREPARE").
  CostPrimitive primitive = CostPrimitive::kLogForce;
};

// Counts keyed "role/phase/primitive-suffix". A std::map so diffs and
// renders are deterministically ordered.
using CountVector = std::map<std::string, int64_t>;

// Merge `add` into `into` (key-wise sum).
void AddCounts(CountVector& into, const CountVector& add);

class CostLedger {
  struct Bucket {
    SiteId site;
    CostPrimitive primitive;
    std::string role;
    std::string phase;
    uint64_t hash;
    int64_t count;
  };

 public:
  // A lazy view of the recorded events: each bucket yields its event `count`
  // times, bucket after bucket, so a pass yields exactly size() events with
  // the recorded multiset of {site, role, phase, primitive}. Nothing is
  // allocated. The views in each yielded event point into the ledger and are
  // invalidated by the next Record().
  class EventView {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = CostEvent;
      using difference_type = std::ptrdiff_t;
      using pointer = const CostEvent*;
      using reference = const CostEvent&;

      iterator() = default;
      const CostEvent& operator*() const { return event_; }
      const CostEvent* operator->() const { return &event_; }
      iterator& operator++();
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.bucket_ == b.bucket_ && a.left_ == b.left_;
      }

     private:
      friend class EventView;
      iterator(const Bucket* bucket, const Bucket* end);
      void Settle();  // Skips empty buckets and loads event_ from the current one.

      const Bucket* bucket_ = nullptr;
      const Bucket* end_ = nullptr;
      int64_t left_ = 0;  // Events still to yield from *bucket_.
      CostEvent event_;
    };

    iterator begin() const { return iterator(begin_, end_); }
    iterator end() const { return iterator(end_, end_); }

   private:
    friend class CostLedger;
    EventView(const Bucket* begin, const Bucket* end) : begin_(begin), end_(end) {}
    const Bucket* begin_;
    const Bucket* end_;
  };

  void Record(const CostEvent& event);
  // Zeroes every count and size(). The keys stay, so recording after a
  // Clear() does not allocate either.
  void Clear();
  // Events recorded since construction or the last Clear().
  size_t size() const { return size_; }
  EventView events() const {
    return EventView(buckets_.data(), buckets_.data() + buckets_.size());
  }

  // Every event, regardless of role.
  CountVector Counts() const { return CountsExcept({}); }
  // The conformance domain: everything except the site-level "net" and "wal"
  // shadows. Unexpected roles (e.g. "takeover" activity during a fault-free
  // run) are deliberately kept so they show up in a diff.
  CountVector ConformanceCounts() const { return CountsExcept({"net", "wal"}); }
  // Protocol-only view: ConformanceCounts() minus the IPC layer ("ipc/...").
  // This is what the explorers gate their discovery runs against.
  CountVector ProtocolCounts() const { return CountsExcept({"net", "wal", "ipc"}); }

  // "role/phase/primitive-suffix" for one event.
  static std::string Key(const CostEvent& event);

  // Human-readable per-primitive diff; empty string iff the vectors match
  // exactly. Lines look like:
  //   sub/commit/force: predicted 0, measured 1 (+1)
  static std::string Diff(const CountVector& predicted, const CountVector& measured);

  // One "key: count" line per entry, for reports.
  static std::string Render(const CountVector& counts);

 private:
  CountVector CountsExcept(std::initializer_list<std::string_view> roles) const;
  void Rehash(size_t slot_count);

  size_t size_ = 0;
  std::vector<Bucket> buckets_;  // Every key seen, in first-seen order.
  // Open-addressed index over buckets_: 0 is empty, else bucket index + 1.
  // Its size is a power of two, kept at least twice buckets_.size().
  std::vector<uint32_t> slots_;
};

// Per-site recording handle, wired through the runtime exactly like
// Failpoints: a default-constructed recorder is inert, so production objects
// carry one unconditionally and only worlds that install a ledger pay for
// recording.
class CostRecorder {
 public:
  CostRecorder() = default;
  CostRecorder(CostLedger* ledger, SiteId site) : ledger_(ledger), site_(site) {}

  bool active() const { return ledger_ != nullptr; }
  SiteId site() const { return site_; }

  void Record(std::string_view role, std::string_view phase, CostPrimitive primitive) const {
    if (ledger_ == nullptr) {
      return;
    }
    ledger_->Record(CostEvent{site_, role, phase, primitive});
  }

 private:
  CostLedger* ledger_ = nullptr;
  SiteId site_{};
};

}  // namespace camelot

#endif  // SRC_STATS_COST_LEDGER_H_
