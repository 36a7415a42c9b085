// camelot_bench: one workload of the host-cost benchmark, driven only through
// the system's public calls (World / AppClient / SetupBank / LoadGen,
// CrashExplorer, SpecMachine / CheckSpec) and its public counter structs.
//
//   camelot_bench --workload local_crank|dist_bank|chaos_sweep|modelcheck
//                 --seed N [--traced] [--trace-out FILE] [--check-reference]
//                 [--no-ref-kernel]
//
// One process runs one pass of the workload: a few set-ups that are timed and
// thrown away, then one set-up and its timed phase. run.py starts a fresh
// process per pass, because a pass that follows another in the same process
// runs on a fragmented heap and is measurably slower. A pass's deterministic
// counts (per-layer work counters and virtual-time results) depend only on
// the seed, so run.py compares them across processes.
//
// --traced switches on the allocation counter and records a span around each
// call into the program, written at exit as Chrome trace-event JSON.
// --check-reference re-runs local_crank through RunThroughputExperiment and
// requires the same virtual-time throughput. --no-ref-kernel turns off the
// reference kernel (see RefKernel).
//
// Prints one JSON object on stdout. Correctness gates land in "violations";
// failing chaos scenarios land in "failures" with their replay recipes.

#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/model_checker.h"
#include "src/analysis/protocol_spec.h"
#include "src/base/codec.h"
#include "src/base/rng.h"
#include "src/harness/bank_workload.h"
#include "src/harness/crash_explorer.h"
#include "src/harness/experiments.h"
#include "src/harness/load_gen.h"
#include "src/harness/world.h"
#include "src/stats/summary.h"

// --- Allocation counter ---------------------------------------------------------
//
// Replaces the global operator new/delete of this binary only. Counting is
// off until a traced run switches it on. Bytes are malloc_usable_size bytes,
// so live-byte tracking needs no size header. The load is single-threaded;
// the atomics only keep the counter well-defined if a library thread
// allocates.

namespace {

std::atomic<bool> g_alloc_on{false};
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_live_bytes{0};

void NoteAlloc(void* p) {
  const auto n = static_cast<int64_t>(malloc_usable_size(p));
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
  const int64_t live = g_live_bytes.fetch_add(n, std::memory_order_relaxed) + n;
  if (live > g_peak_live_bytes.load(std::memory_order_relaxed)) {
    g_peak_live_bytes.store(live, std::memory_order_relaxed);
  }
}

void* CountedAlloc(std::size_t n) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr && g_alloc_on.load(std::memory_order_relaxed)) {
    NoteAlloc(p);
  }
  return p;
}

void* CountedAllocOrThrow(std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void CountedFree(void* p) noexcept {
  if (p != nullptr && g_alloc_on.load(std::memory_order_relaxed)) {
    g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return CountedAllocOrThrow(n); }
void* operator new[](std::size_t n) { return CountedAllocOrThrow(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { CountedFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { CountedFree(p); }

namespace {

using camelot::AppClient;
using camelot::Async;
using camelot::CheckResult;
using camelot::CheckSpec;
using camelot::CommitOptions;
using camelot::CrashExplorer;
using camelot::CrashSchedule;
using camelot::DiscoveredPoint;
using camelot::ExplorerConfig;
using camelot::LoadGen;
using camelot::LoadGenConfig;
using camelot::Rng;
using camelot::SimDuration;
using camelot::SimTime;
using camelot::SpecMachine;
using camelot::Status;
using camelot::Summary;
using camelot::World;
using camelot::WorldConfig;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  return rng.Next();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double RssBytes() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE));
}

// The resident high-water mark of this process image. getrusage's ru_maxrss
// is not used: it carries over the parent's resident size across fork+exec.
double PeakRssMb() {
  double kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
        break;
      }
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

struct AllocMark {
  uint64_t count = g_alloc_count.load(std::memory_order_relaxed);
  uint64_t bytes = g_alloc_bytes.load(std::memory_order_relaxed);
};

// Resets the live-byte high watermark; PeakLiveGrowth() reads how far live
// bytes rose above the level at the reset.
class LiveBytesWindow {
 public:
  LiveBytesWindow() : base_(g_live_bytes.load(std::memory_order_relaxed)) {
    g_peak_live_bytes.store(base_, std::memory_order_relaxed);
  }
  double PeakLiveGrowth() const {
    return static_cast<double>(g_peak_live_bytes.load(std::memory_order_relaxed) - base_);
  }

 private:
  int64_t base_;
};

// --- Reference kernel ---------------------------------------------------------------
//
// This host's speed changes from process to process and over seconds to
// minutes, by 10-20% (see NOTES.md, "Measured spread"). So each pass also
// times a fixed reference kernel while its timed phase runs, and run.py
// rescales the pass's host time by the kernel's mean time. A timer interrupts
// the benchmark's thread every kPeriodNs of wall time and the kernel runs in
// the signal handler, so it samples the same CPU at the same moments as the
// program, even inside one long call such as CheckSpec. The kernel inserts
// 5,000 short strings into a std::pmr::map inside a buffer of its own: it
// never calls malloc (which a signal handler may not), it leaves the
// program's heap alone, and no change to the program changes its work. Its
// time is left out of host_s. A disabled kernel never runs; the gprof passes
// disable it so that it stays out of their profile.
class RefKernel {
 public:
  explicit RefKernel(bool enabled) : enabled_(enabled), buffer_(2 << 20) {
    struct sigaction action {};
    action.sa_handler = &OnAlarm;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGALRM, &action, nullptr);
  }
  ~RefKernel() { Stop(); }
  RefKernel(const RefKernel&) = delete;
  RefKernel& operator=(const RefKernel&) = delete;

  // Starts a timed phase: clears the totals, runs the kernel once, and arms
  // the timer.
  void Start() {
    runs_ = 0;
    seconds_ = 0;
    if (!enabled_) {
      return;
    }
    Run();
    active_.store(this);
    sigevent event{};
    event.sigev_notify = SIGEV_THREAD_ID;
    event.sigev_signo = SIGALRM;
    event._sigev_un._tid = gettid();  // sigev_notify_thread_id; glibc 2.36 lacks the name.
    const itimerspec period{{0, kPeriodNs}, {0, kPeriodNs}};
    armed_ = timer_create(CLOCK_MONOTONIC, &event, &timer_) == 0;
    if (armed_) {
      timer_settime(timer_, 0, &period, nullptr);
    }
  }

  // Ends the timed phase; the kernel runs no more.
  void Stop() {
    active_.store(nullptr);
    if (armed_) {
      timer_delete(timer_);
      armed_ = false;
    }
  }

  int runs() const { return runs_; }
  double seconds() const { return seconds_; }

 private:
  static constexpr long kPeriodNs = 50'000'000;
  static constexpr int kInserts = 5000;

  static void OnAlarm(int /*signal*/) {
    if (RefKernel* kernel = active_.load()) {
      kernel->Run();
    }
  }

  void Run() {
    const Clock::time_point t0 = Clock::now();
    std::pmr::monotonic_buffer_resource arena(buffer_.data(), buffer_.size(),
                                              std::pmr::null_memory_resource());
    std::pmr::map<uint64_t, std::pmr::string> m(&arena);
    Rng rng(7);
    for (int i = 0; i < kInserts; ++i) {
      m.emplace(rng.Next(), std::pmr::string(16 + static_cast<size_t>(i % 64), 'x', &arena));
    }
    size_t chars = 0;
    for (const auto& [key, value] : m) {
      chars += value.size();
    }
    sink_ = chars;
    seconds_ = seconds_ + SecondsSince(t0);
    runs_ = runs_ + 1;
  }

  static inline std::atomic<RefKernel*> active_{nullptr};
  bool enabled_;
  std::vector<std::byte> buffer_;
  timer_t timer_{};
  bool armed_ = false;
  // Written by the signal handler, read by the thread it interrupts.
  volatile int runs_ = 0;
  volatile double seconds_ = 0;
  volatile size_t sink_ = 0;
};

// --- Minimal JSON output ------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonObject(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    out += (out.size() > 1 ? "," : "") + JsonString(k) + ":" + JsonNumber(v);
  }
  return out + "}";
}

template <typename T, typename F>
std::string JsonArray(const std::vector<T>& items, F render) {
  std::string out = "[";
  for (const T& item : items) {
    out += (out.size() > 1 ? "," : "") + render(item);
  }
  return out + "]";
}

// --- Spans ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::string cat;
  double ts_us = 0;
  double dur_us = 0;
  std::map<std::string, double> args;
};

// Spans recorded by the benchmark around its calls into the program. Inert
// unless enabled; kept in memory and written once at exit.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }

  void End(const char* name, const char* cat, Clock::time_point begin,
           std::map<std::string, double> args) {
    if (!on_) {
      return;
    }
    const Clock::time_point end = Clock::now();
    spans_.push_back({name, cat,
                      std::chrono::duration<double, std::micro>(begin - origin_).count(),
                      std::chrono::duration<double, std::micro>(end - begin).count(),
                      std::move(args)});
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\":" << JsonString(s.name)
          << ",\"cat\":" << JsonString(s.cat) << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << JsonNumber(s.ts_us) << ",\"dur\":" << JsonNumber(s.dur_us)
          << ",\"args\":" << JsonObject(s.args) << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Counter deltas a span carries: allocation counts always, plus whatever the
// caller measured over the same interval.
std::map<std::string, double> AllocDelta(const AllocMark& before,
                                         std::map<std::string, double> args = {}) {
  const AllocMark after;
  args["alloc.count"] = static_cast<double>(after.count - before.count);
  args["alloc.bytes"] = static_cast<double>(after.bytes - before.bytes);
  return args;
}

// --- Per-pass result -----------------------------------------------------------------

struct PassResult {
  double setup_s = 0;
  double host_s = 0;  // Timed phase (setup excluded).
  double work = 0;    // Commits, scenario runs, or model states.
  std::vector<double> step_ms;
  // Deterministic for a seed: per-layer work counts and virtual-time results.
  std::map<std::string, double> counts;
  // Host-cost measurements of the pass other than the timed phase.
  std::map<std::string, double> host;
  // Allocation totals of the timed phase (traced runs only).
  std::map<std::string, double> alloc;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;    // Failing scenario runs, with recipes.
  std::vector<std::string> violations;  // Correctness gates that did not hold.
};

// Work counters read from a world's public counter structs, summed over sites.
struct WorldCounters {
  double events = 0;
  double datagrams = 0;
  double multicasts = 0;
  double log_appends = 0;
  double log_force_requests = 0;
  double log_disk_writes = 0;
  double log_batched = 0;
  double log_bytes = 0;
  double disk_writes = 0;
  double disk_hits = 0;
  double disk_misses = 0;
  double lock_acquisitions = 0;
  double lock_waits = 0;
  double lock_timeouts = 0;
  double lock_releases = 0;
  double lock_hold_us = 0;
  double server_ops = 0;
  double piggybacked = 0;
  double pool_events = 0;
  double pool_queued = 0;
  double live_families = 0;
  double ledger_events = 0;
  double ipc_local = 0;
  double ipc_remote = 0;
  double inline_posts = 0;
  double pooled_posts = 0;
  Summary pool_wait_us;
};

void ReadWorldCounters(World& world, double events, WorldCounters* c) {
  c->events = events;
  const camelot::NetCounters& net = world.net().counters();
  c->datagrams = static_cast<double>(net.datagrams_sent);
  c->multicasts = static_cast<double>(net.multicasts_sent);
  for (int i = 0; i < world.site_count(); ++i) {
    camelot::CamelotSite& site = world.site(i);
    const camelot::LogCounters& log = site.log().counters();
    c->log_appends += static_cast<double>(log.appends);
    c->log_force_requests += static_cast<double>(log.force_requests);
    c->log_disk_writes += static_cast<double>(log.disk_writes);
    c->log_batched += static_cast<double>(log.records_batched);
    c->log_bytes += static_cast<double>(log.bytes_written);
    const camelot::DiskCounters& disk = site.diskmgr().counters();
    c->disk_writes += static_cast<double>(disk.writes);
    c->disk_hits += static_cast<double>(disk.reads_hit);
    c->disk_misses += static_cast<double>(disk.reads_miss);
    for (const auto& [name, server] : site.ServerMap()) {
      const camelot::LockCounters& lock = server->locks().counters();
      c->lock_acquisitions += static_cast<double>(lock.acquisitions);
      c->lock_waits += static_cast<double>(lock.waits);
      c->lock_timeouts += static_cast<double>(lock.timeouts);
      c->lock_releases += static_cast<double>(lock.releases);
      c->lock_hold_us += static_cast<double>(lock.total_hold_time_us);
      const camelot::ServerCounters& sc = server->counters();
      c->server_ops += static_cast<double>(sc.reads + sc.writes + sc.joins + sc.votes_update +
                                           sc.votes_readonly + sc.commits + sc.aborts +
                                           sc.deadline_rejects);
    }
    camelot::TranMan& tm = site.tranman();
    c->piggybacked += static_cast<double>(tm.counters().messages_piggybacked);
    c->pool_events += static_cast<double>(tm.pool().events());
    c->pool_queued += static_cast<double>(tm.pool().queued_events());
    for (double us : tm.pool().queued_time_us().samples()) {
      c->pool_wait_us.Add(us);
    }
    c->live_families += static_cast<double>(tm.live_family_count());
  }
  const camelot::CostLedger& ledger = world.cost_ledger();
  c->ledger_events = static_cast<double>(ledger.size());
  for (const camelot::CostEvent& e : ledger.events()) {
    if (e.role != "ipc") {
      continue;
    }
    if (e.primitive == camelot::CostPrimitive::kRemoteRpc) {
      c->ipc_remote += 1;
    } else {
      c->ipc_local += 1;
    }
  }
  c->inline_posts = static_cast<double>(world.sched().inline_posts());
  c->pooled_posts = static_cast<double>(world.sched().pooled_posts());
}

// The per-layer counts of a world pass, normalised per commit.
void AddWorldCounts(const WorldCounters& c, double commits, PassResult* out) {
  auto per_commit = [&](double v) { return Ratio(v, commits); };
  std::map<std::string, double>& m = out->counts;
  m["commits"] = commits;
  m["sim.events"] = c.events;
  m["sim.events_per_commit"] = per_commit(c.events);
  m["sim.pooled_post_frac"] = Ratio(c.pooled_posts, c.inline_posts + c.pooled_posts);
  m["net.datagrams_per_commit"] = per_commit(c.datagrams);
  m["net.multicasts_per_commit"] = per_commit(c.multicasts);
  m["ipc.local_calls_per_commit"] = per_commit(c.ipc_local);
  m["ipc.remote_calls_per_commit"] = per_commit(c.ipc_remote);
  m["wal.appends_per_commit"] = per_commit(c.log_appends);
  m["wal.forces_per_commit"] = per_commit(c.log_disk_writes);
  m["wal.batch_frac"] = Ratio(c.log_batched, c.log_force_requests);
  m["wal.bytes_per_commit"] = per_commit(c.log_bytes);
  m["diskmgr.writes_per_commit"] = per_commit(c.disk_writes);
  m["diskmgr.hit_frac"] = Ratio(c.disk_hits, c.disk_hits + c.disk_misses);
  m["lockmgr.acquisitions_per_commit"] = per_commit(c.lock_acquisitions);
  m["lockmgr.wait_frac"] = Ratio(c.lock_waits, c.lock_acquisitions);
  m["lockmgr.timeouts"] = c.lock_timeouts;
  m["lockmgr.hold_ms_mean"] = Ratio(c.lock_hold_us, c.lock_releases) / 1000.0;
  m["server.ops_per_commit"] = per_commit(c.server_ops);
  m["tranman.pool_wait_ms_p50"] = c.pool_wait_us.Percentile(50) / 1000.0;
  m["tranman.pool_wait_ms_p99"] = c.pool_wait_us.Percentile(99) / 1000.0;
  m["tranman.pool_queued_frac"] = Ratio(c.pool_queued, c.pool_events);
  m["tranman.piggybacked_per_commit"] = per_commit(c.piggybacked);
  m["tranman.live_families_end"] = c.live_families;
  m["ledger.events_per_commit"] = per_commit(c.ledger_events);
}

// Runs `steps` fixed virtual-time slices, timing each one; returns events run.
double RunSlices(World& world, int steps, SimDuration slice, SpanLog& spans,
                 const std::function<double()>& commits_so_far, PassResult* out) {
  double events = 0;
  out->step_ms.reserve(out->step_ms.size() + static_cast<size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    const AllocMark alloc;
    const uint64_t datagrams = world.net().counters().datagrams_sent;
    const size_t ledger = world.cost_ledger().size();
    const double commits = spans.on() ? commits_so_far() : 0;
    const Clock::time_point t0 = Clock::now();
    const double n = static_cast<double>(world.RunFor(slice));
    out->step_ms.push_back(SecondsSince(t0) * 1e3);
    events += n;
    if (spans.on()) {
      spans.End("World::RunFor", "sim", t0,
                AllocDelta(alloc, {{"events", n},
                                   {"commits", commits_so_far() - commits},
                                   {"datagrams", static_cast<double>(
                                                     world.net().counters().datagrams_sent -
                                                     datagrams)},
                                   {"ledger.events",
                                    static_cast<double>(world.cost_ledger().size() - ledger)}}));
    }
  }
  return events;
}

// --- local_crank: the Fig. 4 four-pair update throughput world ---------------------

constexpr int kCrankPairs = 4;
constexpr SimDuration kCrankDuration = camelot::Sec(6000);
constexpr int kCrankSteps = 1200;

camelot::ThroughputConfig CrankReferenceConfig(uint64_t seed) {
  camelot::ThroughputConfig cfg;
  cfg.pairs = kCrankPairs;
  cfg.kind = camelot::TxnKind::kWrite;
  cfg.tranman_threads = 20;
  cfg.group_commit = true;
  cfg.duration = kCrankDuration;
  cfg.seed = seed;
  return cfg;
}

// The world RunThroughputExperiment builds for `cfg` (VAX 8200 profile, one
// site, no network).
WorldConfig CrankWorldConfig(const camelot::ThroughputConfig& config) {
  WorldConfig cfg;
  cfg.site_count = 1;
  cfg.seed = config.seed;
  cfg.net.send_jitter_mean = 0;
  cfg.net.stall_probability = 0;
  cfg.net.receive_skew_mean = 0;
  auto scale = [&](SimDuration d) {
    return static_cast<SimDuration>(static_cast<double>(d) * config.ipc_scale);
  };
  cfg.ipc.local_rpc = scale(cfg.ipc.local_rpc);
  cfg.ipc.local_rpc_server = scale(cfg.ipc.local_rpc_server);
  cfg.ipc.local_oneway = scale(cfg.ipc.local_oneway);
  cfg.ipc.local_out_of_line = scale(cfg.ipc.local_out_of_line);
  cfg.ipc.kernel_cpu_per_ipc = config.kernel_cpu_per_ipc;
  cfg.tranman.worker_threads = config.tranman_threads;
  cfg.tranman.cpu_per_event = config.cpu_per_event;
  cfg.log.group_commit = config.group_commit;
  cfg.log.force_latency = config.force_latency;
  return cfg;
}

struct CrankTally {
  uint64_t attempts = 0;
  uint64_t failed = 0;
  uint64_t commits = 0;
  uint64_t window_commits = 0;  // Commits inside [warm-up end, end).
  Summary latency_ms;           // Begin to commit-return, window commits only.
};

// One closed-loop application of a pair: the same calls, think time and random
// draws as RunThroughputExperiment's client, plus latency bookkeeping.
Async<void> CrankClient(World& world, int pair, SimTime warmup_end, SimTime end,
                        CrankTally* tally) {
  AppClient app(world.site(0));
  camelot::Scheduler& sched = world.sched();
  const std::string server = "pair" + std::to_string(pair);
  Rng rng(world.config().seed * 1000003 + static_cast<uint64_t>(pair));
  int64_t next = 0;
  while (sched.now() < end) {
    co_await sched.Delay(static_cast<SimDuration>(rng.NextExponential(5000.0)));
    const SimTime begun = sched.now();
    ++tally->attempts;
    auto begin = co_await app.Begin();
    if (!begin.ok()) {
      ++tally->failed;
      co_return;
    }
    Status st = co_await app.WriteInt(*begin, server, "obj", next++);
    if (!st.ok()) {
      ++tally->failed;
      co_await app.Abort(*begin);
      continue;
    }
    st = co_await app.Commit(*begin);
    if (!st.ok()) {
      ++tally->failed;
      continue;
    }
    ++tally->commits;
    if (sched.now() >= warmup_end && sched.now() < end) {
      ++tally->window_commits;
      tally->latency_ms.Add(static_cast<double>(sched.now() - begun) / 1000.0);
    }
  }
}

PassResult LocalCrankPass(uint64_t seed, SpanLog& spans, RefKernel& ref, bool setup_only) {
  PassResult out;
  const camelot::ThroughputConfig config = CrankReferenceConfig(seed);
  const Clock::time_point t_setup = Clock::now();
  const AllocMark alloc_setup;
  auto world = std::make_unique<World>(CrankWorldConfig(config));
  for (int pair = 0; pair < kCrankPairs; ++pair) {
    world->AddServer(0, "pair" + std::to_string(pair))
        ->CreateObjectForSetup("obj", camelot::EncodeInt64(0));
  }
  const SimTime start = world->sched().now();
  const SimTime warmup_end = start + kCrankDuration / 10;
  const SimTime end = start + kCrankDuration;
  CrankTally tally;
  for (int pair = 0; pair < kCrankPairs; ++pair) {
    world->sched().Spawn(CrankClient(*world, pair, warmup_end, end, &tally));
  }
  out.setup_s = SecondsSince(t_setup);
  spans.End("setup: World + AddServer + clients", "harness", t_setup, AllocDelta(alloc_setup));
  if (setup_only) {
    return out;
  }

  const double rss_setup = RssBytes();
  const AllocMark alloc;
  const Clock::time_point t0 = Clock::now();
  ref.Start();
  double events = RunSlices(*world, kCrankSteps, kCrankDuration / kCrankSteps, spans,
                            [&] { return static_cast<double>(tally.commits); }, &out);
  const Clock::time_point t_drain = Clock::now();
  const double drained = static_cast<double>(world->RunUntilIdle());
  events += drained;
  spans.End("World::RunUntilIdle", "sim", t_drain, {{"events", drained}});
  ref.Stop();
  out.host_s = SecondsSince(t0) - ref.seconds();
  const AllocMark alloc_end;
  const double rss_end = RssBytes();

  const double commits = static_cast<double>(tally.commits);
  out.work = commits;
  out.attempted = tally.attempts;
  out.failed = tally.failed;
  WorldCounters c;
  ReadWorldCounters(*world, events, &c);
  AddWorldCounts(c, commits, &out);
  out.counts["vt_tps"] = static_cast<double>(tally.window_commits) /
                         (static_cast<double>(end - warmup_end) / 1e6);
  out.counts["vt_commit_p50_ms"] = tally.latency_ms.Percentile(50);
  out.counts["vt_commit_p99_ms"] = tally.latency_ms.Percentile(99);
  out.counts["window_commits"] = static_cast<double>(tally.window_commits);
  out.host["retained_bytes_per_commit"] = Ratio(rss_end - rss_setup, commits);
  out.alloc["alloc.count"] = static_cast<double>(alloc_end.count - alloc.count);
  out.alloc["alloc.bytes"] = static_cast<double>(alloc_end.bytes - alloc.bytes);
  return out;
}

// vt_tps must equal what RunThroughputExperiment reports for the same
// configuration and seed.
void CheckCrankReference(uint64_t seed, const PassResult& pass, std::vector<std::string>* v) {
  const camelot::ThroughputResult ref =
      camelot::RunThroughputExperiment(CrankReferenceConfig(seed));
  const double window_commits = pass.counts.at("window_commits");
  const double tps = pass.counts.at("vt_tps");
  if (static_cast<double>(ref.commits) != window_commits || ref.tps != tps) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "local_crank vt_tps %.6f (%.0f commits) differs from "
                  "RunThroughputExperiment %.6f (%" PRIu64 " commits)",
                  tps, window_commits, ref.tps, ref.commits);
    v->push_back(buf);
  }
}

// --- dist_bank: open-loop distributed bank --------------------------------------------

constexpr SimDuration kBankDuration = camelot::Sec(3000);
constexpr int kBankSteps = 1200;

LoadGenConfig BankLoadConfig(uint64_t seed) {
  LoadGenConfig lg;
  lg.offered_tps = 10.0;
  lg.arrivals = LoadGenConfig::Arrivals::kPoisson;
  lg.duration = kBankDuration;
  lg.read_fraction = 0.2;
  lg.accounts_per_site = 64;
  lg.zipf_theta = 0.6;
  lg.options = CommitOptions::Optimized();
  lg.deadline = 0;  // No client deadline: nothing is shed for lateness.
  lg.rng_seed = SubSeed(seed, 2);
  return lg;
}

PassResult DistBankPass(uint64_t seed, SpanLog& spans, RefKernel& ref, bool setup_only) {
  PassResult out;
  const LoadGenConfig lg = BankLoadConfig(seed);
  const camelot::BankWorkloadConfig bank = camelot::ToBankConfig(lg);
  const Clock::time_point t_setup = Clock::now();
  const AllocMark alloc_setup;
  WorldConfig cfg;
  cfg.site_count = 4;
  cfg.seed = SubSeed(seed, 1);
  auto world = std::make_unique<World>(cfg);
  camelot::SetupBank(*world, bank);
  LoadGen gen(*world, lg);
  const SimTime start = world->sched().now();
  gen.Start();
  out.setup_s = SecondsSince(t_setup);
  spans.End("setup: World + SetupBank + LoadGen::Start", "harness", t_setup,
            AllocDelta(alloc_setup));
  if (setup_only) {
    return out;
  }

  const double rss_setup = RssBytes();
  const AllocMark alloc;
  const Clock::time_point t0 = Clock::now();
  ref.Start();
  double events = RunSlices(*world, kBankSteps, kBankDuration / kBankSteps, spans,
                            [&] { return static_cast<double>(gen.stats().committed); }, &out);
  const Clock::time_point t_drain = Clock::now();
  const double drained = static_cast<double>(world->RunUntilIdle());
  events += drained;
  spans.End("World::RunUntilIdle", "sim", t_drain, {{"events", drained}});
  ref.Stop();
  out.host_s = SecondsSince(t0) - ref.seconds();
  const AllocMark alloc_end;
  const double rss_end = RssBytes();

  const camelot::LoadGenStats& st = gen.stats();
  if (!gen.done()) {
    out.violations.push_back("dist_bank: load generator did not finish (" +
                             std::to_string(st.offered) + " offered)");
  }
  const double commits = static_cast<double>(st.committed);
  out.work = commits;
  out.attempted = st.offered;
  out.failed = st.failed + st.shed;
  WorldCounters c;
  ReadWorldCounters(*world, events, &c);

  const Clock::time_point t_audit = Clock::now();
  const std::vector<std::string> audit = camelot::AuditBankInvariant(*world, bank);
  out.host["harness.audit_ms"] = SecondsSince(t_audit) * 1e3;
  spans.End("AuditBankInvariant", "harness", t_audit,
            {{"violations", static_cast<double>(audit.size())}});
  for (const std::string& v : audit) {
    out.violations.push_back("dist_bank AuditBankInvariant: " + v);
  }

  AddWorldCounts(c, commits, &out);
  out.counts["offered"] = static_cast<double>(st.offered);
  out.counts["failed"] = static_cast<double>(st.failed);
  out.counts["shed"] = static_cast<double>(st.shed);
  out.counts["vt_tps"] = st.GoodputTps(start + kBankDuration / 10, start + kBankDuration);
  out.counts["vt_commit_p50_ms"] = st.latency_ms.Percentile(50);
  out.counts["vt_commit_p99_ms"] = st.latency_ms.Percentile(99);
  out.host["retained_bytes_per_commit"] = Ratio(rss_end - rss_setup, commits);
  out.alloc["alloc.count"] = static_cast<double>(alloc_end.count - alloc.count);
  out.alloc["alloc.bytes"] = static_cast<double>(alloc_end.bytes - alloc.bytes);
  return out;
}

// --- chaos_sweep: many short crash scenarios --------------------------------------------

constexpr uint64_t kChaosWorldSeed = 3;
constexpr int kChaosSchedulesPerVariant = 600;
// A known defect, kept in every sweep so that its fix shows as a drop in the
// failing-run count: under Paxos F=1 this schedule leaves a live family at
// site 0 after healing.
constexpr const char* kPinnedPaxosSchedule =
    "tm.committed@2#1=crash;tm.paxos.accept_force.before@0#1=crash";

struct ChaosVariant {
  std::unique_ptr<CrashExplorer> explorer;
  std::vector<DiscoveredPoint> discovered;
  std::vector<CrashSchedule> schedules;
};

// 1-3 crash faults per schedule, at points and hit numbers the fault-free
// discovery run evaluated.
std::vector<CrashSchedule> DrawCrashSchedules(Rng& rng, const std::vector<DiscoveredPoint>& points,
                                              int count) {
  std::vector<CrashSchedule> out;
  for (int i = 0; i < count && !points.empty(); ++i) {
    CrashSchedule schedule;
    const int faults = 1 + static_cast<int>(rng.NextBounded(3));
    for (int j = 0; j < faults; ++j) {
      const DiscoveredPoint& dp = points[rng.NextBounded(points.size())];
      schedule.entries.push_back(
          {dp.point, dp.site, 1 + rng.NextBounded(dp.hits), camelot::FailpointAction::kCrash, 0});
    }
    out.push_back(std::move(schedule));
  }
  return out;
}

PassResult ChaosSweepPass(uint64_t seed, SpanLog& spans, RefKernel& ref, bool setup_only) {
  PassResult out;
  const Clock::time_point t_setup = Clock::now();
  const AllocMark alloc_setup;
  std::vector<ChaosVariant> variants(2);
  const CommitOptions options[2] = {CommitOptions::NonBlocking(), CommitOptions::Paxos(1)};
  for (int i = 0; i < 2; ++i) {
    ExplorerConfig cfg;
    cfg.site_count = 3;
    cfg.seed = kChaosWorldSeed;
    cfg.variant = options[i];
    cfg.sweep_threads = 1;
    variants[static_cast<size_t>(i)].explorer = std::make_unique<CrashExplorer>(cfg);
    variants[static_cast<size_t>(i)].discovered =
        variants[static_cast<size_t>(i)].explorer->Discover();
  }
  out.setup_s = SecondsSince(t_setup);
  spans.End("setup: CrashExplorer::Discover x2", "harness", t_setup, AllocDelta(alloc_setup));
  if (setup_only) {
    return out;
  }

  // Inputs: the schedules, drawn from the seed (not timed).
  Rng rng(SubSeed(seed, 3));
  for (ChaosVariant& v : variants) {
    v.schedules = DrawCrashSchedules(rng, v.discovered, kChaosSchedulesPerVariant);
  }
  auto pinned = CrashSchedule::Parse(kPinnedPaxosSchedule);
  if (!pinned.ok()) {
    out.violations.push_back("chaos_sweep: pinned schedule does not parse");
    return out;
  }
  variants[1].schedules.insert(variants[1].schedules.begin(), *pinned);

  const AllocMark alloc;
  double client_ok = 0;
  double pinned_failed = 0;
  struct Failing {
    size_t variant;
    size_t schedule;
    std::vector<std::string> violations;
  };
  std::vector<Failing> failing;
  const Clock::time_point t0 = Clock::now();
  ref.Start();
  for (size_t vi = 0; vi < variants.size(); ++vi) {
    ChaosVariant& v = variants[vi];
    for (size_t si = 0; si < v.schedules.size(); ++si) {
      const AllocMark alloc_run;
      const Clock::time_point t_run = Clock::now();
      const camelot::RunResult r = v.explorer->Run(v.schedules[si]);
      out.step_ms.push_back(SecondsSince(t_run) * 1e3);
      if (spans.on()) {
        spans.End("CrashExplorer::Run", "harness", t_run,
                  AllocDelta(alloc_run, {{"ok", r.ok ? 1.0 : 0.0},
                                         {"client_ok", static_cast<double>(r.client_ok)}}));
      }
      ++out.attempted;
      client_ok += r.client_ok;
      if (!r.ok) {
        ++out.failed;
        if (vi == 1 && si == 0) {
          pinned_failed = 1;
        }
        std::string first = r.violations.empty() ? "" : r.violations.front();
        out.failures.push_back(r.replay + "  # " + first);
        failing.push_back({vi, si, r.violations});
      }
    }
  }
  ref.Stop();
  out.host_s = SecondsSince(t0) - ref.seconds();
  const AllocMark alloc_end;

  // Audit: a failing run's recipe must reproduce the same verdict.
  const Clock::time_point t_audit = Clock::now();
  for (const Failing& f : failing) {
    ChaosVariant& v = variants[f.variant];
    const camelot::RunResult again = v.explorer->Run(v.schedules[f.schedule]);
    if (again.ok || again.violations != f.violations) {
      out.violations.push_back("chaos_sweep: replaying " + again.replay +
                               " did not reproduce its failure");
    }
  }
  out.host["harness.audit_ms"] = SecondsSince(t_audit) * 1e3;
  spans.End("replay failing runs", "harness", t_audit,
            {{"runs", static_cast<double>(failing.size())}});

  const double runs = static_cast<double>(out.attempted);
  out.work = runs;
  out.counts["runs"] = runs;
  out.counts["failing_runs"] = static_cast<double>(failing.size());
  out.counts["pinned_paxos_failed"] = pinned_failed;
  out.counts["chaos.client_ok_per_run"] = Ratio(client_ok, runs);
  out.alloc["alloc.count"] = static_cast<double>(alloc_end.count - alloc.count);
  out.alloc["alloc.bytes"] = static_cast<double>(alloc_end.bytes - alloc.bytes);
  return out;
}

// --- modelcheck: three exhaustive protocol checks ----------------------------------------

struct PinnedSpec {
  const char* name;
  CommitOptions options;
  int updates;
  int readonly;
  camelot::SpecBounds bounds;
  bool termination;
  size_t states;
  uint64_t digest;
};

std::vector<PinnedSpec> PinnedSpecs() {
  // camelot_model_check flag equivalents, with the state counts and digests
  // their exhaustive runs produce.
  camelot::SpecBounds nbc;  // --takeovers=1 --total-takeovers=1
  nbc.max_takeover_rounds = 1;
  nbc.max_total_takeovers = 1;
  camelot::SpecBounds two_pc;  // --crashes=1 --losses=1 --novotes=1
  two_pc.max_crashes = 1;
  two_pc.max_losses = 1;
  two_pc.max_no_votes = 1;
  camelot::SpecBounds paxos;  // --crashes=1 --takeovers=0
  paxos.max_crashes = 1;
  paxos.max_takeover_rounds = 0;
  return {
      {"nbc u1 r1 takeovers=1", CommitOptions::NonBlocking(), 1, 1, nbc, true, 204350,
       0x7f7074d19840f9ccULL},
      {"2pc u2 r1 crash/loss/novote", CommitOptions::Optimized(), 2, 1, two_pc, false, 142015,
       0xe7c17e807f50a84aULL},
      {"paxos f=1 u2 r1 crash", CommitOptions::Paxos(1), 2, 1, paxos, true, 21822,
       0xe181e8646a8c49daULL},
  };
}

PassResult ModelCheckPass(uint64_t /*seed*/, SpanLog& spans, RefKernel& ref, bool setup_only) {
  PassResult out;
  const std::vector<PinnedSpec> specs = PinnedSpecs();
  const Clock::time_point t_setup = Clock::now();
  std::vector<std::unique_ptr<SpecMachine>> machines;
  for (const PinnedSpec& p : specs) {
    camelot::SpecScenario sc;
    sc.options = p.options;
    sc.update_subs = p.updates;
    sc.readonly_subs = p.readonly;
    machines.push_back(std::make_unique<SpecMachine>(sc));
  }
  out.setup_s = SecondsSince(t_setup);
  spans.End("setup: SpecMachine x3", "analysis", t_setup, {});
  if (setup_only) {
    return out;
  }

  const AllocMark alloc;
  double states = 0;
  double transitions = 0;
  double dedup = 0;
  double peak_live = 0;
  const Clock::time_point t0 = Clock::now();
  ref.Start();
  for (size_t i = 0; i < specs.size(); ++i) {
    const PinnedSpec& p = specs[i];
    camelot::CheckerOptions opt;
    opt.bounds = p.bounds;
    opt.check_termination = p.termination;
    const AllocMark alloc_check;
    const LiveBytesWindow live;
    const Clock::time_point t_check = Clock::now();
    const CheckResult r = CheckSpec(*machines[i], opt);
    out.step_ms.push_back(SecondsSince(t_check) * 1e3);
    peak_live += live.PeakLiveGrowth();
    spans.End("CheckSpec", "analysis", t_check,
              AllocDelta(alloc_check, {{"states", static_cast<double>(r.states)},
                                       {"transitions", static_cast<double>(r.transitions)},
                                       {"alloc.peak_live_bytes", live.PeakLiveGrowth()}}));
    ++out.attempted;
    const bool exhaustive = r.ok && r.complete;
    if (!exhaustive) {
      ++out.failed;
    }
    if (!exhaustive || r.states != p.states || r.digest != p.digest) {
      char expected[80];
      std::snprintf(expected, sizeof(expected), "ok (exhaustive) states=%zu digest=%016" PRIx64,
                    p.states, p.digest);
      out.violations.push_back(std::string("modelcheck ") + p.name + ": got " + r.Summary() +
                               ", pinned " + expected);
    }
    states += static_cast<double>(r.states);
    transitions += static_cast<double>(r.transitions);
    dedup += static_cast<double>(r.dedup_hits);
  }
  ref.Stop();
  out.host_s = SecondsSince(t0) - ref.seconds();
  const AllocMark alloc_end;

  // Audit, as camelot_model_check does: each spec completes its fault-free path.
  const Clock::time_point t_audit = Clock::now();
  for (size_t i = 0; i < specs.size(); ++i) {
    const SpecMachine::FoldResult fold = machines[i]->FoldFaultFree();
    if (!fold.complete) {
      out.violations.push_back(std::string("modelcheck ") + specs[i].name +
                               ": fault-free fold incomplete: " + fold.detail);
    }
  }
  out.host["harness.audit_ms"] = SecondsSince(t_audit) * 1e3;
  spans.End("SpecMachine::FoldFaultFree", "analysis", t_audit, {});

  out.work = states;
  out.counts["analysis.states"] = states;
  out.counts["analysis.transitions"] = transitions;
  out.counts["analysis.dedup_frac"] = Ratio(dedup, transitions);
  out.alloc["alloc.count"] = static_cast<double>(alloc_end.count - alloc.count);
  out.alloc["alloc.bytes"] = static_cast<double>(alloc_end.bytes - alloc.bytes);
  out.alloc["alloc.peak_live_bytes"] = peak_live;
  return out;
}

// --- Main ---------------------------------------------------------------------------------

using PassFn = PassResult (*)(uint64_t, SpanLog&, RefKernel&, bool);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  bool check_reference = false;
  bool ref_kernel = true;
  std::string trace_out;
};

// Set-up is cheap next to a pass, so each process samples it several times.
constexpr int kExtraSetups = 10;

int Usage() {
  std::fprintf(stderr,
               "usage: camelot_bench --workload local_crank|dist_bank|chaos_sweep|modelcheck\n"
               "  --seed N [--traced] [--trace-out FILE] [--check-reference] [--no-ref-kernel]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace-out" && has_value) {
      a.trace_out = argv[++i];
    } else if (arg == "--traced") {
      a.traced = true;
    } else if (arg == "--check-reference") {
      a.check_reference = true;
    } else if (arg == "--no-ref-kernel") {
      a.ref_kernel = false;
    } else {
      return Usage();
    }
  }
  const std::map<std::string, PassFn> workloads = {{"local_crank", &LocalCrankPass},
                                                   {"dist_bank", &DistBankPass},
                                                   {"chaos_sweep", &ChaosSweepPass},
                                                   {"modelcheck", &ModelCheckPass}};
  const auto found = workloads.find(a.workload);
  if (found == workloads.end()) {
    return Usage();
  }
  const PassFn pass = found->second;

  SpanLog spans(a.traced);
  RefKernel ref(a.ref_kernel);  // Its buffer is allocated before allocations are counted.
  g_alloc_on.store(a.traced, std::memory_order_relaxed);
  std::vector<double> setup_s;
  for (int i = 0; i < kExtraSetups; ++i) {
    setup_s.push_back(pass(a.seed, spans, ref, /*setup_only=*/true).setup_s);
  }
  const PassResult p = pass(a.seed, spans, ref, /*setup_only=*/false);
  setup_s.push_back(p.setup_s);
  const double peak_rss_mb = PeakRssMb();
  g_alloc_on.store(false, std::memory_order_relaxed);

  std::vector<std::string> violations = p.violations;
  std::map<std::string, double> host = p.host;
  if (a.check_reference && a.workload == "local_crank") {
    const Clock::time_point t_audit = Clock::now();
    CheckCrankReference(a.seed, p, &violations);
    host["harness.audit_ms"] = SecondsSince(t_audit) * 1e3;
  }
  if (a.traced && !a.trace_out.empty() && !spans.Write(a.trace_out)) {
    violations.push_back("cannot write trace file " + a.trace_out);
  }

  auto num = [](double v) { return JsonNumber(v); };
  auto str = [](const std::string& v) { return JsonString(v); };
  std::string out = "{";
  out += "\"setup_s\":" + JsonArray(setup_s, num);
  out += ",\"host_s\":" + num(p.host_s);
  out += ",\"work\":" + num(p.work);
  out += ",\"ref_s\":" + num(ref.seconds());
  out += ",\"ref_runs\":" + std::to_string(ref.runs());
  out += ",\"step_ms\":" + JsonArray(p.step_ms, num);
  out += ",\"peak_rss_mb\":" + num(peak_rss_mb);
  out += ",\"attempted\":" + std::to_string(p.attempted);
  out += ",\"failed\":" + std::to_string(p.failed);
  out += ",\"counts\":" + JsonObject(p.counts);
  out += ",\"host\":" + JsonObject(host);
  out += ",\"alloc\":" + JsonObject(p.alloc);
  out += ",\"failures\":" + JsonArray(p.failures, str);
  out += ",\"violations\":" + JsonArray(violations, str);
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
