#include "src/harness/scenario_runner.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/static_analysis.h"
#include "src/base/logging.h"
#include "src/harness/isolation_oracle.h"
#include "src/harness/oracle.h"
#include "src/harness/parallel.h"
#include "src/harness/replay.h"

namespace camelot {
namespace {

std::string Srv(int i) { return "server:" + std::to_string(i); }

// Tight protocol timers (the failure_test tuning): fault scenarios resolve in
// seconds of virtual time, and zero jitter keeps every run bit-deterministic.
WorldConfig MakeWorldConfig(const ExplorerConfig& cfg) {
  WorldConfig w;
  w.site_count = cfg.site_count;
  w.seed = cfg.seed;
  w.net.send_jitter_mean = 0;
  w.net.stall_probability = 0;
  w.net.receive_skew_mean = 0;
  w.tranman.outcome_timeout = Usec(400000);
  w.tranman.retry_interval = Usec(300000);
  w.tranman.takeover_backoff = Usec(300000);
  w.tranman.orphan_check_interval = Sec(1.0);
  w.ipc.rpc_timeout = Sec(1.5);
  w.server.lock_wait_timeout = Sec(1.0);
  return w;
}

Async<Status> OneTransfer(AppClient& app, std::string from_srv, std::string to_srv,
                          int64_t amount, CommitOptions options) {
  auto begin = co_await app.Begin();
  if (!begin.ok()) {
    co_return begin.status();
  }
  const Tid tid = *begin;
  auto a = co_await app.ReadInt(tid, from_srv, "vault");
  auto b = co_await app.ReadInt(tid, to_srv, "vault");
  if (!a.ok() || !b.ok()) {
    co_await app.Abort(tid);
    co_return AbortedError("read failed");
  }
  Status w1 = co_await app.WriteInt(tid, from_srv, "vault", *a - amount);
  Status w2 = co_await app.WriteInt(tid, to_srv, "vault", *b + amount);
  if (!w1.ok() || !w2.ok()) {
    co_await app.Abort(tid);
    co_return AbortedError("write failed");
  }
  co_return co_await app.Commit(tid, options);
}

// The fixed workload: one serial transfer per route, issued from site 0's
// application. One transaction per transfer, never retried — the oracle
// reasons about which attempts committed, and a retry would be a second
// attempt.
Async<void> Workload(World* world, const std::vector<TransferRoute>* routes, int64_t amount,
                     CommitOptions options, std::vector<Status>* statuses,
                     std::vector<bool>* attempted, bool* done) {
  AppClient app(world->site(0));
  for (const TransferRoute& route : *routes) {
    // If the home site is down (a schedule crashed it), wait out the outage —
    // bounded, so the run always quiesces even if healing fails.
    for (int wait = 0; wait < 8 && !world->site(0).site().up(); ++wait) {
      co_await world->sched().Delay(Sec(1));
    }
    if (!world->site(0).site().up()) {
      statuses->push_back(UnavailableError("home site down"));
      attempted->push_back(false);
      continue;
    }
    Status st = co_await OneTransfer(app, Srv(route.from), Srv(route.to), amount, options);
    statuses->push_back(st);
    attempted->push_back(true);
  }
  *done = true;
}

void Violate(RunResult* out, std::string text) {
  out->ok = false;
  out->violations.push_back(std::move(text));
}

std::vector<int> DownSites(World& world, int n) {
  std::vector<int> down;
  for (int i = 0; i < n; ++i) {
    if (!world.site(i).site().up()) {
      down.push_back(i);
    }
  }
  return down;
}

// Every 2-way split of a 3-site world plus total isolation. "" means
// "partition:" with no groups — every site isolated.
const char* const kSplits[] = {"0|1,2", "1|0,2", "2|0,1", ""};

uint64_t Decided(World& world, int site) {
  const TranManCounters& c = world.site(site).tranman().counters();
  return c.committed + c.aborted;
}

// Transfer i moves vault i%N -> (i+1)%N.
std::vector<TransferRoute> RingRoutes(int site_count, int transfers) {
  std::vector<TransferRoute> routes;
  for (int i = 0; i < transfers; ++i) {
    routes.push_back({i % site_count, (i + 1) % site_count});
  }
  return routes;
}

}  // namespace

std::vector<TransferRoute> PingPongRoutes(int transfers) {
  std::vector<TransferRoute> routes;
  for (int i = 0; i < transfers; ++i) {
    routes.push_back({1 + (i % 2), 2 - (i % 2)});
  }
  return routes;
}

CountVector PredictTransferCounts(const CommitOptions& options,
                                  const std::vector<TransferRoute>& routes) {
  CountVector predicted;
  for (const TransferRoute& route : routes) {
    const int update_subs = (route.from != 0) + (route.to != 0);
    const bool local_updates = route.from == 0 || route.to == 0;
    AddCounts(predicted, ExpectedProtocolCounts(options, update_subs, /*readonly_subs=*/0,
                                                local_updates, TxnOutcome::kCommit));
  }
  return predicted;
}

std::string RunResult::Explain() const {
  std::string out;
  for (const auto& v : violations) {
    out += "  - " + v + "\n";
  }
  if (!nemesis_log.empty()) {
    out += "  nemesis log:\n";
    for (const auto& line : nemesis_log) {
      out += "    " + line + "\n";
    }
  }
  return out;
}

RunResult ScenarioRunner::Run(const CrashSchedule& schedule, bool record) {
  return Run(schedule, RingRoutes(config_.site_count, config_.transfers), record);
}

RunResult ScenarioRunner::Run(const NemesisScript& script) {
  return Run(script, PingPongRoutes(config_.transfers));
}

std::vector<DiscoveredPoint> ScenarioRunner::Discover() {
  return Run(CrashSchedule{}, /*record=*/true).discovered;
}

RunResult ScenarioRunner::Run(const FaultPlan& plan, const std::vector<TransferRoute>& routes,
                              bool record) {
  const CrashSchedule* schedule = std::get_if<CrashSchedule>(&plan);
  const NemesisScript* script = std::get_if<NemesisScript>(&plan);
  RunResult out;
  out.replay = schedule != nullptr ? ReplayRecipe(config_.seed, config_.variant,
                                                  "CAMELOT_SCHEDULE", schedule->ToString())
                                   : ReplayRecipe(config_.seed, config_.variant,
                                                  "CAMELOT_NEMESIS", script->ToString());

  World world(MakeWorldConfig(config_));
  world.history().set_enabled(true);  // Record from the first setup install on.
  const int n = config_.site_count;
  for (int i = 0; i < n; ++i) {
    world.AddServer(i, Srv(i))->CreateObjectForSetup("vault",
                                                     EncodeInt64(config_.initial_balance));
  }
  if (record) {
    world.failpoints().set_recording(true);
  }

  // In-window decision accounting: between each partition install and the
  // matching heal, count per-site commit/abort decisions. HealAll() emits a
  // synthetic heal, so an un-healed script still closes its window.
  bool window_open = false;
  std::vector<uint64_t> snapshot;
  std::vector<uint64_t> in_window;
  std::optional<Nemesis> nemesis;
  if (schedule != nullptr) {
    schedule->ArmAll(world.failpoints());
  } else {
    snapshot.assign(static_cast<size_t>(n), 0);
    in_window.assign(static_cast<size_t>(n), 0);
    nemesis.emplace(world.sched(), world.net(), &world.failpoints());
    nemesis->set_on_apply([&](const NemesisEvent& ev) {
      if (ev.action == NemesisEvent::Action::kPartition && !window_open) {
        window_open = true;
        for (int i = 0; i < n; ++i) {
          snapshot[static_cast<size_t>(i)] = Decided(world, i);
        }
      } else if (ev.action == NemesisEvent::Action::kHeal && window_open) {
        window_open = false;
        for (int i = 0; i < n; ++i) {
          in_window[static_cast<size_t>(i)] +=
              Decided(world, i) - snapshot[static_cast<size_t>(i)];
        }
      }
    });
    if (Status s = nemesis->Install(*script); !s.ok()) {
      Violate(&out, "nemesis install failed: " + s.message());
      return out;
    }
  }

  std::vector<Status> statuses;
  std::vector<bool> attempted;
  bool done = false;
  world.sched().Spawn(
      Workload(&world, &routes, config_.amount, config_.variant, &statuses, &attempted, &done));
  world.RunFor(config_.workload_window);
  auto unfinished = [&] {
    return "workload did not finish (" + std::to_string(statuses.size()) + "/" +
           std::to_string(routes.size()) + " transfers attempted)";
  };

  // Nemesis plans: force-heal whatever the script left installed, then give
  // the installation a bounded resolution window. The liveness oracle: after
  // this window, no site may still hold an undecided family. Unfired trigger
  // arms must not fire on audit traffic (a partition during the balance audit
  // would be a false positive, not a protocol bug).
  bool live = true;
  if (nemesis) {
    nemesis->HealAll();
    world.RunFor(config_.heal_window);
    out.nemesis_log = nemesis->log();
    out.unapplied = nemesis->Unapplied();
    world.failpoints().DisarmAll();
    if (!done) {
      Violate(&out, "liveness: " + unfinished());
    }
    for (int i = 0; i < n; ++i) {
      const size_t families = world.site(i).tranman().live_family_count();
      if (families != 0) {
        Violate(&out, "liveness: site " + std::to_string(i) + " still holds " +
                          std::to_string(families) + " undecided families " +
                          std::to_string(config_.heal_window / 1000000) +
                          "s after all faults healed");
      }
    }
    live = out.ok;
  }

  // Heal: restart every down site, again if a recovery.* crash took one back
  // down mid-restart (recovery must be idempotent across the retries). A
  // nemesis never takes a site down, so for it this is a no-op.
  int attempts = 0;
  std::vector<int> down = DownSites(world, n);
  for (; !down.empty() && attempts < config_.max_restart_attempts; down = DownSites(world, n)) {
    ++attempts;
    for (int i : down) {
      world.Restart(i);
    }
    world.RunFor(config_.heal_window);
  }
  for (int i : down) {
    Violate(&out, "site " + std::to_string(i) + " still down after " + std::to_string(attempts) +
                      " restart attempts");
  }

  // Drain: let every in-doubt outcome, orphan watcher, and the workload's
  // remaining transfers resolve. Bounded so a livelocked run fails loudly
  // instead of hanging the sweep. A schedule entry can fire during the drain
  // itself — e.g. a crash armed on a commit-ack that is only sent once the
  // coordinator's retransmission reaches the healed site — taking a site
  // down after the heal loop finished; re-heal and re-drain until stable so
  // the audit reads a fully recovered installation.
  bool quiesced = down.empty();
  if (quiesced) {
    constexpr size_t kMaxEvents = 2u * 1000 * 1000;
    for (int late_heals = 0;;) {
      if (!world.sched().RunUntilIdle(kMaxEvents).drained) {
        quiesced = false;
        Violate(&out, "world did not quiesce within " + std::to_string(kMaxEvents) + " events");
        break;
      }
      down = DownSites(world, n);
      if (down.empty()) {
        break;
      }
      if (++late_heals > config_.max_restart_attempts) {
        quiesced = false;
        for (int i : down) {
          Violate(&out, "site " + std::to_string(i) + " still down after " +
                            std::to_string(late_heals - 1) + " late restart attempts");
        }
        break;
      }
      for (int i : down) {
        world.Restart(i);
      }
      world.RunFor(config_.heal_window);
    }
  }

  // Freeze the exploration record before the audit: discovery must cover only
  // the workload + healing, so every discovered hit is reachable before the
  // audit traffic starts (a sweep crash during the audit would be a false
  // positive, not a protocol bug).
  if (record) {
    out.trace = world.failpoints().trace();
    out.discovered = world.failpoints().Discovered();
    world.failpoints().set_recording(false);
  }
  world.failpoints().DisarmAll();

  if (nemesis) {
    out.sites.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const TranManCounters& c = world.site(i).tranman().counters();
      SiteObservation& obs = out.sites[static_cast<size_t>(i)];
      obs.decided_in_window = in_window[static_cast<size_t>(i)];
      obs.blocked_periods = c.blocked_periods;
      obs.blocked_time_us = c.blocked_time_us;
      obs.stuck_families = c.stuck_families;
    }
    out.datagrams_reordered = world.net().counters().datagrams_reordered;
  } else if (!done) {
    Violate(&out, unfinished());
  }
  out.client_ok = static_cast<int>(
      std::count_if(statuses.begin(), statuses.end(), [](const Status& st) { return st.ok(); }));
  if (!quiesced || !live) {
    return out;  // No quiescent installation to audit (RunSync would hang).
  }

  // Primitive-cost conformance gate (fault-free runs only, before the audit
  // transactions add their own protocol traffic): the ledger's protocol
  // counts must equal the static analysis's prediction for the routes,
  // exactly — an extra force or duplicate datagram is a bug even when
  // atomicity holds.
  const bool fault_free = schedule != nullptr ? schedule->entries.empty() : script->empty();
  if (fault_free && done && out.client_ok == static_cast<int>(statuses.size())) {
    const std::string diff = CostLedger::Diff(PredictTransferCounts(config_.variant, routes),
                                              world.cost_ledger().ProtocolCounts());
    if (!diff.empty()) {
      Violate(&out, "fault-free run violated primitive-cost conformance:\n" + diff);
    }
  }

  // Audits (harness/oracle.h): observer agreement + money conservation +
  // commit-subset match, then leak, recovery and exactly-once checks.
  std::vector<TransferAttempt> transfer_attempts;
  for (size_t i = 0; i < statuses.size(); ++i) {
    transfer_attempts.push_back(
        {statuses[i], attempted[i], routes[i].from, routes[i].to, config_.amount});
  }
  std::vector<std::string> violations;
  AuditBalancesAndSubset(world, n, config_.initial_balance, transfer_attempts, &violations);
  AuditLeaks(world, n, &violations);
  AuditExactlyOnce(world, n, &violations);
  for (auto& v : violations) {
    Violate(&out, std::move(v));
  }

  // Isolation gate: the whole run's history — workload, faults, healing, and
  // the audit transactions above — must replay serializably. A failure dumps
  // the history and extends the recipe so the verdict reproduces offline.
  IsolationReport isolation = IsolationOracle::Check(world.history().events());
  if (!isolation.ok()) {
    for (const IsolationAnomaly& a : isolation.anomalies) {
      Violate(&out, "isolation: " + a.ToString());
    }
    auto dumped = DumpHistoryArtifact(
        world.history(), std::string(schedule != nullptr ? "crash-" : "partition-") +
                             std::to_string(config_.seed) + "-" + ProtocolName(config_.variant) +
                             "-" + std::to_string(std::hash<std::string>{}(out.replay)));
    if (dumped.ok()) {
      out.history_path = *dumped;
      out.replay = WithHistory(out.replay, *dumped);
    }
  }
  return out;
}

std::vector<SweepFailure> ScenarioRunner::RunSweep(const std::vector<SweepCandidate>& candidates,
                                                   std::vector<SweepFailure> failures, int* runs,
                                                   int prior_runs) {
  // Each plan builds its own World, so runs are independent and bit-identical
  // at any thread count; merging in candidate order keeps the failure list
  // (and every replay recipe in it) byte-identical too.
  std::vector<RunResult> results(candidates.size());
  ParallelFor(ResolveSweepThreads(config_.sweep_threads), candidates.size(), [&](size_t i) {
    results[i] = std::visit([this](const auto& plan) { return Run(plan); }, candidates[i].plan);
  });
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!results[i].ok) {
      failures.push_back({candidates[i].label, std::move(results[i])});
    }
  }
  if (runs != nullptr) {
    *runs = prior_runs + static_cast<int>(candidates.size());
  }
  return failures;
}

std::vector<SweepFailure> ScenarioRunner::ExhaustiveSingleCrashSweep(uint64_t max_hits_per_point,
                                                                     int* runs) {
  std::vector<SweepFailure> failures;
  // The fault-free discovery run is itself gated (conformance + oracle); a
  // violation there means every sweep result would be noise.
  RunResult discovery = Run(CrashSchedule{}, /*record=*/true);
  if (!discovery.ok) {
    failures.push_back({"", discovery});
  }
  std::vector<SweepCandidate> candidates;
  for (const DiscoveredPoint& dp : discovery.discovered) {
    const uint64_t cap =
        max_hits_per_point == 0 ? dp.hits : std::min(dp.hits, max_hits_per_point);
    for (uint64_t hit = 1; hit <= cap; ++hit) {
      CrashSchedule schedule;
      schedule.entries.push_back({dp.point, dp.site, hit, FailpointAction::kCrash, 0});
      candidates.push_back({schedule.ToString(), std::move(schedule)});
    }
  }
  return RunSweep(candidates, std::move(failures), runs);
}

std::vector<SweepFailure> ScenarioRunner::RecoverySweep(const ScheduleEntry& base, int* runs) {
  std::vector<SweepFailure> failures;
  CrashSchedule base_only;
  base_only.entries.push_back(base);
  RunResult recorded = Run(base_only, /*record=*/true);
  if (!recorded.ok) {
    failures.push_back({base_only.ToString(), recorded});
  }
  std::vector<SweepCandidate> candidates;
  for (const DiscoveredPoint& dp : recorded.discovered) {
    if (dp.point.rfind("recovery.", 0) != 0) {
      continue;
    }
    CrashSchedule schedule = base_only;
    schedule.entries.push_back({dp.point, dp.site, 1, FailpointAction::kCrash, 0});
    candidates.push_back({schedule.ToString(), std::move(schedule)});
  }
  return RunSweep(candidates, std::move(failures), runs, /*prior_runs=*/1);
}

std::vector<SweepFailure> ScenarioRunner::RandomSweep(uint64_t rng_seed, int rounds,
                                                      int max_faults, int* runs) {
  std::vector<SweepFailure> failures;
  RunResult discovery = Run(CrashSchedule{}, /*record=*/true);
  if (!discovery.ok) {
    failures.push_back({"", discovery});
  }
  const std::vector<DiscoveredPoint> discovered = std::move(discovery.discovered);
  // Schedule generation draws from the sweep Rng in round order; runs consume
  // no sweep randomness, so pre-generating all schedules and fanning the runs
  // out yields the exact draw sequence (and schedules) of a serial
  // interleaved loop.
  Rng rng(rng_seed);
  std::vector<SweepCandidate> candidates;
  for (int round = 0; round < rounds && !discovered.empty(); ++round) {
    const int faults = 1 + static_cast<int>(rng.NextBounded(
                               static_cast<uint64_t>(std::max(1, max_faults))));
    CrashSchedule schedule;
    for (int j = 0; j < faults; ++j) {
      const DiscoveredPoint& dp = discovered[rng.NextBounded(discovered.size())];
      ScheduleEntry e;
      e.point = dp.point;
      e.site = dp.site;
      e.hit = 1 + rng.NextBounded(dp.hits);
      // Drop and error only mean something where the woven code has a loss or
      // failure path: datagram sends and disk I/O. At protocol force points
      // and transitions they would inject impossible failures (a log force
      // cannot fail while the site stays up), so roll crash or delay there.
      const bool lossy = dp.point.rfind("tm.send.", 0) == 0 || dp.point.rfind("disk.", 0) == 0;
      switch (rng.NextBounded(lossy ? 4 : 2)) {
        case 0:
          e.action = FailpointAction::kCrash;
          break;
        case 1:
          e.action = FailpointAction::kDelay;
          e.delay = Usec(1000 + static_cast<int64_t>(rng.NextBounded(400000)));
          break;
        case 2:
          e.action = FailpointAction::kDrop;
          break;
        default:
          e.action = FailpointAction::kError;
          break;
      }
      schedule.entries.push_back(std::move(e));
    }
    candidates.push_back({schedule.ToString(), std::move(schedule)});
  }
  return RunSweep(candidates, std::move(failures), runs);
}

std::vector<SweepFailure> ScenarioRunner::ExhaustiveSinglePartitionSweep(int* runs) {
  // Phase windows: when the split installs, relative to the commit protocol's
  // life cycle. Triggers that the workload never reaches leave the run
  // fault-free, which the oracle accepts (Unapplied records them).
  struct Phase {
    const char* name;
    std::string when;
  };
  // "Decided" anchor per protocol: the coordinator's decision force — for
  // Paxos Commit the ballot-0 accept force, the closest durable event to the
  // commit point (the commit record itself is only spooled).
  const CommitProtocol proto = config_.variant.protocol;
  std::string decided_force = "tm.2pc.commit_force.after";
  if (proto == CommitProtocol::kNonBlocking) {
    decided_force = "tm.nbc.commit_force.after";
  } else if (proto == CommitProtocol::kPaxos) {
    decided_force = "tm.paxos.accept_force.after";
  }
  const std::vector<Phase> kPhases = {
      {"active", "@1000000"},              // Mid-workload, between protocol steps.
      {"prepare", "tm.send.PREPARE@0#1"},  // The instant PREPARE leaves site 0.
      {"voted", "tm.prepared@1#1"},        // First subordinate vote is durable.
      {"decided", decided_force + "@0#1"},  // Coordinator's decision hits the disk.
  };

  // Fault-free baseline first: it runs the conformance gate (exact
  // predicted-vs-measured primitive counts), so instrumentation or protocol
  // drift fails the sweep even when every faulted run still looks atomic.
  std::vector<SweepCandidate> candidates = {
      {ProtocolName(config_.variant) + "/baseline", NemesisScript{}}};
  for (const std::string split : kSplits) {
    for (const Phase& phase : kPhases) {
      Result<NemesisScript> script =
          NemesisScript::Parse(phase.when + "=partition:" + split + ";+4000000=heal");
      CAMELOT_CHECK(script.ok());
      candidates.push_back({ProtocolName(config_.variant) + "/" + phase.name + "/split{" +
                                (split.empty() ? "isolate-all" : split) + "}",
                            std::move(*script)});
    }
  }
  return RunSweep(candidates, {}, runs);
}

std::vector<SweepFailure> ScenarioRunner::RandomNemesisSweep(uint64_t rng_seed, int rounds,
                                                             int* runs) {
  // Script generation draws from the sweep Rng in round order, like
  // RandomSweep's schedules.
  Rng rng(rng_seed);
  std::vector<SweepCandidate> candidates;
  for (int round = 0; round < rounds; ++round) {
    // 1..3 fault episodes, each an install at a random virtual time undone a
    // random 0.5-4 s later. All episode times land inside the workload
    // window, so HealAll() at its end is a backstop, not the primary heal.
    const int episodes = 1 + static_cast<int>(rng.NextBounded(3));
    std::string text;
    for (int e = 0; e < episodes; ++e) {
      const int64_t start = 500000 + static_cast<int64_t>(rng.NextBounded(7500000));
      const int64_t dur = 500000 + static_cast<int64_t>(rng.NextBounded(3500000));
      std::string fault;
      std::string undo = "calm";
      switch (rng.NextBounded(5)) {
        case 0:
          fault = std::string("partition:") + kSplits[rng.NextBounded(std::size(kSplits))];
          undo = "heal";
          break;
        case 1:
          fault = "loss:" + std::to_string(0.05 + 0.25 * rng.NextDouble());
          break;
        case 2:
          fault = "dup:" + std::to_string(0.05 + 0.25 * rng.NextDouble());
          break;
        case 3:
          fault = "reorder:" + std::to_string(0.1 + 0.4 * rng.NextDouble()) + "," +
                  std::to_string(5000 + rng.NextBounded(60000));
          break;
        default:
          fault = "congest:" + std::to_string(2000 + rng.NextBounded(20000));
          break;
      }
      if (!text.empty()) {
        text += ";";
      }
      text += "@" + std::to_string(start) + "=" + fault + ";+" + std::to_string(dur) + "=" + undo;
    }
    Result<NemesisScript> script = NemesisScript::Parse(text);
    CAMELOT_CHECK(script.ok());
    candidates.push_back({"random#" + std::to_string(round), std::move(*script)});
  }
  return RunSweep(candidates, {}, runs);
}

}  // namespace camelot
