// ScenarioRunner: fault-plan exploration of a multi-site transfer workload,
// with atomicity, liveness and isolation oracles.
//
// Every run builds a fresh CamelotWorld, drives serial vault transfers from
// site 0's application along fixed routes, injects one fault plan, heals the
// installation, and audits it. A plan is one of two kinds:
//
//   CrashSchedule — failpoint actions (crash / drop / delay / error) armed
//     before the workload. Routes: the ring i%N -> (i+1)%N, so with N >= 3
//     every transfer spans three sites (coordinator plus two vault owners).
//     Healing restarts every down site, again if a schedule crashes recovery
//     itself, and drains until the installation is up and quiescent.
//   NemesisScript — network faults (partition / loss / duplication / reorder
//     / congestion) installed against the live network. Routes: vault 1 <->
//     vault 2 ping-pong, so a coordinator-isolating split leaves the two vault
//     owners a connected quorum. HealAll() runs at the end of the workload
//     window; within heal_window after it the workload must be done and no
//     site may hold an undecided family (liveness). Per-site decisions inside
//     each partition window, with the blocked-period counters, are the
//     evidence for the paper's blocking claim: 2PC subordinates stall while a
//     partition isolates the coordinator, NBC's connected quorum decides.
//
// The oracles, the same for both kinds (src/harness/oracle.h):
//   - conformance: a fault-free run's protocol counts equal the static
//     analysis's prediction for its routes, exactly;
//   - money conserved: the vault balances equal the initial funding plus the
//     effects of some subset of the attempted transfers, and that subset
//     contains every transfer whose commit returned OK;
//   - agreement: two independent observer sites read identical balances;
//   - nothing leaked: zero held locks and zero live families at every site,
//     no failed recovery pass, and exactly-once effects under datagram
//     duplication and reordering;
//   - isolation: the run's recorded history replays serializably
//     (src/harness/isolation_oracle.h); a failure names the anomaly, dumps
//     the history file, and appends CAMELOT_HISTORY=<file> to the recipe.
//
// The sweeps are plan generators over the one runner:
//   Discover()                     — fault-free recording run; returns every
//                                    (point, site, hits) the workload evaluates.
//   ExhaustiveSingleCrashSweep     — one crash per discovered (point, site, hit).
//   RecoverySweep                  — a base crash, then a second crash at each
//                                    recovery.* point its restart evaluates.
//   RandomSweep                    — seeded multi-fault crash schedules.
//   ExhaustiveSinglePartitionSweep — every split x protocol phase window.
//   RandomNemesisSweep             — seeded multi-fault nemesis scripts.
//
// Every failing run carries a one-line replay recipe,
//   CAMELOT_SEED=<s> CAMELOT_PROTOCOL=<p> CAMELOT_SCHEDULE='<schedule>'
// (CAMELOT_NEMESIS='<script>' for nemesis plans), which crash_schedule_test
// and partition_schedule_test honor; determinism makes the rerun identical.
#ifndef SRC_HARNESS_SCENARIO_RUNNER_H_
#define SRC_HARNESS_SCENARIO_RUNNER_H_

#include <string>
#include <variant>
#include <vector>

#include "src/base/failpoint.h"
#include "src/harness/nemesis.h"
#include "src/harness/world.h"
#include "src/stats/cost_ledger.h"
#include "src/tranman/local_api.h"

namespace camelot {

// Defaults are the crash explorer's; PartitionExplorerConfig holds the
// partition explorer's.
struct ExplorerConfig {
  int site_count = 3;
  uint64_t seed = 1;
  // Commit variant for the workload's transfers; the conformance prediction
  // and the replay recipe follow it.
  CommitOptions variant = CommitOptions::Optimized();
  int transfers = 3;  // Serial transfers, coordinated from site 0.
  int64_t initial_balance = 1000;
  int64_t amount = 10;
  // Virtual time allotted to the workload (faults fire inside it), then to
  // each heal round: after restarting the down sites, or after HealAll()
  // before the liveness check.
  SimDuration workload_window = Sec(6);
  SimDuration heal_window = Sec(3);
  int max_restart_attempts = 4;  // A schedule may crash recovery itself.
  // Host threads for the sweep fan-out (each plan runs in an independent
  // World, so runs are bit-identical at any thread count and failures are
  // merged in plan order). 0 = CAMELOT_SWEEP_THREADS / host default.
  int sweep_threads = 0;
};

struct PartitionExplorerConfig : ExplorerConfig {
  PartitionExplorerConfig() {
    transfers = 4;
    workload_window = Sec(20);
    heal_window = Sec(20);
  }
};

// One transfer: `amount` moves from vault `from` to vault `to`.
struct TransferRoute {
  int from = 0;
  int to = 0;
};

// Transfer i moves vault 1 -> 2 for even i, 2 -> 1 for odd i.
std::vector<TransferRoute> PingPongRoutes(int transfers);
// The static analysis's protocol counts for one committed transfer per route
// (site 0 coordinates; a vault on another site is an update subordinate).
CountVector PredictTransferCounts(const CommitOptions& options,
                                  const std::vector<TransferRoute>& routes);

using FaultPlan = std::variant<CrashSchedule, NemesisScript>;

// Per-site availability evidence gathered across every fault window.
struct SiteObservation {
  uint64_t decided_in_window = 0;  // committed+aborted deltas while partitioned.
  uint64_t blocked_periods = 0;    // Final counter values (whole run).
  uint64_t blocked_time_us = 0;
  uint64_t stuck_families = 0;
};

struct RunResult {
  bool ok = true;
  std::vector<std::string> violations;  // Oracle failures, human-readable.
  int client_ok = 0;                    // Transfers whose commit returned OK.
  std::string replay;                   // One-line replay recipe for this run.
  std::string history_path;             // Dumped history (isolation failures only).
  // Crash plans, recording runs only.
  std::vector<std::string> trace;
  std::vector<DiscoveredPoint> discovered;
  // Nemesis plans only.
  std::vector<SiteObservation> sites;
  uint64_t datagrams_reordered = 0;
  std::vector<std::string> nemesis_log;  // Applied events, timestamped.
  std::vector<std::string> unapplied;    // Events whose condition never fired.

  std::string Explain() const;  // Violations (and nemesis log), one per line.
};

struct SweepFailure {
  std::string label;  // The schedule text, or the nemesis script's sweep label.
  RunResult result;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ExplorerConfig config) : config_(config) {}

  const ExplorerConfig& config() const { return config_; }

  // One full run: inject `plan`, drive one transfer per route, heal, audit.
  // `record` keeps the failpoint trace and discovered set (crash plans).
  RunResult Run(const FaultPlan& plan, const std::vector<TransferRoute>& routes,
                bool record = false);
  // A crash schedule over the ring routes; a nemesis script over the
  // ping-pong routes.
  RunResult Run(const CrashSchedule& schedule, bool record = false);
  RunResult Run(const NemesisScript& script);

  // Fault-free recording run: every (point, site) the workload evaluates,
  // with its total hit count.
  std::vector<DiscoveredPoint> Discover();

  // Crash once at every discovered (point, site, hit <= max_hits_per_point;
  // 0 = every hit). Each sweep returns the failing runs; `runs` (optional)
  // counts runs.
  std::vector<SweepFailure> ExhaustiveSingleCrashSweep(uint64_t max_hits_per_point = 1,
                                                       int* runs = nullptr);

  // Crash-during-recovery: runs `base` recording to learn which recovery.*
  // points its heal evaluates, then sweeps {base, crash@recovery-point} pairs.
  std::vector<SweepFailure> RecoverySweep(const ScheduleEntry& base, int* runs = nullptr);

  // `rounds` random schedules of 1..max_faults entries drawn from the
  // discovered set with actions crash/drop/delay/error.
  std::vector<SweepFailure> RandomSweep(uint64_t rng_seed, int rounds, int max_faults,
                                        int* runs = nullptr);

  // A fault-free conformance baseline, then one run per {group split} x
  // {phase window}: the split is installed when the phase trigger fires
  // (workload active / PREPARE sent / first sub voted / decision forced) and
  // healed 4 virtual seconds later. Covers every 2-way split of a 3-site
  // world plus total isolation.
  std::vector<SweepFailure> ExhaustiveSinglePartitionSweep(int* runs = nullptr);

  // `rounds` seeded random scripts: partition episodes mixed with loss /
  // duplication / reorder / congestion bursts.
  std::vector<SweepFailure> RandomNemesisSweep(uint64_t rng_seed, int rounds,
                                               int* runs = nullptr);

 private:
  struct SweepCandidate {
    std::string label;
    FaultPlan plan;
  };

  // Fan the plans across the sweep thread pool, appending the failing runs
  // to `failures` in candidate order; `runs` (optional) gets `prior_runs`
  // plus one per candidate.
  std::vector<SweepFailure> RunSweep(const std::vector<SweepCandidate>& candidates,
                                     std::vector<SweepFailure> failures, int* runs,
                                     int prior_runs = 0);

  ExplorerConfig config_;
};

// The names the crash and partition sweeps have always gone by.
using CrashExplorer = ScenarioRunner;
using PartitionExplorer = ScenarioRunner;

}  // namespace camelot

#endif  // SRC_HARNESS_SCENARIO_RUNNER_H_
