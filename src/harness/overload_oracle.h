// OverloadExplorer: drives open-loop load spikes against a live Camelot
// installation and audits that admission control keeps the system out of
// congestion collapse — the overload twin of the crash/partition explorers.
//
// The capacity model predicts the saturation knee from the same Table-2
// primitive counts the conformance oracle audits: one transaction's expected
// protocol events and log forces, priced in worker-pool occupancy, divided
// into the installation's total worker-seconds. The explorer then offers
// multiples of that knee (0.5x baseline, a 5x spike, recovery) from two
// open-loop generators and asserts, on the quiesced world:
//
//   - goodput floor: in-deadline commits/sec during the spike stay above a
//     fraction of the baseline (the system does useful work WHILE overloaded,
//     instead of servicing a stale backlog for nobody);
//   - bounded p99: committed-transaction latency stays within a multiple of
//     the client deadline (unbounded queues show up here first);
//   - recovery: within the recovery window the background load's goodput
//     returns to >= recovery_fraction of its pre-spike average — the
//     anti-metastability check (a retry storm that outlives its trigger
//     fails this even though the spike itself ended);
//   - safety under pressure: money conservation (AuditBankInvariant), no
//     leaked locks or live families (AuditLeaks) — shedding must never
//     corrupt; a shed transaction is an aborted transaction.
//
// RunLatencyStorm swaps the load spike for a nemesis congestion storm (every
// datagram delayed), the trigger class where the offered rate never changes
// but capacity drops — the classic metastable-failure entry path.
//
// The A/B: a run with `shedding = false` disables the admission queue bound,
// deadline propagation, expiry shedding, and the retry budget, keeping the
// IDENTICAL goodput definition. ExpectCollapse() asserts that this arm
// actually collapses (goodput floor or recovery fails and p99 blows through
// the bound) — proving the machinery is load-bearing, not decorative.
//
// Every failing run prints a replay recipe and the queue-health report
// (per-site pool wait percentiles, depth high-watermarks, shed counters).
#ifndef SRC_HARNESS_OVERLOAD_ORACLE_H_
#define SRC_HARNESS_OVERLOAD_ORACLE_H_

#include <string>
#include <vector>

#include "src/harness/load_gen.h"
#include "src/harness/world.h"
#include "src/tranman/local_api.h"
#include "src/tranman/worker_pool.h"

namespace camelot {

// The predicted saturation knee, derived from ExpectedProtocolCounts for one
// two-site transfer. Deliberately conservative: it prices every log force at
// the full force latency although group commit amortizes concurrent forces,
// so the true knee is at or above predicted_tps — which is exactly what an
// admission-control planner wants from a capacity estimate.
struct CapacityModel {
  double predicted_tps = 0;     // World-wide knee (all sites' workers pooled).
  double per_txn_pool_us = 0;   // Worker-occupancy one transaction costs.
  int64_t events = 0;           // Pool events per transaction (calls + datagrams).
  int64_t forces = 0;           // Log forces per transaction.
  std::string Explain() const;
};

CapacityModel PredictCapacity(const WorldConfig& world, const CommitOptions& options);

// Per-site queue-health rows: worker-pool wait p50/p99 and depth HWM, shed
// and drop counters, RPC retransmit totals. Printed by tests and explorers
// when an overload oracle fails.
std::string QueueHealthReport(World& world);

struct OverloadExplorerConfig {
  int site_count = 3;
  uint64_t seed = 1;
  // Commit variant for the load's transactions; the capacity model and the
  // replay recipe follow it.
  CommitOptions variant = CommitOptions::Optimized();

  // World sizing: a small pool and a fat per-event CPU burst put the knee low
  // enough that short virtual windows carry real overload.
  size_t worker_threads = 2;
  SimDuration cpu_per_event = Usec(3000);

  // The machinery under test; `shedding = false` is the collapse arm.
  bool shedding = true;
  size_t admission_queue_limit = 64;
  AdmissionPolicy admission_policy = AdmissionPolicy::kDeadlineDrop;
  size_t max_live_families = 512;
  double rpc_retry_budget_ratio = 0.1;  // Transport-level budget (shedding arm).
  double rpc_retry_budget_cap = 50;

  // Load profile in multiples of the MEASURED usable knee. The static model
  // bounds CPU and forces but not lock contention on the Zipfian hotspot
  // (which ignites well below the CPU knee), so each run first calibrates: a
  // shedding world is driven at the predicted CPU-bound rate for
  // calibration_window and the goodput it sustains is taken as the usable
  // capacity. Both arms anchor on the same measurement so the A/B compares
  // identical offered load.
  SimDuration calibration_window = Sec(6);
  double baseline_multiplier = 0.5;
  double spike_multiplier = 5.0;
  SimDuration baseline_window = Sec(6);
  SimDuration spike_window = Sec(4);
  SimDuration recovery_window = Sec(8);

  // Template for both generators; offered_tps/duration/propagation are set
  // per phase and per arm. Defaults favour moderate contention so overload —
  // not lock starvation — is what the oracle measures.
  LoadGenConfig load = [] {
    LoadGenConfig l;
    l.accounts_per_site = 16;
    l.zipf_theta = 0.5;
    l.deadline = Sec(2);
    l.read_fraction = 0.2;
    return l;
  }();

  // Oracle thresholds.
  double goodput_floor = 0.25;     // Spike goodput >= floor x baseline goodput.
  double p99_bound_ms = 0;         // 0 = 1.5 x the client deadline.
  double recovery_fraction = 0.75; // Post-spike background goodput recovery.

  SimDuration storm_congestion = Usec(30000);  // RunLatencyStorm delay mean.
};

struct OverloadRunResult {
  bool ok = true;
  std::vector<std::string> violations;
  CapacityModel capacity;

  // Goodput a shedding world sustained when driven at the predicted CPU-bound
  // rate: the usable knee once lock contention is in the picture.
  double measured_capacity_tps = 0;
  double offered_baseline_tps = 0;
  double offered_spike_tps = 0;
  double baseline_goodput_tps = 0;
  double spike_goodput_tps = 0;
  double recovered_goodput_tps = 0;
  double p99_ms = 0;
  double p99_bound_ms = 0;

  LoadGenStats background;  // The whole-run 0.5x generator.
  LoadGenStats spike;       // The spike-window generator (empty for storms).
  uint64_t overload_rejects = 0;  // Summed over sites.
  uint64_t prepares_shed = 0;
  uint64_t deadline_shed = 0;
  uint64_t offpath_dropped = 0;
  uint64_t server_deadline_rejects = 0;

  std::string queue_health;  // Always captured; printed on failure.
  std::string replay;
  std::string Explain() const;  // Violations + queue health + replay.
};

class OverloadExplorer {
 public:
  explicit OverloadExplorer(OverloadExplorerConfig config) : config_(config) {}

  const OverloadExplorerConfig& config() const { return config_; }
  CapacityModel Capacity() const;

  // Baseline -> load spike -> recovery. Robustness oracles apply only on the
  // shedding arm; the safety oracles (conservation, leaks) apply always.
  OverloadRunResult Run();
  // Baseline -> congestion storm (offered load unchanged) -> recovery.
  OverloadRunResult RunLatencyStorm();

  // Asserts `result` (a shedding-disabled run) exhibits congestion collapse;
  // returns violations naming what FAILED to collapse. An empty return means
  // the A/B demonstrated that admission control is load-bearing.
  static std::vector<std::string> ExpectCollapse(const OverloadRunResult& result);

 private:
  OverloadRunResult RunInternal(bool storm);

  OverloadExplorerConfig config_;
};

}  // namespace camelot

#endif  // SRC_HARNESS_OVERLOAD_ORACLE_H_
