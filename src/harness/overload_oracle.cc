#include "src/harness/overload_oracle.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "src/analysis/static_analysis.h"
#include "src/base/logging.h"
#include "src/harness/nemesis.h"
#include "src/harness/oracle.h"
#include "src/harness/replay.h"
#include "src/stats/cost_ledger.h"

namespace camelot {
namespace {

std::string Fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

bool HasSuffix(const std::string& key, const std::string& suffix) {
  return key.size() >= suffix.size() &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
}

WorldConfig MakeWorldConfig(const OverloadExplorerConfig& cfg) {
  WorldConfig w;
  w.site_count = cfg.site_count;
  w.seed = cfg.seed;
  // Deterministic network; the load generator supplies all the randomness.
  w.net.send_jitter_mean = 0;
  w.net.stall_probability = 0;
  w.net.receive_skew_mean = 0;
  w.tranman.worker_threads = cfg.worker_threads;
  w.tranman.cpu_per_event = cfg.cpu_per_event;
  // Short lock waits: under a hotspot the fallback must fail fast so the
  // oracle measures queueing, not deadlock-timeout tails.
  w.server.lock_wait_timeout = Sec(1.0);
  w.ipc.rpc_timeout = Sec(2.0);
  if (cfg.shedding) {
    w.tranman.admission_queue_limit = cfg.admission_queue_limit;
    w.tranman.admission_policy = cfg.admission_policy;
    w.tranman.max_live_families = cfg.max_live_families;
    w.tranman.shed_expired_work = true;
    w.ipc.rpc_retry_budget_ratio = cfg.rpc_retry_budget_ratio;
    w.ipc.rpc_retry_budget_cap = cfg.rpc_retry_budget_cap;
  } else {
    // The collapse arm: unbounded queues, no deadline enforcement anywhere,
    // unlimited transport retries.
    w.tranman.admission_queue_limit = 0;
    w.tranman.max_live_families = 0;
    w.tranman.shed_expired_work = false;
    w.ipc.rpc_retry_budget_ratio = 0;
  }
  return w;
}

void Violate(OverloadRunResult* out, std::string text) {
  out->ok = false;
  out->violations.push_back(std::move(text));
}

// The usable knee: drive a shedding world at the predicted CPU-bound rate
// and measure the goodput it sustains. Lock contention on the Zipfian
// hotspot caps real capacity well below the CPU/force model; admission
// control keeps goodput pinned near that cap even when offered load exceeds
// it, so the sustained goodput IS the capacity. Both arms calibrate with the
// shedding configuration so the A/B drives identical offered load.
double MeasureUsableCapacity(const OverloadExplorerConfig& cfg, double predicted_tps) {
  OverloadExplorerConfig shed_cfg = cfg;
  shed_cfg.shedding = true;
  World world(MakeWorldConfig(shed_cfg));
  LoadGenConfig lg = cfg.load;
  lg.options = cfg.variant;
  lg.offered_tps = predicted_tps;
  lg.duration = cfg.calibration_window;
  lg.rng_seed = cfg.seed + 9001;
  SetupBank(world, ToBankConfig(lg));
  LoadGen gen(world, lg);
  const SimTime t0 = world.sched().now();
  gen.Start();
  world.RunFor(cfg.calibration_window);
  world.RunUntilIdle();
  return gen.stats().GoodputTps(t0, t0 + cfg.calibration_window);
}

}  // namespace

std::string CapacityModel::Explain() const {
  std::string out = Fmt("predicted knee %.1f tps", predicted_tps);
  out += Fmt(" (%.0f us pool occupancy/txn: ", per_txn_pool_us);
  out += std::to_string(events) + " events, " + std::to_string(forces) + " forces)";
  return out;
}

CapacityModel PredictCapacity(const WorldConfig& world, const CommitOptions& options) {
  CapacityModel model;
  // One two-site transfer: coordinator's site updates locally, one update
  // subordinate (the generator's transfers touch two sites on average; the
  // occasional one-site transfer costs less, keeping the estimate safe).
  const CountVector counts =
      ExpectedProtocolCounts(options, /*update_subs=*/1, /*readonly_subs=*/0,
                             /*local_updates=*/true, TxnOutcome::kCommit);
  int64_t dgrams = 0;
  for (const auto& [key, count] : counts) {
    if (HasSuffix(key, "/force")) {
      model.forces += count;
    } else if (HasSuffix(key, "/dgram")) {
      dgrams += count;
    }
  }
  // Pool events: the client's begin + commit calls, one first-touch join per
  // touched site, and one event per received protocol datagram.
  model.events = 2 + 2 + dgrams;
  model.per_txn_pool_us =
      static_cast<double>(model.events * world.tranman.cpu_per_event) +
      static_cast<double>(model.forces * world.log.force_latency);
  const double worker_us_per_sec =
      static_cast<double>(world.site_count) *
      static_cast<double>(world.tranman.worker_threads) * 1e6;
  model.predicted_tps =
      model.per_txn_pool_us > 0 ? worker_us_per_sec / model.per_txn_pool_us : 0;
  return model;
}

std::string QueueHealthReport(World& world) {
  std::string out = "queue health:\n";
  for (int i = 0; i < world.site_count(); ++i) {
    CamelotSite& site = world.site(i);
    WorkerPool& pool = site.tranman().pool();
    const TranManCounters& tm = site.tranman().counters();
    out += "  site " + std::to_string(i) + ": pool wait p50/p99 " +
           Fmt("%.0f/%.0f us", pool.queued_time_us().Percentile(50),
               pool.queued_time_us().Percentile(99)) +
           ", depth hwm " + std::to_string(pool.depth_high_watermark()) +
           ", queued " + std::to_string(pool.queued_events()) + "/" +
           std::to_string(pool.events()) + " events" + ", shed " +
           std::to_string(pool.shed_rejected()) + " rejected + " +
           std::to_string(pool.shed_expired()) + " expired\n";
    out += "    tranman: " + std::to_string(tm.overload_rejects) + " overload rejects, " +
           std::to_string(tm.prepares_shed) + " prepares shed, " +
           std::to_string(tm.deadline_shed) + " deadline shed, " +
           std::to_string(tm.offpath_dropped) + " off-path dropped\n";
    uint64_t deadline_rejects = 0;
    for (auto& [name, server] : site.ServerMap()) {
      deadline_rejects += server->counters().deadline_rejects;
    }
    out += "    servers: " + std::to_string(deadline_rejects) + " deadline rejects; rpc " +
           std::to_string(site.netmsg().retransmits()) + " retransmits (" +
           std::to_string(site.netmsg().retransmits_suppressed()) +
           " budget-suppressed) over " + std::to_string(site.netmsg().calls()) + " calls\n";
  }
  return out;
}

std::string OverloadRunResult::Explain() const {
  std::string out;
  for (const auto& v : violations) {
    out += "  - " + v + "\n";
  }
  out += "  " + capacity.Explain() + "\n";
  out += Fmt("  measured usable capacity %.1f tps\n", measured_capacity_tps);
  out += Fmt("  offered %.1f baseline / %.1f spike tps\n", offered_baseline_tps,
             offered_spike_tps);
  out += Fmt("  goodput %.1f baseline -> %.1f spike -> %.1f recovered tps\n",
             baseline_goodput_tps, spike_goodput_tps, recovered_goodput_tps);
  out += Fmt("  p99 %.0f ms (bound %.0f ms)\n", p99_ms, p99_bound_ms);
  out += "  " + queue_health;
  out += "  replay: " + replay + "\n";
  return out;
}

CapacityModel OverloadExplorer::Capacity() const {
  return PredictCapacity(MakeWorldConfig(config_), config_.variant);
}

OverloadRunResult OverloadExplorer::Run() { return RunInternal(/*storm=*/false); }

OverloadRunResult OverloadExplorer::RunLatencyStorm() { return RunInternal(/*storm=*/true); }

OverloadRunResult OverloadExplorer::RunInternal(bool storm) {
  OverloadRunResult out;
  out.replay = ReplayRecipe(config_.seed, config_.variant, "CAMELOT_OVERLOAD",
                            std::string(storm ? "storm" : "spike") +
                                (config_.shedding ? "" : ",noshed"));

  const WorldConfig world_config = MakeWorldConfig(config_);
  World world(world_config);
  out.capacity = PredictCapacity(world_config, config_.variant);

  LoadGenConfig base = config_.load;
  base.options = config_.variant;
  base.rng_seed = config_.seed;
  // The A/B lever: the collapse arm still CLASSIFIES by deadline but never
  // tells the system about it, and retries without a budget.
  base.propagate_deadlines = config_.shedding && config_.load.propagate_deadlines;
  if (!config_.shedding) {
    base.retry_budget_ratio = 0;
    // Unbudgeted clients hammer reload: they keep retrying to exhaustion even
    // past their deadline, so every shed or lock timeout multiplies the
    // offered load — the storm the budget and deadline propagation prevent.
    base.retry_past_deadline = true;
    base.max_retries = 3 * config_.load.max_retries;
  }
  SetupBank(world, ToBankConfig(base));

  const SimDuration total_window =
      config_.baseline_window + config_.spike_window + config_.recovery_window;
  out.measured_capacity_tps =
      MeasureUsableCapacity(config_, out.capacity.predicted_tps);
  // Floor the knee so a degenerate calibration still drives some load (the
  // baseline-goodput oracle below would then name the real problem).
  const double knee = std::max(1.0, out.measured_capacity_tps);
  out.offered_baseline_tps = config_.baseline_multiplier * knee;
  out.offered_spike_tps = config_.spike_multiplier * knee;

  LoadGenConfig bg_cfg = base;
  bg_cfg.offered_tps = out.offered_baseline_tps;
  bg_cfg.duration = total_window;
  LoadGen background(world, bg_cfg);

  LoadGenConfig spike_cfg = base;
  // The spike generator ADDS load on top of the background's 0.5x.
  spike_cfg.offered_tps = out.offered_spike_tps - out.offered_baseline_tps;
  spike_cfg.duration = config_.spike_window;
  spike_cfg.rng_seed = config_.seed + 101;

  const SimTime t0 = world.sched().now();
  const SimTime spike_start = t0 + config_.baseline_window;
  const SimTime spike_end = spike_start + config_.spike_window;
  const SimTime recovery_end = spike_end + config_.recovery_window;

  background.Start();
  world.RunFor(config_.baseline_window);
  out.baseline_goodput_tps = background.stats().GoodputTps(t0, spike_start);

  Nemesis nemesis(world.sched(), world.net(), &world.failpoints());
  std::optional<LoadGen> spike;
  if (storm) {
    // Offered load unchanged; capacity drops out from under it.
    NemesisEvent on;
    on.when = NemesisEvent::When::kAbsolute;
    on.at = 0;
    on.action = NemesisEvent::Action::kCongest;
    on.duration = config_.storm_congestion;
    NemesisEvent off;
    off.when = NemesisEvent::When::kAbsolute;
    off.at = config_.spike_window;
    off.action = NemesisEvent::Action::kCalm;
    CAMELOT_CHECK(nemesis.Install(NemesisScript{{on, off}}).ok());
  } else {
    spike.emplace(world, spike_cfg);
    spike->Start();
  }
  world.RunFor(config_.spike_window);
  out.spike_goodput_tps = background.stats().GoodputTps(spike_start, spike_end) +
                          (spike ? spike->stats().GoodputTps(spike_start, spike_end) : 0);

  world.RunFor(config_.recovery_window);
  // Recovery is judged on the tail of the window so the backlog the spike
  // left behind has had its chance to drain.
  const SimTime tail_start = spike_end + config_.recovery_window / 2;
  out.recovered_goodput_tps = background.stats().GoodputTps(tail_start, recovery_end);

  world.RunUntilIdle();  // Drain stragglers before auditing.

  out.background = background.stats();
  if (spike) {
    out.spike = spike->stats();
  }
  Summary latency = out.background.latency_ms;
  for (double sample : out.spike.latency_ms.samples()) {
    latency.Add(sample);
  }
  out.p99_ms = latency.Percentile(99);
  out.p99_bound_ms = config_.p99_bound_ms > 0
                         ? config_.p99_bound_ms
                         : 1.5 * static_cast<double>(config_.load.deadline) / 1000.0;
  for (int i = 0; i < world.site_count(); ++i) {
    const TranManCounters& tm = world.site(i).tranman().counters();
    out.overload_rejects += tm.overload_rejects;
    out.prepares_shed += tm.prepares_shed;
    out.deadline_shed += tm.deadline_shed;
    out.offpath_dropped += tm.offpath_dropped;
    for (auto& [name, server] : world.site(i).ServerMap()) {
      out.server_deadline_rejects += server->counters().deadline_rejects;
    }
  }
  out.queue_health = QueueHealthReport(world);

  // Liveness of the generators themselves: every arrival must resolve.
  if (!background.done() || (spike && !spike->done())) {
    Violate(&out, "load generator did not quiesce: arrivals still in flight after drain");
  }

  if (config_.shedding) {
    if (out.baseline_goodput_tps <= 0) {
      Violate(&out, "baseline produced zero goodput; capacity model is off");
    }
    if (out.spike_goodput_tps < config_.goodput_floor * out.baseline_goodput_tps) {
      Violate(&out, Fmt("goodput floor violated: %.1f tps during the spike < %.2f x "
                        "baseline %.1f tps",
                        out.spike_goodput_tps, config_.goodput_floor,
                        out.baseline_goodput_tps));
    }
    if (out.p99_ms > out.p99_bound_ms) {
      Violate(&out, Fmt("p99 latency unbounded: %.0f ms > %.0f ms bound", out.p99_ms,
                        out.p99_bound_ms));
    }
    if (out.recovered_goodput_tps < config_.recovery_fraction * out.baseline_goodput_tps) {
      Violate(&out, Fmt("no recovery: %.1f tps in the recovery tail < %.2f x baseline "
                        "%.1f tps (metastable residue)",
                        out.recovered_goodput_tps, config_.recovery_fraction,
                        out.baseline_goodput_tps));
    }
  }

  // Safety under pressure, both arms: shedding (or collapsing) must never
  // corrupt. Conservation audits every account; leaks audit locks/families.
  std::vector<std::string> safety = AuditBankInvariant(world, ToBankConfig(base));
  for (auto& v : safety) {
    Violate(&out, "safety: " + std::move(v));
  }
  AuditLeaks(world, config_.site_count, &out.violations);
  out.ok = out.violations.empty();
  return out;
}

std::vector<std::string> OverloadExplorer::ExpectCollapse(const OverloadRunResult& result) {
  std::vector<std::string> missing;
  // The collapse signature: the backlog outlives the spike (no recovery in
  // the tail) and committed latency blows through the deadline-derived bound.
  const bool goodput_collapsed =
      result.recovered_goodput_tps < 0.5 * result.baseline_goodput_tps ||
      result.spike_goodput_tps < 0.1 * result.baseline_goodput_tps;
  if (!goodput_collapsed) {
    missing.push_back(Fmt("congestion collapse absent: goodput held (%.1f spike / %.1f "
                          "recovered vs %.1f baseline tps) without admission control",
                          result.spike_goodput_tps, result.recovered_goodput_tps,
                          result.baseline_goodput_tps));
  }
  if (result.p99_ms <= result.p99_bound_ms) {
    missing.push_back(Fmt("congestion collapse absent: p99 %.0f ms stayed under the %.0f "
                          "ms bound without admission control",
                          result.p99_ms, result.p99_bound_ms));
  }
  return missing;
}

}  // namespace camelot
