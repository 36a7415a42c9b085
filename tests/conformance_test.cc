// Primitive-cost conformance: every cell of the {variant, txn kind,
// subordinate count, outcome} matrix must execute EXACTLY the primitives the
// static analysis predicts, and take at least as long as the analysis's
// (deliberately underestimating) latency prediction. The mutation tests prove
// the oracle has teeth: an extra protocol log force — armed through the
// failpoint subsystem — is rejected with a per-primitive diff naming it.
#include "src/harness/conformance.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/static_analysis.h"
#include "src/base/failpoint.h"
#include "src/harness/world.h"
#include "src/stats/cost_ledger.h"

namespace camelot {
namespace {

std::string CellLabel(const std::string& variant, TxnKind kind, int subordinates,
                      TxnOutcome outcome) {
  return variant + "/" + (kind == TxnKind::kWrite ? "write" : "read") + "/subs=" +
         std::to_string(subordinates) + "/" +
         (outcome == TxnOutcome::kCommit ? "commit" : "abort");
}

// Drives every {kind, subs, outcome} cell for one commit variant and asserts
// exact count conformance plus the latency underestimate bias.
void RunVariantMatrix(const std::string& variant, const CommitOptions& options,
                      int min_subordinates = 0, int max_subordinates = 3) {
  uint64_t seed = 1;
  for (const TxnKind kind : {TxnKind::kRead, TxnKind::kWrite}) {
    for (int subordinates = min_subordinates; subordinates <= max_subordinates;
         ++subordinates) {
      for (const TxnOutcome outcome : {TxnOutcome::kCommit, TxnOutcome::kAbort}) {
        ConformanceScenario scenario;
        scenario.options = options;
        scenario.kind = kind;
        scenario.subordinates = subordinates;
        scenario.outcome = outcome;
        scenario.seed = seed++;
        const ConformanceReport report = RunConformanceScenario(scenario);
        EXPECT_TRUE(report.ok())
            << CellLabel(variant, kind, subordinates, outcome) << "\n"
            << report.Explain();
      }
    }
  }
}

TEST(ConformanceMatrix, Optimized) {
  RunVariantMatrix("optimized", CommitOptions::Optimized());
}

TEST(ConformanceMatrix, Unoptimized) {
  RunVariantMatrix("unoptimized", CommitOptions::Unoptimized());
}

TEST(ConformanceMatrix, Intermediate) {
  RunVariantMatrix("intermediate", CommitOptions::Intermediate());
}

TEST(ConformanceMatrix, NonBlocking) {
  RunVariantMatrix("non_blocking", CommitOptions::NonBlocking());
}

TEST(ConformanceMatrix, PaxosF0) {
  RunVariantMatrix("paxos_f0", CommitOptions::Paxos(0));
}

TEST(ConformanceMatrix, PaxosF1) {
  RunVariantMatrix("paxos_f1", CommitOptions::Paxos(1));
}

// F = 2 with at most 3 subordinates exercises the acceptor-set clamp:
// min(2F+1, participants) pulled odd, so every cell runs at F_eff <= 1.
TEST(ConformanceMatrix, PaxosF2Clamped) {
  RunVariantMatrix("paxos_f2", CommitOptions::Paxos(2));
}

// F = 2 unclamped: 4-5 subordinates give the full five-acceptor registrar
// (commit quorum 3), so the F = 2 count vectors are exercised for real
// rather than collapsing to F_eff = 1.
TEST(ConformanceMatrix, PaxosF2Unclamped) {
  RunVariantMatrix("paxos_f2_wide", CommitOptions::Paxos(2), /*min_subordinates=*/4,
                   /*max_subordinates=*/5);
}

// Gray & Lamport's degenerate-case theorem, as executable fact: the PREDICTED
// F = 0 Paxos vector is the optimized two-phase vector in every cell, and a
// MEASURED F = 0 Paxos run matches the optimized two-phase prediction exactly.
TEST(ConformanceMatrix, PaxosF0CollapsesToOptimizedTwoPhase) {
  for (const TxnKind kind : {TxnKind::kRead, TxnKind::kWrite}) {
    for (int subordinates = 0; subordinates <= 3; ++subordinates) {
      for (const TxnOutcome outcome : {TxnOutcome::kCommit, TxnOutcome::kAbort}) {
        EXPECT_EQ(ExpectedMinimalTxnCounts(CommitOptions::Paxos(0), kind, subordinates, outcome),
                  ExpectedMinimalTxnCounts(CommitOptions::Optimized(), kind, subordinates,
                                           outcome))
            << CellLabel("paxos_f0-vs-optimized", kind, subordinates, outcome);
      }
    }
  }
  ConformanceScenario scenario;  // Write, 1 subordinate, commit.
  scenario.options = CommitOptions::Paxos(0);
  const ConformanceReport report = RunConformanceScenario(scenario);
  ASSERT_TRUE(report.txn_status.ok()) << report.txn_status.message();
  const CountVector optimized_prediction = ExpectedMinimalTxnCounts(
      CommitOptions::Optimized(), TxnKind::kWrite, /*subordinates=*/1, TxnOutcome::kCommit);
  EXPECT_EQ(CostLedger::Diff(optimized_prediction, report.measured), "");
}

// The acceptance-criterion mutation: arm one extra protocol log force through
// the failpoint subsystem and assert the oracle rejects the run with a diff
// naming the extra force. The callback fires when the subordinate passes its
// prepare-force point during the measured transaction and charges one more
// sub-side commit force to the ledger — exactly what a regression that
// re-introduced the Section 3.2 subordinate commit force would record.
TEST(ConformanceMutation, ExtraSubordinateForceIsRejected) {
  ConformanceScenario scenario;  // Optimized write, 1 subordinate, commit.
  const ConformanceReport report = RunConformanceScenario(
      scenario, [](World& world) {
        World* w = &world;
        world.failpoints().Arm(
            "tm.sub.prepare_force.after", SiteId{1},
            FailpointArm::Callback(1, [w] {
              w->cost_ledger().Record(
                  CostEvent{SiteId{1}, "sub", "commit", CostPrimitive::kLogForce});
            }));
      });
  EXPECT_TRUE(report.txn_status.ok()) << report.txn_status.message();
  EXPECT_FALSE(report.counts_match);
  EXPECT_FALSE(report.ok());
  // The diff must name the extra primitive, with direction and magnitude.
  EXPECT_NE(report.diff.find("sub/commit/force"), std::string::npos) << report.diff;
  EXPECT_NE(report.diff.find("(+1)"), std::string::npos) << report.diff;
  EXPECT_NE(report.Explain().find("sub/commit/force"), std::string::npos);
}

// Cross-variant mutation: the Intermediate prediction (subordinate commit
// force kept, ack still delayed) must NOT match an Optimized run — the whole
// point of the Section 3.2 comparison is that the variants are separable by
// their primitive counts alone.
TEST(ConformanceMutation, IntermediatePredictionRejectsOptimizedRun) {
  ConformanceScenario scenario;  // Optimized write, 1 subordinate, commit.
  const ConformanceReport report = RunConformanceScenario(scenario);
  ASSERT_TRUE(report.ok()) << report.Explain();
  const CountVector wrong_prediction = ExpectedMinimalTxnCounts(
      CommitOptions::Intermediate(), TxnKind::kWrite, /*subordinates=*/1,
      TxnOutcome::kCommit);
  const std::string diff = CostLedger::Diff(wrong_prediction, report.measured);
  EXPECT_FALSE(diff.empty());
  EXPECT_NE(diff.find("sub/commit/force"), std::string::npos) << diff;
}

// Paxos mutation 1: fail one remote acceptor's ballot-0 accept force. Under
// F = 1 the transaction still commits (the other two acceptors are a quorum),
// but the oracle rejects the run with a diff naming the missing accept force.
TEST(ConformanceMutation, PaxosSkippedAcceptForceIsRejected) {
  ConformanceScenario scenario;
  scenario.options = CommitOptions::Paxos(1);
  scenario.kind = TxnKind::kWrite;
  scenario.subordinates = 2;  // Acceptor set = all three sites.
  const ConformanceReport report = RunConformanceScenario(
      scenario, [](World& world) {
        world.failpoints().Arm("tm.paxos.accept_force.before", SiteId{1},
                               FailpointArm::Error(/*hit_number=*/1));
      });
  EXPECT_TRUE(report.txn_status.ok()) << report.txn_status.message();
  EXPECT_FALSE(report.counts_match);
  EXPECT_NE(report.diff.find("acceptor/paxos.accept/force"), std::string::npos) << report.diff;
  EXPECT_NE(report.diff.find("(-1)"), std::string::npos) << report.diff;
}

// Paxos mutation 2: drop the coordinator's first notify-phase COMMIT
// datagram. The decision is already carried by the accept quorum, so the
// transaction still commits; the retransmitter re-multicasts to every
// un-acked subordinate, leaving a count vector indistinguishable from the
// fault-free run (a dropped multicast is never recorded). The hit-2 callback
// proves the retransmission really happened: a fault-free run evaluates the
// COMMIT send point exactly once.
TEST(ConformanceMutation, PaxosDroppedCommitDatagramStillCommits) {
  ConformanceScenario scenario;
  scenario.options = CommitOptions::Paxos(1);
  scenario.kind = TxnKind::kWrite;
  scenario.subordinates = 2;
  auto retransmitted = std::make_shared<bool>(false);
  const ConformanceReport report = RunConformanceScenario(
      scenario, [retransmitted](World& world) {
        world.failpoints().Arm("tm.send.COMMIT", SiteId{0},
                               FailpointArm::Drop(/*hit_number=*/1));
        world.failpoints().Arm(
            "tm.send.COMMIT", SiteId{0},
            FailpointArm::Callback(/*hit_number=*/2,
                                   [retransmitted] { *retransmitted = true; }));
      });
  EXPECT_TRUE(report.txn_status.ok()) << report.txn_status.message();
  EXPECT_TRUE(*retransmitted);
  EXPECT_TRUE(report.counts_match) << report.diff;
}

// A failed (aborted-by-fault) run is reported as such rather than silently
// compared: arm a drop that never fires during the measured window to check
// the prepare hook itself does not perturb counts.
TEST(ConformanceMutation, UnfiredArmDoesNotPerturbCounts) {
  ConformanceScenario scenario;
  const ConformanceReport report = RunConformanceScenario(
      scenario, [](World& world) {
        world.failpoints().Arm("tm.sub.prepare_force.after", SiteId{1},
                               FailpointArm::Drop(/*hit_number=*/1000));
      });
  EXPECT_TRUE(report.ok()) << report.Explain();
}

}  // namespace
}  // namespace camelot
