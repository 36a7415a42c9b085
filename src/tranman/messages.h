// Datagram protocol spoken between transaction managers on different sites.
//
// "CornMan does not provide message transport for the transaction manager. In
// order to process distributed protocols as quickly as possible, transaction
// managers on different sites communicate using datagrams" (paper, footnote 1)
// — so these messages ride the raw Network with TranMan-implemented
// timeout/retry, and every handler is idempotent so duplicates are harmless.
#ifndef SRC_TRANMAN_MESSAGES_H_
#define SRC_TRANMAN_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "src/base/codec.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/tranman/local_api.h"

namespace camelot {

enum class TmMsgType : uint8_t {
  kPrepare = 1,       // coordinator -> subordinate (both protocols)
  kVote = 2,          // subordinate -> coordinator
  kCommit = 3,        // coordinator -> subordinate (notify phase)
  kAbort = 4,         // anyone -> anyone (presumed abort: no ack)
  kCommitAck = 5,     // subordinate -> coordinator (after commit record durable)
  kReplicate = 6,     // NBC replication phase / takeover re-proposal
  kReplicateAck = 7,  // acceptor -> proposer
  kStatusReq = 8,     // in-doubt site / takeover coordinator -> participants
  kStatusResp = 9,    // participant -> asker
  kSiteUp = 10,       // recovered site -> everyone: re-probe me if in doubt
  kPaxosAccepted = 11,  // Paxos acceptor -> leader: batched ballot-0 accept done
};

const char* TmMsgTypeName(TmMsgType type);

enum class TmVote : uint8_t {
  kCommit = 1,    // Prepared with updates.
  kReadOnly = 2,  // No updates here; drop me from later phases.
  kAbort = 3,     // Refused (or site state lost).
};

enum class TmDecision : uint8_t {
  kAbort = 0,
  kCommit = 1,
};

// A participant's answer to kStatusReq.
enum class TmTxnState : uint8_t {
  kUnknown = 0,   // Never heard of it / already forgotten (presume abort).
  kActive = 1,
  kPrepared = 2,
  kCommitted = 3,
  kAborted = 4,
};

struct TmMsg {
  TmMsgType type = TmMsgType::kPrepare;
  Tid tid;
  SiteId from = kInvalidSite;

  // kPrepare.
  CommitProtocol protocol = CommitProtocol::kTwoPhase;
  bool force_subordinate_commit = false;
  bool piggyback_commit_ack = false;
  std::vector<SiteId> sites;  // All participants, coordinator first.
  uint32_t commit_quorum = 0;
  uint32_t abort_quorum = 0;

  // kPrepare: the client deadline for the family (absolute virtual time;
  // 0 = none). A subordinate receiving an already-expired prepare refuses it
  // (votes abort) instead of doing work the client has given up on.
  SimTime deadline = 0;

  // kVote.
  TmVote vote = TmVote::kAbort;

  // kReplicate / kReplicateAck / kStatusReq / kStatusResp.
  uint64_t epoch = 0;
  TmDecision decision = TmDecision::kAbort;

  // kStatusResp.
  TmTxnState state = TmTxnState::kUnknown;
  bool has_replication = false;
  uint64_t replicated_epoch = 0;
  TmDecision replicated_decision = TmDecision::kAbort;
  // kStatusReq: a promised (Paxos) takeover read, which even a family-less
  // acceptor must answer with a promise at the read's epoch.
  // kStatusResp to such a read: the family is unknown here, but a
  // promise at the read's epoch was recorded — "no accepted value" is real
  // testimony a leader may count toward its read quorum, unlike a bare
  // kUnknown (which proves nothing: an amnesiac acceptor may have accepted
  // and lost the memory).
  bool promised = false;

  Bytes Encode() const;
  static Result<TmMsg> Decode(const Bytes& wire);
};

}  // namespace camelot

#endif  // SRC_TRANMAN_MESSAGES_H_
