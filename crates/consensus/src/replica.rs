//! The primary-tier replica state machine (§4.4.3).
//!
//! "We replace this master replica with a primary tier of replicas. These
//! replicas cooperate with one another in a Byzantine agreement protocol to
//! choose the final commit order for updates." The protocol is the
//! Castro–Liskov three-phase scheme the paper cites \[10\]: pre-prepare,
//! prepare (quorum 2m), commit (quorum 2m + 1), with `n = 3m + 1` replicas
//! tolerating `m` arbitrary faults, plus a simplified view change that
//! re-proposes prepared requests under a new leader.
//!
//! Fault injection is built in: a replica can be [`FaultMode::Silent`]
//! (crash-like) or [`FaultMode::Equivocate`] (lies about digests, including
//! equivocating pre-prepares as leader). Safety tests assert that honest
//! replicas never execute conflicting orders regardless.

use std::collections::{BTreeMap, HashMap, HashSet};

use oceanstore_crypto::schnorr::{verify, KeyPair, PublicKey, Signature};
use oceanstore_crypto::sha1::{sha1_concat, Digest};
use oceanstore_sim::{Context, Message, NodeId, SimDuration};

use crate::messages::{
    request_signing_bytes, set_sig, signing_bytes, slot_digest, Namer, Opaque, Payload, PbftMsg,
    PbftTimer, RequestId, StableCert, StateEntry,
};

/// Stable-checkpoint / log-GC knobs.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint every `interval` executed slots (the protocol's K).
    pub interval: u64,
    /// Slots a replica will buffer above its low-water mark; agreement
    /// traffic at or past `low_water + window` is dropped.
    pub window: u64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { interval: 64, window: 128 }
    }
}

/// Static configuration of one primary tier.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Faults tolerated; the tier has `3m + 1` replicas.
    pub m: usize,
    /// Transport address of each replica, by tier index.
    pub members: Vec<NodeId>,
    /// Public key of each replica, by tier index.
    pub replica_keys: Vec<PublicKey>,
    /// Public keys of authorized clients (writer restriction happens above
    /// this layer; these are transport-level client identities).
    pub client_keys: HashMap<NodeId, PublicKey>,
    /// How long a replica waits for an accepted request to execute before
    /// starting a view change.
    pub view_timeout: SimDuration,
    /// Stable-checkpoint / log-GC knobs.
    pub checkpoint: CheckpointConfig,
}

impl TierConfig {
    /// Total replica count `n = 3m + 1`.
    pub fn n(&self) -> usize {
        3 * self.m + 1
    }

    /// Prepare quorum (2m matching prepares beyond the pre-prepare).
    pub fn prepare_quorum(&self) -> usize {
        2 * self.m
    }

    /// Commit quorum (2m + 1 commits).
    pub fn commit_quorum(&self) -> usize {
        2 * self.m + 1
    }

    /// The leader index for `view`.
    pub fn leader(&self, view: u64) -> usize {
        (view % self.n() as u64) as usize
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if member/key counts disagree with `3m + 1`, or if the
    /// checkpoint interval is not in `1..=window`: with no interval no
    /// checkpoint ever forms, and with one past the window the window
    /// fills before the first checkpoint can move it.
    pub fn validate(&self) {
        assert_eq!(self.members.len(), self.n(), "need 3m+1 members");
        assert_eq!(self.replica_keys.len(), self.n(), "need 3m+1 keys");
        let CheckpointConfig { interval, window } = self.checkpoint;
        assert!(
            0 < interval && interval <= window,
            "checkpoint interval {interval} must be in 1..={window} (the window)"
        );
    }
}

/// Fault behaviour of a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Sends nothing at all (crash fault).
    Silent,
    /// Sends conflicting digests to different peers (Byzantine).
    Equivocate,
    /// Participates in every round but signs with a key that is not its
    /// configured one (Byzantine): every signature it emits is a forgery
    /// against its tier slot. Every receiver checks every vote on receipt,
    /// so none of its messages may ever be counted.
    ForgeSigs,
}

/// One agreement slot.
#[derive(Debug, Default, Clone)]
struct Instance {
    digest: Option<Digest>,
    request: Option<RequestId>,
    /// View in which the current digest was adopted. A later view's
    /// leader may overwrite an unexecuted slot (its choice is built from
    /// a vote quorum, which must contain any certificate that could
    /// underpin a commit); within one view the first digest is final, so
    /// an equivocating leader cannot flip-flop a slot.
    digest_view: u64,
    prepares: HashSet<usize>,
    commits: HashSet<usize>,
    /// Verified commit signatures, parallel to `commits`: the raw material
    /// of a state-transfer proof. Retained at execution so the slot can be
    /// shipped to a rejoining replica with a self-certifying quorum.
    commit_sigs: Vec<(usize, Signature)>,
    /// Sticky: this slot reached a prepare certificate (`> 2m` prepares)
    /// at some point. Survives view changes — the certificate may
    /// underpin a commit elsewhere, so it must keep circulating in
    /// view-change votes until the slot executes.
    prepared_cert: bool,
    sent_commit: bool,
    executed: bool,
}

/// A committed update, in final serialization order, with the note its
/// payload was named with (see [`Namer`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Committed<Note = ()> {
    /// Agreement sequence number.
    pub seq: u64,
    /// Slot digest the quorum committed (binds payload, request id, and
    /// timestamp; see `messages::slot_digest`).
    pub digest: Digest,
    /// The payload itself.
    pub payload: Payload,
    /// Originating request.
    pub request: RequestId,
    /// The client's optimistic timestamp.
    pub timestamp: u64,
    /// What naming the payload derived besides its name.
    pub note: Note,
}

/// Memory-health snapshot of one replica: what its agreement state
/// retains, where its water marks stand, and its state-transfer counters.
/// Read directly by whoever watches it: the chaos rejoin oracle bounds
/// `log_len`, the benchmark reports `log_len` and `state_fetches`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaHealth {
    /// Agreement slots currently retained in the log.
    pub log_len: u64,
    /// Committed entries retained (output suffix not yet truncated).
    pub executed_len: u64,
    /// Request payloads retained.
    pub requests_len: u64,
    /// Request → slot assignments retained.
    pub assigned_len: u64,
    /// Low-water mark (everything below is truncated).
    pub low_water: u64,
    /// High-water mark (agreement traffic at or above is refused).
    pub high_water: u64,
    /// Execution frontier.
    pub next_exec: u64,
    /// Sequence of the latest stable checkpoint certificate held.
    pub checkpoint_seq: u64,
    /// State-transfer bytes served to rejoining peers.
    pub state_bytes_served: u64,
    /// State-transfer bytes installed from peers.
    pub state_bytes_installed: u64,
    /// State responses that advanced this replica.
    pub state_installs: u64,
    /// State responses (or embedded certificates) rejected as invalid.
    pub state_rejects: u64,
    /// View-change votes this replica answered with state: each verified
    /// vote whose `last_exec` is below our frontier draws one `State`.
    pub state_fetches: u64,
    /// Per-client reply-cache entries retained (bounded per client).
    pub reply_cache_len: u64,
}

/// Re-reply entries retained per client *below* its contiguous floor.
/// Entries at or above the floor are never trimmed — they are what makes
/// the dedup exact — so boundedness assumes clients issue sequences in
/// roughly increasing order, which the tier's client does.
const REPLY_TAIL: usize = 128;

/// Per-client record of executed requests, surviving checkpoint
/// truncation: the replica's one dedup structure. It stops a request
/// re-proposed across a view change from executing at a second slot, and
/// a retransmission of a request whose slot was truncated below the
/// low-water mark from executing a second time (classic PBFT's per-client
/// reply cache, adapted to pipelined clients:
/// requests can execute out of client-sequence order here, so a single
/// "last executed timestamp" cursor would wrongly reject in-flight
/// requests and stall the client).
#[derive(Debug, Default, Clone)]
struct ClientExec {
    /// Every client sequence below this mark has executed (the
    /// contiguous floor — exact dedup for trimmed entries).
    done_below: u64,
    /// Executed client sequences not covered by the floor (plus a bounded
    /// tail below it kept for re-replies), mapped to (slot, slot digest).
    tail: BTreeMap<u64, (u64, Digest)>,
}

impl ClientExec {
    /// Has this client sequence executed, at any point in history?
    fn executed(&self, cseq: u64) -> bool {
        cseq < self.done_below || self.tail.contains_key(&cseq)
    }

    /// The (slot, digest) to re-reply with, if still retained.
    fn reply(&self, cseq: u64) -> Option<(u64, Digest)> {
        self.tail.get(&cseq).copied()
    }

    /// Records an execution and trims the re-reply tail.
    fn note(&mut self, cseq: u64, slot: u64, digest: Digest) {
        self.tail.insert(cseq, (slot, digest));
        while self.tail.contains_key(&self.done_below) {
            self.done_below += 1;
        }
        while self.tail.len() > REPLY_TAIL
            && self.tail.first_key_value().is_some_and(|(&k, _)| k < self.done_below)
        {
            self.tail.pop_first();
        }
    }
}

/// One tier member's view-change votes: voter index → its execution
/// frontier plus the certificate entries (seq, digest, request) it can
/// vouch for — executed slots and prepared certificates alike.
type VcVotes = HashMap<usize, (u64, Vec<(u64, Digest, RequestId)>)>;

/// Extends the rolling state digest with one executed slot. Replicas that
/// executed the same history at the same frontier agree on the result —
/// which is exactly what a checkpoint vote attests to.
fn chain_digest(prev: &Digest, seq: u64, digest: &Digest, id: RequestId, timestamp: u64) -> Digest {
    sha1_concat(&[
        prev,
        &seq.to_be_bytes(),
        digest,
        &(id.client.0 as u64).to_be_bytes(),
        &id.seq.to_be_bytes(),
        &timestamp.to_be_bytes(),
    ])
}

/// A request payload a replica holds, with its client timestamp and its
/// name and note under the tier's namer — derived once, from these bytes,
/// on admission or on install.
#[derive(Debug, Clone)]
struct Held<Note> {
    payload: Payload,
    timestamp: u64,
    name: Digest,
    note: Note,
}

/// A primary-tier replica, naming payloads with `N`.
#[derive(Debug)]
pub struct Replica<N: Namer = Opaque> {
    cfg: TierConfig,
    index: usize,
    keypair: KeyPair,
    fault: FaultMode,
    /// Names a payload from its bytes: the value a client request's
    /// signature covers and a slot digest binds.
    namer: N,
    view: u64,
    /// Leader-only: next sequence to assign.
    next_seq: u64,
    /// Agreement slots by sequence.
    log: BTreeMap<u64, Instance>,
    /// Request payloads by id (from Request messages and state transfer).
    requests: HashMap<RequestId, Held<N::Note>>,
    /// Requests assigned to a sequence (leader bookkeeping / dedup).
    assigned: HashMap<RequestId, u64>,
    /// Highest sequence executed + 1 == next to execute.
    next_exec: u64,
    /// The committed order (the tier's output): the retained suffix.
    /// Entries below the low-water mark are truncated after the layer
    /// above has had a chance to drain them; `executed_dropped` keeps the
    /// absolute index stable across truncation.
    executed: Vec<Committed<N::Note>>,
    /// Committed entries truncated off the front of `executed`.
    executed_dropped: u64,
    /// Per-client executed-request cache: every request that executed,
    /// at any point in history. A request re-proposed across view changes
    /// can commit at a second slot; the duplicate slot executes as a no-op
    /// so the tier's output applies it once. The cache survives checkpoint
    /// truncation, so a client retransmission of a request whose slot is
    /// below the low-water mark is answered from here instead of executing
    /// a second time.
    reply_cache: HashMap<NodeId, ClientExec>,
    /// Rolling state digest: chained over every executed slot, so replicas
    /// at the same frontier with the same history agree on it (the thing a
    /// checkpoint vote attests to).
    state_digest: Digest,
    /// Everything below this mark has been truncated (always ≤ `next_exec`).
    low_water: u64,
    /// Latest stable checkpoint certificate held. May run ahead of
    /// `next_exec` on a lagging replica (the certificate arrived before
    /// the history did); `low_water` never does.
    stable: Option<StableCert>,
    /// Checkpoint votes: seq → voter → (digest, signature).
    ckpt_votes: BTreeMap<u64, HashMap<usize, (Digest, Signature)>>,
    /// Commit certificates of executed slots: seq → (view, quorum sigs).
    /// The payload of state transfer; truncated at the low-water mark.
    exec_proofs: BTreeMap<u64, (u64, Vec<(usize, Signature)>)>,
    /// State-transfer counters (bytes served / installed, installs,
    /// rejected responses, view-change votes answered with state).
    st_served: u64,
    st_installed: u64,
    st_installs: u64,
    st_rejects: u64,
    st_answers: u64,
    /// View-change votes: new_view → voter → prepared set.
    vc_votes: HashMap<u64, VcVotes>,
    /// The execution frontier (`next_exec`) the armed view-change alarm
    /// was set at; `None` while no alarm is armed in the current view.
    alarm: Option<u64>,
    /// Total view-change votes this replica has broadcast. During a
    /// quorum-loss partition this climbs while `view` stays put — no side
    /// can gather `2m + 1` votes — which is exactly the signature the
    /// chaos `quorum_loss` scenario asserts on.
    view_changes_sent: u64,
}

impl<N: Namer> Replica<N> {
    /// Creates replica `index` of the tier, naming payloads with `namer`
    /// (the namer the tier's clients sign with).
    ///
    /// # Panics
    ///
    /// Panics if the config is inconsistent or `index` out of range.
    pub fn new(
        cfg: TierConfig,
        index: usize,
        keypair: KeyPair,
        fault: FaultMode,
        namer: N,
    ) -> Self {
        cfg.validate();
        assert!(index < cfg.n(), "replica index out of range");
        assert_eq!(
            cfg.replica_keys[index],
            keypair.public(),
            "keypair must match the configured key"
        );
        Replica {
            cfg,
            index,
            keypair,
            fault,
            namer,
            view: 0,
            next_seq: 0,
            log: BTreeMap::new(),
            requests: HashMap::new(),
            assigned: HashMap::new(),
            next_exec: 0,
            executed: Vec::new(),
            executed_dropped: 0,
            reply_cache: HashMap::new(),
            state_digest: Digest::default(),
            low_water: 0,
            stable: None,
            ckpt_votes: BTreeMap::new(),
            exec_proofs: BTreeMap::new(),
            st_served: 0,
            st_installed: 0,
            st_installs: 0,
            st_rejects: 0,
            st_answers: 0,
            vc_votes: HashMap::new(),
            alarm: None,
            view_changes_sent: 0,
        }
    }

    /// The committed updates in serialization order — the *retained*
    /// suffix. Entries below the low-water mark are eventually truncated;
    /// use [`Replica::executed_seen`] / [`Replica::executed_entry`] for a
    /// truncation-stable cursor.
    pub fn executed(&self) -> &[Committed<N::Note>] {
        &self.executed
    }

    /// Total committed entries ever produced (truncated ones included).
    pub fn executed_seen(&self) -> u64 {
        self.executed_dropped + self.executed.len() as u64
    }

    /// The committed entry at absolute output index `abs` (0-based over
    /// the whole history), or `None` if it has been truncated below the
    /// low-water mark.
    pub fn executed_entry(&self, abs: u64) -> Option<&Committed<N::Note>> {
        let idx = abs.checked_sub(self.executed_dropped)?;
        self.executed.get(idx as usize)
    }

    /// The execution frontier (highest executed slot + 1).
    pub fn next_exec(&self) -> u64 {
        self.next_exec
    }

    /// The low-water mark: everything below is truncated and final.
    pub fn low_water(&self) -> u64 {
        self.low_water
    }

    /// The high-water mark: agreement traffic at or above is refused.
    pub fn high_water(&self) -> u64 {
        self.low_water.saturating_add(self.cfg.checkpoint.window)
    }

    /// The rolling state digest over all executed slots.
    pub fn state_digest(&self) -> Digest {
        self.state_digest
    }

    /// The latest stable checkpoint certificate held, if any.
    pub fn stable_checkpoint(&self) -> Option<&StableCert> {
        self.stable.as_ref()
    }

    /// Distinct checkpoint-vote sequences currently buffered (bounded-
    /// memory diagnostics: vote spam must not grow this).
    pub fn checkpoint_vote_seqs(&self) -> usize {
        self.ckpt_votes.len()
    }

    /// Memory-health snapshot.
    pub fn health(&self) -> ReplicaHealth {
        ReplicaHealth {
            log_len: self.log.len() as u64,
            executed_len: self.executed.len() as u64,
            requests_len: self.requests.len() as u64,
            assigned_len: self.assigned.len() as u64,
            low_water: self.low_water,
            high_water: self.high_water(),
            next_exec: self.next_exec,
            checkpoint_seq: self.stable_seq(),
            state_bytes_served: self.st_served,
            state_bytes_installed: self.st_installed,
            state_installs: self.st_installs,
            state_rejects: self.st_rejects,
            state_fetches: self.st_answers,
            reply_cache_len: self.reply_cache.values().map(|c| c.tail.len() as u64).sum(),
        }
    }

    fn stable_seq(&self) -> u64 {
        self.stable.as_ref().map_or(0, |c| c.seq)
    }

    /// Diagnostic: for every agreement slot, the replica indices whose
    /// prepare and commit votes were counted toward a quorum — its own,
    /// the leader's pre-prepare, and every peer vote whose signature
    /// verified on receipt. Lets tests assert that a Byzantine signer's
    /// votes never enter any quorum set.
    pub fn counted_vote_senders(&self) -> Vec<(u64, Vec<usize>, Vec<usize>)> {
        let mut out: Vec<(u64, Vec<usize>, Vec<usize>)> = self
            .log
            .iter()
            .map(|(&seq, inst)| {
                let mut p: Vec<usize> = inst.prepares.iter().copied().collect();
                let mut c: Vec<usize> = inst.commits.iter().copied().collect();
                p.sort_unstable();
                c.sort_unstable();
                (seq, p, c)
            })
            .collect();
        out.sort_unstable_by_key(|(seq, _, _)| *seq);
        out
    }

    /// The digests of the committed order (for safety comparisons).
    pub fn executed_digests(&self) -> Vec<Digest> {
        self.executed.iter().map(|c| c.digest).collect()
    }

    /// Current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Total view-change votes this replica has broadcast (liveness
    /// probes under partition: votes without view advancement mean the
    /// replica noticed the stall but cannot gather a quorum).
    pub fn view_changes_sent(&self) -> u64 {
        self.view_changes_sent
    }

    /// This replica's tier index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Injects or clears a fault mode (failure-injection tests).
    pub fn set_fault(&mut self, fault: FaultMode) {
        self.fault = fault;
    }

    fn am_leader(&self) -> bool {
        self.cfg.leader(self.view) == self.index
    }

    /// Signs `msg` over its canonical bytes and returns it with the
    /// signature filled in. A [`FaultMode::ForgeSigs`] replica signs with a
    /// decoy key instead of its configured one, so every signature it emits
    /// is a forgery against its tier slot.
    fn signed(&self, mut msg: PbftMsg) -> PbftMsg {
        let bytes = signing_bytes(&msg);
        let sig = if self.fault == FaultMode::ForgeSigs {
            KeyPair::from_seed(b"forge-sigs-decoy").sign(&bytes)
        } else {
            self.keypair.sign(&bytes)
        };
        set_sig(&mut msg, sig);
        msg
    }

    fn verify_replica(&self, replica: usize, msg: &PbftMsg) -> bool {
        let Some(key) = self.cfg.replica_keys.get(replica) else { return false };
        let sig = match msg {
            PbftMsg::PrePrepare { sig, .. }
            | PbftMsg::Prepare { sig, .. }
            | PbftMsg::Commit { sig, .. }
            | PbftMsg::ViewChange { sig, .. }
            | PbftMsg::NewView { sig, .. }
            | PbftMsg::Checkpoint { sig, .. }
            | PbftMsg::State { sig, .. } => sig,
            _ => return false,
        };
        verify(*key, &signing_bytes(msg), sig)
    }

    /// Sends to every *other* replica, honoring the fault mode. `mutate`
    /// lets an equivocating replica tamper per-recipient.
    fn broadcast(
        &self,
        ctx: &mut Context<'_, PbftMsg>,
        mut make: impl FnMut(usize) -> Option<PbftMsg>,
    ) {
        if self.fault == FaultMode::Silent {
            return;
        }
        for (i, &node) in self.cfg.members.iter().enumerate() {
            if i == self.index {
                continue;
            }
            if let Some(msg) = make(i) {
                ctx.send(node, msg);
            }
        }
    }

    /// Sends the *same* message to every other replica, honoring the fault
    /// mode. Uses the engine's shared-payload multicast: one allocation for
    /// the whole quorum instead of a clone per recipient.
    fn multicast(&self, ctx: &mut Context<'_, PbftMsg>, msg: PbftMsg) {
        if self.fault == FaultMode::Silent {
            return;
        }
        let my = self.index;
        let peers = self
            .cfg
            .members
            .iter()
            .enumerate()
            .filter(move |(i, _)| *i != my)
            .map(|(_, &node)| node);
        ctx.broadcast(peers, msg);
    }

    /// An equivocator flips a digest for odd-indexed recipients.
    fn maybe_corrupt(&self, recipient: usize, digest: Digest) -> Digest {
        if self.fault == FaultMode::Equivocate && recipient % 2 == 1 {
            let mut d = digest;
            d[0] ^= 0xff;
            d
        } else {
            digest
        }
    }

    /// Handles a client request, its payload named from the bytes it
    /// carries.
    fn on_request(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        id: RequestId,
        request: Held<N::Note>,
        sig: &Signature,
    ) {
        // Writer restriction at the transport level: unknown or bad
        // signatures are ignored.
        let Some(key) = self.cfg.client_keys.get(&id.client) else { return };
        if !verify(*key, &request_signing_bytes(id, request.timestamp, &request.name), sig) {
            return;
        }
        // Already executed — possibly at a slot truncated below the
        // low-water mark, where `assigned` no longer remembers it. Never
        // re-propose (the tier's output would apply the request twice);
        // re-send the reply from the per-client cache and stop. The
        // request is also *not* re-inserted into `requests`: resurrecting
        // a payload with no live assignment would read as a stuck request
        // and churn view changes.
        if self.reply_cache.get(&id.client).is_some_and(|c| c.executed(id.seq)) {
            if self.fault != FaultMode::Silent {
                if let Some((seq, digest)) =
                    self.reply_cache.get(&id.client).and_then(|c| c.reply(id.seq))
                {
                    let my = self.index;
                    let reply = self.signed(PbftMsg::Reply {
                        id,
                        seq,
                        digest,
                        replica: my,
                        sig: Signature::default(),
                    });
                    ctx.send(id.client, reply);
                }
            }
            return;
        }
        self.requests.insert(id, request);
        if self.assigned.contains_key(&id) {
            // Duplicate of an in-flight request (likely a retransmission):
            // guard the stuck agreement with a view-change alarm (messages
            // of the original round may all have been lost).
            self.watch(ctx);
            return;
        }
        if self.am_leader() {
            self.propose(ctx, id);
        } else {
            self.watch(ctx);
        }
    }

    /// Guards progress with a view-change alarm, unless one is armed
    /// already. The alarm remembers the execution frontier it was set at.
    fn watch(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if self.alarm.is_none() {
            self.alarm = Some(self.next_exec);
            ctx.set_timer(self.cfg.view_timeout, PbftTimer::View(self.view));
        }
    }

    /// Whether a request this replica holds waits on the leader: assigned
    /// a slot that has not executed, or not assigned one yet.
    fn waiting(&self) -> bool {
        self.assigned.values().any(|&seq| self.log.get(&seq).is_none_or(|i| !i.executed))
            || self.requests.keys().any(|id| !self.assigned.contains_key(id))
    }

    fn propose(&mut self, ctx: &mut Context<'_, PbftMsg>, id: RequestId) {
        let Some(held) = self.requests.get(&id) else { return };
        let digest = slot_digest(&held.name, id, held.timestamp);
        // Skip slots already seeded by re-proposal: after a view change
        // `next_seq` points at the lowest unfilled slot, and the slots
        // above it may hold adopted certificates.
        let mut seq = self.next_seq;
        while self.log.get(&seq).is_some_and(|i| i.digest.is_some()) {
            seq += 1;
        }
        // Never propose past the window: peers would refuse to buffer the
        // slot. The request stays unassigned; if the window fails to
        // advance, the view-change alarm (armed below) takes over.
        if seq >= self.high_water() {
            self.watch(ctx);
            return;
        }
        self.next_seq = seq + 1;
        self.propose_at(ctx, seq, digest, id);
    }

    /// Seeds slot `seq` with `(digest, id)` and broadcasts the
    /// pre-prepare. Used directly by re-proposal, where the digest comes
    /// from a certificate rather than a local payload (which this replica
    /// may not even hold yet); an already-executed slot is left untouched
    /// but still re-announced so stragglers can rebuild its quorum.
    fn propose_at(&mut self, ctx: &mut Context<'_, PbftMsg>, seq: u64, digest: Digest, id: RequestId) {
        self.assigned.insert(id, seq);
        let view = self.view;
        let inst = self.log.entry(seq).or_default();
        if !inst.executed {
            inst.digest = Some(digest);
            inst.digest_view = view;
            inst.request = Some(id);
            inst.prepares.insert(self.index);
        }
        self.broadcast(ctx, |recipient| {
            let d = self.maybe_corrupt(recipient, digest);
            Some(self.signed(PbftMsg::PrePrepare {
                view,
                seq,
                digest: d,
                id,
                sig: Signature::default(),
            }))
        });
        self.maybe_commit_phase(ctx, seq);
    }

    fn on_preprepare(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        view: u64,
        seq: u64,
        digest: Digest,
        id: RequestId,
    ) {
        if view != self.view {
            return;
        }
        let inst = self.log.entry(seq).or_default();
        if inst.executed {
            if inst.digest != Some(digest) {
                return; // never rewrite executed history
            }
            // Re-announcement of a slot we already executed (a new view's
            // leader catching up a straggler): fall through and re-send
            // our prepare so the straggler can rebuild the quorum.
        } else if inst.digest.is_some_and(|d| d != digest) {
            if view > inst.digest_view {
                // A later view's leader re-seeds the slot. Its choice is
                // derived from a vote quorum, which must contain any
                // certificate that could underpin a commit — adopt it and
                // restart the rounds, so stale votes for the old digest
                // don't count toward the new one.
                inst.prepares.clear();
                inst.commits.clear();
                inst.commit_sigs.clear();
                inst.sent_commit = false;
                inst.prepared_cert = false;
            } else {
                // Conflicting proposal within one view: ignore (view
                // change will handle an equivocating leader).
                return;
            }
        }
        if !inst.executed {
            inst.digest = Some(digest);
            inst.digest_view = view;
            inst.request = Some(id);
        }
        inst.prepares.insert(self.cfg.leader(view));
        inst.prepares.insert(self.index);
        self.assigned.insert(id, seq);
        let my = self.index;
        let base = self.signed(PbftMsg::Prepare {
            view,
            seq,
            digest,
            replica: my,
            sig: Signature::default(),
        });
        self.broadcast(ctx, |recipient| {
            let d = self.maybe_corrupt(recipient, digest);
            if d == digest {
                Some(base.clone())
            } else {
                Some(self.signed(PbftMsg::Prepare {
                    view,
                    seq,
                    digest: d,
                    replica: my,
                    sig: Signature::default(),
                }))
            }
        });
        self.maybe_commit_phase(ctx, seq);
        self.watch(ctx);
    }

    /// Counts a prepare. The protocol-state checks come first — view and
    /// window at dispatch, digest match and sender-not-yet-counted here —
    /// so a vote that cannot count is dropped before its signature is
    /// looked at; then one `verify`, then the count.
    fn on_prepare(&mut self, ctx: &mut Context<'_, PbftMsg>, msg: &PbftMsg) {
        let PbftMsg::Prepare { seq, digest, replica, .. } = *msg else { return };
        let inst = self.log.entry(seq).or_default();
        let countable = inst.digest == Some(digest) && !inst.prepares.contains(&replica);
        if countable && self.verify_replica(replica, msg) {
            self.log.get_mut(&seq).expect("slot exists").prepares.insert(replica);
        }
        self.maybe_commit_phase(ctx, seq);
    }

    fn maybe_commit_phase(&mut self, ctx: &mut Context<'_, PbftMsg>, seq: u64) {
        let prepare_quorum = self.cfg.prepare_quorum();
        let Some(inst) = self.log.get_mut(&seq) else { return };
        let Some(digest) = inst.digest else { return };
        if inst.prepares.len() > prepare_quorum {
            inst.prepared_cert = true;
        }
        if inst.sent_commit || inst.prepares.len() < prepare_quorum + 1 {
            return;
        }
        inst.sent_commit = true;
        inst.commits.insert(self.index);
        let view = self.view;
        let my = self.index;
        let msg = self.signed(PbftMsg::Commit {
            view,
            seq,
            digest,
            replica: my,
            sig: Signature::default(),
        });
        if let PbftMsg::Commit { sig, .. } = &msg {
            // Keep our own signature with the quorum's: a state-transfer
            // proof needs the raw signatures, not just the counted set.
            self.log.get_mut(&seq).expect("slot exists").commit_sigs.push((my, *sig));
        }
        self.multicast(ctx, msg);
        self.try_execute(ctx);
    }

    /// Counts a commit, by the same rule as [`Replica::on_prepare`]. The
    /// signature is kept with the count: the quorum's raw signatures are
    /// the slot's state-transfer proof.
    fn on_commit(&mut self, ctx: &mut Context<'_, PbftMsg>, msg: &PbftMsg) {
        let PbftMsg::Commit { seq, digest, replica, sig, .. } = *msg else { return };
        let inst = self.log.entry(seq).or_default();
        let countable = inst.digest == Some(digest) && !inst.commits.contains(&replica);
        if countable && self.verify_replica(replica, msg) {
            let inst = self.log.get_mut(&seq).expect("slot exists");
            inst.commits.insert(replica);
            inst.commit_sigs.push((replica, sig));
        }
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        loop {
            let seq = self.next_exec;
            let Some(inst) = self.log.get(&seq) else { break };
            if inst.executed
                || inst.commits.len() < self.cfg.commit_quorum()
                || inst.digest.is_none()
            {
                break;
            }
            let digest = inst.digest.expect("checked above");
            let id = inst.request.expect("digest implies request");
            let Some(held) = self.requests.get(&id) else { break };
            // A faulty leader could propose a digest that doesn't match
            // the request payload (or its id/timestamp — the slot digest
            // binds all three); never execute such a slot.
            if slot_digest(&held.name, id, held.timestamp) != digest {
                break;
            }
            let timestamp = held.timestamp;
            let inst = self.log.get_mut(&seq).expect("present");
            inst.executed = true;
            // Snapshot the commit certificate: every counted commit was
            // accepted in the current view (view entry clears the sets of
            // unexecuted slots), so this is a same-view 2m + 1 quorum — a
            // self-certifying proof a state-transfer receiver can check.
            let proof = inst.commit_sigs.clone();
            self.next_exec += 1;
            self.state_digest = chain_digest(&self.state_digest, seq, &digest, id, timestamp);
            self.exec_proofs.insert(seq, (self.view, proof));
            // Dedup spans the whole history: the per-client reply cache
            // remembers every request that executed.
            if self.reply_cache.get(&id.client).is_some_and(|c| c.executed(id.seq)) {
                // The request already executed at a lower slot (it was
                // re-proposed across a view change before the original
                // commit was visible here). The slot still commits — the
                // order must stay gap-free and every replica with the same
                // log makes the same call — but it adds nothing to the
                // tier's output, and the client was already answered.
                self.maybe_checkpoint(ctx);
                continue;
            }
            self.reply_cache.entry(id.client).or_default().note(id.seq, seq, digest);
            let Held { payload, note, .. } = self.requests[&id].clone();
            self.executed.push(Committed { seq, digest, payload, request: id, timestamp, note });
            // Reply to the client.
            let my = self.index;
            let reply = self.signed(PbftMsg::Reply {
                id,
                seq,
                digest,
                replica: my,
                sig: Signature::default(),
            });
            if self.fault != FaultMode::Silent {
                ctx.send(id.client, reply);
            }
            self.maybe_checkpoint(ctx);
        }
    }

    /// Broadcasts (and self-records) a checkpoint vote whenever the
    /// execution frontier crosses a K boundary. The vote carries the
    /// rolling state digest, which is only available exactly at the
    /// crossing — hence the call from inside the execution loop.
    fn maybe_checkpoint(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        let k = self.cfg.checkpoint.interval;
        let seq = self.next_exec;
        if seq == 0 || !seq.is_multiple_of(k) || seq <= self.stable_seq() {
            return;
        }
        if self.ckpt_votes.get(&seq).is_some_and(|v| v.contains_key(&self.index)) {
            return;
        }
        let digest = self.state_digest;
        let my = self.index;
        let base = self.signed(PbftMsg::Checkpoint {
            seq,
            digest,
            replica: my,
            sig: Signature::default(),
        });
        let own_sig = match &base {
            PbftMsg::Checkpoint { sig, .. } => *sig,
            _ => unreachable!(),
        };
        self.broadcast(ctx, |recipient| {
            let d = self.maybe_corrupt(recipient, digest);
            if d == digest {
                Some(base.clone())
            } else {
                Some(self.signed(PbftMsg::Checkpoint {
                    seq,
                    digest: d,
                    replica: my,
                    sig: Signature::default(),
                }))
            }
        });
        self.record_ckpt_vote(ctx, seq, digest, my, own_sig);
    }

    /// Records a (signature-verified) checkpoint vote; `2m + 1` matching
    /// `(seq, digest)` votes form a stable certificate.
    fn record_ckpt_vote(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        seq: u64,
        digest: Digest,
        replica: usize,
        sig: Signature,
    ) {
        if seq <= self.stable_seq() {
            return;
        }
        // A faulty replica must not grow `ckpt_votes` without bound: only
        // interval-aligned sequences within the admission window are real
        // checkpoints, so anything else is dropped before it allocates a
        // vote slot. A tier genuinely checkpointing above our window
        // reaches us through state transfer and view-change votes, where
        // its certificate travels whole and is verified as a unit.
        let k = self.cfg.checkpoint.interval.max(1);
        if !seq.is_multiple_of(k) || seq > self.high_water() {
            return;
        }
        let quorum = self.cfg.commit_quorum();
        let votes = self.ckpt_votes.entry(seq).or_default();
        votes.insert(replica, (digest, sig));
        let matching = votes.values().filter(|(d, _)| *d == digest).count();
        if matching < quorum {
            return;
        }
        let mut sigs: Vec<(usize, Signature)> = votes
            .iter()
            .filter(|(_, (d, _))| *d == digest)
            .map(|(&r, &(_, s))| (r, s))
            .collect();
        sigs.sort_unstable_by_key(|&(r, _)| r);
        self.adopt_stable(ctx, StableCert { seq, digest, sigs });
    }

    /// Adopts a stable certificate (already verified or locally formed):
    /// advance the low-water mark and truncate. A certificate ahead of our
    /// own frontier is history we never saw; our next view-change vote
    /// asks for it (see [`Replica::serve_state`]).
    fn adopt_stable(&mut self, ctx: &mut Context<'_, PbftMsg>, cert: StableCert) {
        if cert.seq <= self.stable_seq() {
            return;
        }
        self.stable = Some(cert);
        self.apply_low_water();
        self.drain_deferred(ctx);
    }

    /// Proposes client requests that were deferred at the admission-window
    /// edge (see [`Replica::propose`]) now that a stable checkpoint moved
    /// the window. Leader-only, in (timestamp, id) order — the same
    /// deterministic tiebreak as re-proposal — so a saturated tier drains
    /// its backlog identically on every run instead of waiting out a view
    /// change per window.
    fn drain_deferred(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if !self.am_leader() {
            return;
        }
        let mut waiting: Vec<(u64, RequestId)> = self
            .requests
            .iter()
            .filter(|(id, _)| {
                !self.assigned.contains_key(*id)
                    && !self.reply_cache.get(&id.client).is_some_and(|c| c.executed(id.seq))
            })
            .map(|(id, held)| (held.timestamp, *id))
            .collect();
        waiting.sort_unstable();
        for (_, id) in waiting {
            if self.next_seq >= self.high_water() {
                break; // still saturated; the next checkpoint drains more
            }
            self.propose(ctx, id);
        }
    }

    /// Checks a stable certificate against the tier's replica keys:
    /// `2m + 1` distinct valid signers over the matching checkpoint vote.
    fn verify_stable_cert(&self, cert: &StableCert) -> bool {
        let mut seen = HashSet::new();
        let mut ok = 0;
        for &(r, sig) in &cert.sigs {
            if r >= self.cfg.n() || !seen.insert(r) {
                continue;
            }
            let probe =
                PbftMsg::Checkpoint { seq: cert.seq, digest: cert.digest, replica: r, sig };
            if verify(self.cfg.replica_keys[r], &signing_bytes(&probe), &sig) {
                ok += 1;
            }
        }
        ok >= self.cfg.commit_quorum()
    }

    /// Advances the low-water mark to the stable certificate (clamped to
    /// our own frontier) and truncates everything below it: log slots,
    /// request payloads, assignments, commit proofs, and checkpoint votes.
    /// The committed-output suffix is truncated lazily (see
    /// [`Replica::gc_executed`]) so the layer above can drain entries
    /// executed in the very call that formed the certificate.
    fn apply_low_water(&mut self) {
        let Some(cert) = &self.stable else { return };
        let h = cert.seq.min(self.next_exec);
        if h <= self.low_water {
            return;
        }
        self.low_water = h;
        self.log = self.log.split_off(&h);
        self.exec_proofs = self.exec_proofs.split_off(&h);
        self.ckpt_votes = self.ckpt_votes.split_off(&(h + 1));
        let stale: Vec<RequestId> = self
            .assigned
            .iter()
            .filter(|(_, &s)| s < h)
            .map(|(&id, _)| id)
            .collect();
        for id in &stale {
            self.requests.remove(id);
        }
        self.assigned.retain(|_, &mut s| s >= h);
        self.next_seq = self.next_seq.max(h);
    }

    /// Truncates committed-output entries below the low-water mark. Runs
    /// at the *top* of message/timer dispatch — never in the middle of the
    /// call that advanced the mark — so entries executed and finalized in
    /// one call survive until the enclosing node has drained them.
    fn gc_executed(&mut self) {
        if self.low_water == 0 {
            return;
        }
        let drop_n = self.executed.iter().take_while(|e| e.seq < self.low_water).count();
        if drop_n > 0 {
            self.executed.drain(..drop_n);
            self.executed_dropped += drop_n as u64;
        }
    }

    /// Water-mark admission check for agreement traffic: below the
    /// low-water mark the slot is final, and at or past the high-water mark
    /// we refuse to buffer it.
    fn admit_seq(&self, seq: u64) -> bool {
        self.low_water <= seq && seq < self.high_water()
    }

    /// Answers a verified view-change vote from a replica behind us. A
    /// replica votes only when something it holds has stopped executing,
    /// so its vote, with the signed `last_exec` it carries, is its request
    /// for state (Castro and Liskov key catch-up on protocol state the
    /// same way). The answer is the stable certificate (when the
    /// requester's frontier is below our low-water mark) plus executed
    /// entries from its frontier (or our mark) up to our frontier, each
    /// with its retained commit certificate.
    fn serve_state(&mut self, ctx: &mut Context<'_, PbftMsg>, have: u64, requester: usize) {
        if self.fault == FaultMode::Silent || have >= self.next_exec {
            return;
        }
        let from = have.max(self.low_water);
        let stable = if have < self.low_water { self.stable.clone() } else { None };
        let mut entries = Vec::new();
        for seq in from..self.next_exec {
            let Some(inst) = self.log.get(&seq) else { break };
            let (Some(digest), Some(id), true) = (inst.digest, inst.request, inst.executed)
            else {
                break;
            };
            let Some(held) = self.requests.get(&id) else { break };
            let (payload, timestamp) = (held.payload.clone(), held.timestamp);
            let Some((proof_view, proof)) = self.exec_proofs.get(&seq).cloned() else { break };
            entries.push(StateEntry { seq, digest, id, timestamp, payload, proof_view, proof });
        }
        if stable.is_none() && entries.is_empty() {
            return;
        }
        let my = self.index;
        let msg = self.signed(PbftMsg::State {
            stable,
            entries,
            replica: my,
            sig: Signature::default(),
        });
        self.st_served += msg.wire_size() as u64;
        self.st_answers += 1;
        ctx.send(self.cfg.members[requester], msg);
    }

    /// Installs a state-transfer response. The embedded certificate (if
    /// any) is checked against the tier keys; a certificate above our
    /// frontier lets us *jump* — adopt its frontier and digest wholesale,
    /// since the history below it is final tier-wide and no longer
    /// individually retrievable — whether or not we already held it.
    /// Entries then extend the frontier one slot at a time, each verified
    /// against its own commit certificate; the first invalid or
    /// non-contiguous entry stops the install.
    fn on_state(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        stable: Option<StableCert>,
        entries: Vec<StateEntry>,
    ) {
        let mut progressed = false;
        if let Some(cert) = stable {
            if cert.seq > self.stable_seq().min(self.next_exec) {
                if !self.verify_stable_cert(&cert) {
                    self.st_rejects += 1;
                    return;
                }
                if cert.seq > self.next_exec {
                    // Everything below the certificate is final tier-wide;
                    // adopt its frontier and rolling digest. Slots we never
                    // executed leave no output entries here — the layer
                    // above recovers object state through its own repair
                    // paths, while agreement is whole again right now.
                    self.next_exec = cert.seq;
                    self.next_seq = self.next_seq.max(cert.seq);
                    self.state_digest = cert.digest;
                    // A request we hold without a slot may have executed
                    // in the skipped history; kept, it would read as
                    // waiting forever. A client still waiting on it
                    // retransmits it.
                    let assigned = &self.assigned;
                    self.requests.retain(|id, _| assigned.contains_key(id));
                    progressed = true;
                }
                if cert.seq > self.stable_seq() {
                    self.stable = Some(cert);
                }
                self.apply_low_water();
                self.drain_deferred(ctx);
            }
        }
        for entry in entries {
            if entry.seq < self.next_exec {
                continue; // already have it
            }
            if entry.seq > self.next_exec {
                break; // gap: cannot chain the rolling digest across it
            }
            // Named here, from the shipped bytes: the entry's digest is
            // only what the proof certifies.
            let (name, note) = self.namer.name(&entry.payload);
            if !self.verify_state_entry(&entry, &name) {
                self.st_rejects += 1;
                break;
            }
            self.install_entry(ctx, entry, name, note);
            progressed = true;
        }
        if progressed {
            self.st_installs += 1;
            self.apply_low_water();
            // Buffered live commits just above the installed suffix may
            // extend the frontier immediately.
            self.try_execute(ctx);
            self.drain_deferred(ctx);
        }
    }

    /// Checks one state-transfer entry: the payload's `name`, request id,
    /// and timestamp hash to the committed slot digest — binding all three to
    /// the quorum below, so a Byzantine state server cannot ship a valid
    /// slot with a forged id or timestamp — and the commit certificate
    /// holds `2m + 1` distinct valid signers over that digest.
    fn verify_state_entry(&self, entry: &StateEntry, name: &Digest) -> bool {
        if slot_digest(name, entry.id, entry.timestamp) != entry.digest {
            return false;
        }
        let mut seen = HashSet::new();
        let mut ok = 0;
        for &(r, sig) in &entry.proof {
            if r >= self.cfg.n() || !seen.insert(r) {
                continue;
            }
            let probe = PbftMsg::Commit {
                view: entry.proof_view,
                seq: entry.seq,
                digest: entry.digest,
                replica: r,
                sig,
            };
            if verify(self.cfg.replica_keys[r], &signing_bytes(&probe), &sig) {
                ok += 1;
            }
        }
        ok >= self.cfg.commit_quorum()
    }

    /// Installs one verified entry at the execution frontier: the slot
    /// lands executed (with its proof retained, so we can serve it
    /// onward), the output gains an entry unless the request already
    /// executed, and the rolling digest advances. The verified payload,
    /// its `name` and its `note` replace whatever this replica held under
    /// the request id. No client reply — the client was answered by the
    /// replicas that executed live.
    fn install_entry(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        entry: StateEntry,
        name: Digest,
        note: N::Note,
    ) {
        let StateEntry { seq, digest, id, timestamp, payload, proof_view, proof } = entry;
        self.st_installed += payload.wire_len() as u64
            + (8 + crate::messages::DIGEST_SIZE + 16 + 8) as u64
            + (proof.len() * (8 + Signature::WIRE_SIZE)) as u64;
        let held = Held { payload: payload.clone(), timestamp, name, note: note.clone() };
        self.requests.insert(id, held);
        self.assigned.insert(id, seq);
        let inst = self.log.entry(seq).or_default();
        inst.digest = Some(digest);
        inst.digest_view = proof_view;
        inst.request = Some(id);
        inst.executed = true;
        inst.prepared_cert = true;
        inst.sent_commit = true;
        for &(r, _) in &proof {
            inst.commits.insert(r);
        }
        inst.commit_sigs = proof.clone();
        self.exec_proofs.insert(seq, (proof_view, proof));
        self.next_exec = seq + 1;
        self.next_seq = self.next_seq.max(self.next_exec);
        self.state_digest = chain_digest(&self.state_digest, seq, &digest, id, timestamp);
        if !self.reply_cache.get(&id.client).is_some_and(|c| c.executed(id.seq)) {
            self.reply_cache.entry(id.client).or_default().note(id.seq, seq, digest);
            self.executed.push(Committed { seq, digest, payload, request: id, timestamp, note });
        }
        self.maybe_checkpoint(ctx);
    }

    /// View-change alarm fired. The leader failed us only if something
    /// still waits on it *and* nothing executed since the alarm was set:
    /// a loaded ring always has requests in flight, so waiting alone is
    /// no evidence.
    pub fn on_view_alarm(&mut self, ctx: &mut Context<'_, PbftMsg>, guarded_view: u64) {
        if guarded_view != self.view {
            return; // stale alarm from an earlier view
        }
        let Some(armed_at) = self.alarm.take() else { return };
        if !self.waiting() {
            return;
        }
        // Re-arm at the current frontier, before voting: if the view
        // change itself stalls (votes lost on a lossy network), the next
        // expiry rebroadcasts it. Entering the new view disarms it.
        self.watch(ctx);
        if self.next_exec == armed_at {
            // Vote for `view + 1`, then re-send a higher vote this replica
            // cast on joining a higher view change. Peers already past
            // `view + 1` drop the first as stale, and the vote they miss
            // may be the higher one, lost on its way to that view's
            // leader. The re-send only repeats a vote, so the target
            // stays `view + 1`: a replica joins a higher view change on
            // one vote, and a faulty one may name a view it leads itself.
            let higher = self.highest_vote();
            self.send_view_change(ctx, self.view + 1);
            if higher > self.view + 1 {
                self.send_view_change(ctx, higher);
            }
        }
    }

    /// The highest view this replica has voted to change to (0 if none).
    fn highest_vote(&self) -> u64 {
        let mine = self.vc_votes.iter().filter(|(_, votes)| votes.contains_key(&self.index));
        mine.map(|(&view, _)| view).max().unwrap_or(0)
    }

    /// Broadcasts (and self-records) a view-change vote for `new_view`.
    fn send_view_change(&mut self, ctx: &mut Context<'_, PbftMsg>, new_view: u64) {
        self.view_changes_sent += 1;
        // Vouch for every slot we can certify: executed slots and prepared
        // certificates alike. Executed history rides along so a new leader
        // can re-run agreement for stragglers below our frontier; any slot
        // that may underpin a commit elsewhere appears in at least one
        // vote of any quorum (certificates are sticky across views), which
        // is what keeps re-proposal from contradicting a committed slot.
        // With checkpointing active the log is truncated at the low-water
        // mark, so the list is bounded by the window — slots below the
        // mark are represented by the stable certificate alone.
        let prepared: Vec<(u64, Digest, RequestId)> = self
            .log
            .iter()
            .filter(|(_, i)| {
                i.digest.is_some()
                    && (i.executed
                        || i.prepared_cert
                        || i.prepares.len() > self.cfg.prepare_quorum())
            })
            .map(|(&s, i)| (s, i.digest.expect("checked"), i.request.expect("checked")))
            .collect();
        let my = self.index;
        let last_exec = self.next_exec;
        let stable = self.stable.clone();
        let msg = self.signed(PbftMsg::ViewChange {
            new_view,
            last_exec,
            prepared: prepared.clone(),
            stable: stable.clone(),
            replica: my,
            sig: Signature::default(),
        });
        self.multicast(ctx, msg);
        // Vote for ourselves too.
        self.record_vc_vote(ctx, new_view, my, last_exec, prepared, stable);
    }

    fn record_vc_vote(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        new_view: u64,
        replica: usize,
        last_exec: u64,
        prepared: Vec<(u64, Digest, RequestId)>,
        stable: Option<StableCert>,
    ) {
        if new_view <= self.view {
            return;
        }
        // A vote may carry a stable certificate we have never seen (its
        // sender checkpointed past us). Adopting it bounds what the
        // re-proposal below must cover.
        if let Some(cert) = stable {
            if cert.seq > self.stable_seq()
                && (replica == self.index || self.verify_stable_cert(&cert))
            {
                self.adopt_stable(ctx, cert);
            }
        }
        self.vc_votes.entry(new_view).or_default().insert(replica, (last_exec, prepared));
        let votes = self.vc_votes[&new_view].len();
        if votes >= self.cfg.commit_quorum() && self.cfg.leader(new_view) == self.index {
            // We are the new leader: announce and re-propose.
            self.enter_view(new_view);
            let my = self.index;
            let msg = self.signed(PbftMsg::NewView {
                view: new_view,
                replica: my,
                sig: Signature::default(),
            });
            self.multicast(ctx, msg);
            self.repropose(ctx, new_view);
        }
    }

    fn enter_view(&mut self, view: u64) {
        self.view = view;
        self.alarm = None;
        // Executed slots and prepare certificates survive the view change
        // (a certificate may underpin a commit somewhere, so it must keep
        // circulating in votes until the slot executes). Anything weaker
        // is torn down for re-proposal.
        let prepare_quorum = self.cfg.prepare_quorum();
        self.log.retain(|_, i| {
            if i.prepares.len() > prepare_quorum {
                i.prepared_cert = true;
            }
            i.executed || i.prepared_cert
        });
        for i in self.log.values_mut() {
            // The commit round re-runs in the new view — when the leader
            // re-announces a slot, everyone (executed replicas included)
            // re-broadcasts its commit so stragglers can gather a fresh
            // quorum. Stale votes from the old view must not count toward
            // a surviving-but-unexecuted slot.
            i.sent_commit = false;
            if !i.executed {
                i.prepares.clear();
                i.commits.clear();
                i.commit_sigs.clear();
            }
        }
        let log = &self.log;
        self.assigned.retain(|id, s| log.get(s).is_some_and(|i| i.request == Some(*id)));
        // Restart proposals at the execution frontier; re-proposal walks
        // the surviving slots from there and leaves `next_seq` at the
        // lowest unfilled one (a stale, inflated `next_seq` would propose
        // above a gap that in-order execution can never cross — every view
        // change would then strand its own re-proposal and the tier would
        // churn views forever without committing).
        self.next_seq = self.next_exec;
    }

    fn repropose(&mut self, ctx: &mut Context<'_, PbftMsg>, view: u64) {
        let votes = self.vc_votes.get(&view).cloned().unwrap_or_default();
        // Re-run agreement from the lowest execution frontier in the vote
        // quorum (ours included), clamped at the stable mark: everything
        // below a stable certificate is final tier-wide and recoverable
        // through state transfer, so re-proposal never reaches below it.
        // Replicas that missed commits inside the window catch up by
        // re-committing, which is idempotent for everyone already past a
        // slot; stragglers below the mark catch up via state transfer.
        let base = votes
            .values()
            .map(|&(le, _)| le)
            .chain([self.next_exec])
            .min()
            .unwrap_or(0)
            .max(self.stable_seq());
        // Candidate per slot: the certificate reported by the most voters,
        // ties broken by digest for determinism. Conflicting reports for
        // one slot can only pit a live certificate against a stale one
        // that never committed (two certificates with distinct digests
        // cannot both commit — quorum intersection), so majority suffices
        // in the fault mix this model runs; our own retained slots
        // (executed or certified) override, local knowledge being at
        // least as strong as a vote's.
        let mut tally: BTreeMap<u64, HashMap<(Digest, RequestId), usize>> = BTreeMap::new();
        for (_, prepared) in votes.values() {
            for &(s, d, id) in prepared {
                if s >= base {
                    *tally.entry(s).or_default().entry((d, id)).or_default() += 1;
                }
            }
        }
        let mut slots: BTreeMap<u64, (Digest, RequestId)> = tally
            .into_iter()
            .map(|(s, counts)| {
                let ((d, id), _) = counts
                    .into_iter()
                    .max_by_key(|&((d, id), c)| (c, d, id))
                    .expect("tally entries are non-empty");
                (s, (d, id))
            })
            .collect();
        for (&s, i) in &self.log {
            if s >= base && (i.executed || i.prepared_cert) {
                if let (Some(d), Some(id)) = (i.digest, i.request) {
                    slots.insert(s, (d, id));
                }
            }
        }
        // Seed every candidate at its ORIGINAL slot — reassigning
        // certificates to fresh sequences lets two leaders commit
        // different requests at one slot (divergence) and one request at
        // two slots (duplicate execution). Holes below the top candidate
        // (no voter saw the old leader's proposal) are filled with
        // pending requests; a hole we cannot fill yet stays open and
        // `next_seq` points at it, so the next client (re)transmission
        // plugs it.
        let mut unassigned: Vec<(u64, RequestId)> = self
            .requests
            .iter()
            .filter(|(id, _)| {
                !self.assigned.contains_key(*id)
                    && !self.reply_cache.get(&id.client).is_some_and(|c| c.executed(id.seq))
            })
            .map(|(id, held)| (held.timestamp, *id))
            .collect();
        unassigned.sort_unstable();
        let mut unassigned = unassigned.into_iter().map(|(_, id)| id);
        if let Some(&top) = slots.keys().max() {
            for s in base..=top {
                match slots.get(&s).copied() {
                    Some((d, id)) => self.propose_at(ctx, s, d, id),
                    None => {
                        if let Some(id) = unassigned.next() {
                            let held = &self.requests[&id];
                            let d = slot_digest(&held.name, id, held.timestamp);
                            self.propose_at(ctx, s, d, id);
                        }
                    }
                }
            }
            self.next_seq = (base..=top)
                .find(|s| self.log.get(s).is_none_or(|i| i.digest.is_none()))
                .unwrap_or(top + 1);
        }
        // Remaining known-but-unassigned requests at fresh sequences,
        // ordered by client timestamp ("clients optimistically timestamp
        // their updates ... the primary tier uses these same timestamps to
        // guide its ordering decisions", §4.4.3).
        let rest: Vec<RequestId> =
            unassigned.filter(|id| !self.assigned.contains_key(id)).collect();
        for id in rest {
            self.propose(ctx, id);
        }
    }

    /// Main message dispatch (called by the enclosing protocol node).
    pub fn on_message(&mut self, ctx: &mut Context<'_, PbftMsg>, _from: NodeId, msg: PbftMsg) {
        // Output entries below the low-water mark were drained by the
        // enclosing node after the previous call; drop them now.
        self.gc_executed();
        match &msg {
            PbftMsg::Request { id, timestamp, payload, sig } => {
                let (name, note) = self.namer.name(payload);
                let request = Held { payload: payload.clone(), timestamp: *timestamp, name, note };
                self.on_request(ctx, *id, request, sig);
            }
            PbftMsg::PrePrepare { view, seq, digest, id, .. } => {
                let leader = self.cfg.leader(*view);
                if self.admit_seq(*seq) && self.verify_replica(leader, &msg) {
                    self.on_preprepare(ctx, *view, *seq, *digest, *id);
                }
            }
            PbftMsg::Prepare { view, seq, replica, .. } => {
                if *view == self.view
                    && *replica < self.cfg.n()
                    && self.admit_seq(*seq)
                {
                    self.on_prepare(ctx, &msg);
                }
            }
            PbftMsg::Commit { view, seq, replica, .. } => {
                if *view == self.view
                    && *replica < self.cfg.n()
                    && self.admit_seq(*seq)
                {
                    self.on_commit(ctx, &msg);
                }
            }
            PbftMsg::ViewChange { new_view, last_exec, prepared, stable, replica, .. } => {
                if self.verify_replica(*replica, &msg) {
                    self.serve_state(ctx, *last_exec, *replica);
                    let nv = *new_view;
                    self.record_vc_vote(
                        ctx,
                        nv,
                        *replica,
                        *last_exec,
                        prepared.clone(),
                        stable.clone(),
                    );
                    // Join a higher view change we haven't voted in yet:
                    // after a lossy burst, view numbers can diverge across
                    // the tier, and a laggard re-proposing `view + 1`
                    // forever would deadlock the tier without this.
                    let already_voted = self
                        .vc_votes
                        .get(&nv)
                        .is_some_and(|votes| votes.contains_key(&self.index));
                    if nv > self.view && !already_voted && self.waiting() {
                        self.send_view_change(ctx, nv);
                    }
                }
            }
            PbftMsg::NewView { view, replica, .. } => {
                if self.cfg.leader(*view) == *replica
                    && *view > self.view
                    && self.verify_replica(*replica, &msg)
                {
                    self.enter_view(*view);
                    // Re-arm the alarm if we still have unassigned requests.
                    if self.requests.keys().any(|id| !self.assigned.contains_key(id)) {
                        self.watch(ctx);
                    }
                }
            }
            PbftMsg::Checkpoint { seq, digest, replica, sig } => {
                if *replica < self.cfg.n()
                    && *replica != self.index
                    && *seq > self.stable_seq()
                    && self.verify_replica(*replica, &msg)
                {
                    self.record_ckpt_vote(ctx, *seq, *digest, *replica, *sig);
                }
            }
            PbftMsg::State { stable, entries, replica, .. } => {
                if *replica < self.cfg.n() && self.verify_replica(*replica, &msg) {
                    self.on_state(ctx, stable.clone(), entries.clone());
                }
            }
            PbftMsg::Reply { .. } => {} // replicas ignore replies
        }
    }

    /// Timer dispatch (called by the enclosing protocol node). A replica
    /// arms only view alarms.
    pub fn on_timer(&mut self, ctx: &mut Context<'_, PbftMsg>, timer: PbftTimer) {
        self.gc_executed();
        if let PbftTimer::View(view) = timer {
            self.on_view_alarm(ctx, view);
        }
    }
}
