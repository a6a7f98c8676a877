//! Stable-checkpoint, log-GC, and state-transfer coverage: long runs stay
//! memory-bounded, rejoining replicas catch up through the consensus-level
//! transfer path, and forged or minority evidence never truncates history
//! or installs bogus state.

use oceanstore_consensus::harness::{build_tier_custom, run_updates, run_updates_batched};
use oceanstore_consensus::messages::{
    set_sig, signing_bytes, slot_digest, Opaque, Payload, PbftMsg, RequestId, StableCert,
    StateEntry,
};
use oceanstore_consensus::node::PbftNode;
use oceanstore_consensus::replica::{CheckpointConfig, FaultMode, Replica};
use oceanstore_crypto::schnorr::{KeyPair, Signature};
use oceanstore_sim::{NodeId, SimDuration};
use proptest::prelude::*;

const WAN: SimDuration = SimDuration::from_millis(50);

fn ckpt(interval: u64, window: u64) -> CheckpointConfig {
    CheckpointConfig { interval, window }
}

/// No interval means no checkpoint ever forms: the log would grow with
/// the frontier and a rejoiner would have nothing to transfer from.
#[test]
#[should_panic(expected = "checkpoint interval 0")]
fn zero_checkpoint_interval_is_refused() {
    build_tier_custom(1, WAN, 1, &[], ckpt(0, 128));
}

/// An interval past the window never quiesces: the window fills before
/// the first checkpoint could move the low-water mark.
#[test]
#[should_panic(expected = "checkpoint interval 16")]
fn checkpoint_interval_past_the_window_is_refused() {
    build_tier_custom(1, WAN, 1, &[], ckpt(16, 8));
}

/// Reconstructs the deterministic keypair of tier replica `i` (the same
/// derivation the harness uses), so tests can craft real signatures.
fn replica_key(seed: u64, i: usize) -> KeyPair {
    KeyPair::from_seed(format!("tier-{seed}-replica-{i}").as_bytes())
}

/// The harness client's keypair, for crafting authentic client requests.
fn client_key(seed: u64) -> KeyPair {
    KeyPair::from_seed(format!("tier-{seed}-client").as_bytes())
}

fn signed_by(kp: &KeyPair, mut msg: PbftMsg) -> PbftMsg {
    let sig = kp.sign(&signing_bytes(&msg));
    set_sig(&mut msg, sig);
    msg
}

fn replica(ts: &oceanstore_consensus::TierSim, i: usize) -> &Replica {
    ts.sim.node(NodeId(i)).as_replica().expect("replica node")
}

#[test]
fn long_run_truncates_and_stays_bounded() {
    let interval = 8;
    let window = 32;
    let mut ts = build_tier_custom(1, WAN, 11, &[], ckpt(interval, window));
    let count = 60;
    run_updates_batched(&mut ts, 256, count, 4);
    for i in 0..4 {
        let r = replica(&ts, i);
        let h = r.health();
        assert_eq!(h.next_exec, count as u64, "replica {i} frontier");
        assert!(h.low_water > 0, "replica {i} never advanced its mark");
        assert!(h.checkpoint_seq > 0, "replica {i} holds no stable certificate");
        let bound = window + interval;
        assert!(h.log_len <= bound, "replica {i} log {} > {bound}", h.log_len);
        assert!(h.assigned_len <= bound, "replica {i} assigned {} > {bound}", h.assigned_len);
        assert!(h.requests_len <= bound, "replica {i} requests {} > {bound}", h.requests_len);
        assert_eq!(r.executed_seen(), count as u64, "replica {i} output count");
    }
    // Stable certificates at the same height attest the same digest, and
    // the retained output suffixes agree wherever they overlap.
    let certs: Vec<&StableCert> =
        (0..4).map(|i| replica(&ts, i).stable_checkpoint().expect("cert")).collect();
    for c in &certs {
        for d in &certs {
            if c.seq == d.seq {
                assert_eq!(c.digest, d.digest, "conflicting stable digests at {}", c.seq);
            }
        }
    }
    for abs in 0..count as u64 {
        let entries: Vec<_> =
            (0..4).filter_map(|i| replica(&ts, i).executed_entry(abs)).collect();
        for pair in entries.windows(2) {
            assert_eq!(pair[0].digest, pair[1].digest, "output divergence at {abs}");
        }
    }
}

#[test]
fn intact_rejoin_catches_up_via_state_transfer() {
    let mut ts = build_tier_custom(1, WAN, 12, &[], ckpt(8, 16));
    run_updates_batched(&mut ts, 128, 8, 4);
    ts.sim.crash_node(NodeId(3));
    run_updates_batched(&mut ts, 128, 40, 4);
    ts.sim.recover_node(NodeId(3));
    // Fresh traffic leaves the rejoiner holding requests it cannot order:
    // its view-change vote asks the tier for state, and the same traffic
    // carries the live tail.
    run_updates_batched(&mut ts, 128, 24, 4);
    run_updates_batched(&mut ts, 128, 8, 1);
    let frontier = replica(&ts, 0).next_exec();
    assert_eq!(frontier, 80);
    let r3 = replica(&ts, 3);
    assert!(r3.health().state_installs >= 1, "rejoin must use state transfer");
    assert!(r3.health().state_bytes_installed > 0);
    assert_eq!(r3.next_exec(), frontier, "rejoined replica not caught up");
    assert_eq!(r3.state_digest(), replica(&ts, 0).state_digest(), "state digest divergence");
    // And the transfer really was served by someone.
    let served: u64 = (0..3).map(|i| replica(&ts, i).health().state_bytes_served).sum();
    assert!(served > 0, "no peer served state");
}

#[test]
fn wiped_rejoin_jumps_via_certificate() {
    let seed = 13;
    let mut ts = build_tier_custom(1, WAN, seed, &[], ckpt(8, 16));
    run_updates_batched(&mut ts, 128, 4, 4);
    ts.sim.crash_node(NodeId(3));
    run_updates_batched(&mut ts, 128, 44, 4);
    // The replica lost everything: rebuild it from its key, state zero.
    let key = replica_key(seed, 3);
    let fresh = Replica::new(ts.cfg.clone(), 3, key, FaultMode::Honest, Opaque);
    ts.sim.recover_node_wiped(NodeId(3), PbftNode::Replica(fresh));
    run_updates_batched(&mut ts, 128, 24, 4);
    run_updates_batched(&mut ts, 128, 8, 1);
    let frontier = replica(&ts, 0).next_exec();
    let r3 = replica(&ts, 3);
    assert!(r3.health().state_installs >= 1, "wiped rejoin must use state transfer");
    assert!(r3.health().checkpoint_seq > 0, "wiped rejoin must adopt a certificate");
    assert_eq!(r3.next_exec(), frontier, "wiped replica not caught up");
    assert_eq!(r3.state_digest(), replica(&ts, 0).state_digest(), "state digest divergence");
    // The jump skipped history below the certificate: the output stream it
    // can replay is strictly shorter than the slot frontier.
    assert!(r3.executed_seen() < frontier, "a wiped replica cannot replay pre-jump output");
}

/// A replica that already holds a stable certificate above its frontier
/// jumps to it when a `State` carries that same certificate: holding it
/// is not having executed up to it, and the history below it is gone
/// from every peer's log.
#[test]
fn held_certificate_above_the_frontier_is_jumped_to() {
    let seed = 14;
    let mut ts = build_tier_custom(1, WAN, seed, &[], ckpt(8, 16));
    run_updates_batched(&mut ts, 128, 8, 4);
    ts.sim.crash_node(NodeId(3));
    run_updates_batched(&mut ts, 128, 32, 4);
    ts.sim.recover_node(NodeId(3));
    let cert = replica(&ts, 0).stable_checkpoint().cloned().expect("cert");
    assert_eq!((cert.seq, replica(&ts, 3).next_exec()), (40, 8));
    // A peer's view-change vote hands replica 3 the certificate, and
    // nothing else: its frontier stays where the crash left it.
    let vote = PbftMsg::ViewChange {
        new_view: 1,
        last_exec: 40,
        prepared: Vec::new(),
        stable: Some(cert.clone()),
        replica: 1,
        sig: Signature::default(),
    };
    ts.sim.inject(NodeId(1), NodeId(3), signed_by(&replica_key(seed, 1), vote));
    ts.sim.run_to_quiescence(100_000);
    let r3 = replica(&ts, 3);
    assert_eq!((r3.health().checkpoint_seq, r3.next_exec()), (40, 8));
    // A state answer carrying the same certificate moves the frontier.
    let state = PbftMsg::State {
        stable: Some(cert),
        entries: Vec::new(),
        replica: 0,
        sig: Signature::default(),
    };
    ts.sim.inject(NodeId(0), NodeId(3), signed_by(&replica_key(seed, 0), state));
    ts.sim.run_to_quiescence(100_000);
    let r3 = replica(&ts, 3);
    assert_eq!(r3.next_exec(), 40, "a held certificate above the frontier was not jumped to");
    assert_eq!(r3.state_digest(), replica(&ts, 0).stable_checkpoint().unwrap().digest);
    assert_eq!(r3.health().state_installs, 1);
}

/// A client retransmission of a request whose slot was truncated below
/// the low-water mark must not execute a second time: the per-client
/// reply cache survives checkpoint GC and answers it instead.
#[test]
fn gcd_request_retransmits_execute_once() {
    let seed = 21;
    let mut ts = build_tier_custom(1, WAN, seed, &[], ckpt(8, 16));
    let id = RequestId { client: NodeId(4), seq: 999 };
    let request = signed_by(
        &client_key(seed),
        PbftMsg::Request {
            id,
            timestamp: 7,
            payload: Payload::from_bytes(vec![0xab; 32]),
            sig: Signature::default(),
        },
    );
    for i in 0..4 {
        ts.sim.inject(NodeId(4), NodeId(i), request.clone());
    }
    ts.sim.run_to_quiescence(5_000_000);
    for i in 0..4 {
        assert_eq!(replica(&ts, i).executed_seen(), 1, "replica {i} missed the request");
    }
    // Run the tier well past a stable checkpoint so the slot — its log
    // entry, request payload and assignment — is truncated.
    run_updates_batched(&mut ts, 128, 40, 4);
    let frontier = replica(&ts, 0).next_exec();
    assert_eq!(frontier, 41);
    for i in 0..4 {
        let r = replica(&ts, i);
        assert!(r.low_water() > 1, "replica {i} never truncated the slot");
        assert_eq!(r.executed_seen(), 41);
    }
    // The retransmission: the same signed message, long after GC. All
    // replies of the original round may have been lost, so every replica
    // (the leader included) sees it as fresh traffic.
    for i in 0..4 {
        ts.sim.inject(NodeId(4), NodeId(i), request.clone());
    }
    ts.sim.run_to_quiescence(5_000_000);
    for i in 0..4 {
        let r = replica(&ts, i);
        assert_eq!(r.executed_seen(), 41, "replica {i} re-executed a GC'd request");
        assert_eq!(r.next_exec(), frontier, "replica {i} grew new slots");
        assert!(r.health().reply_cache_len >= 1, "replica {i} lost its reply cache");
    }
}

/// A burst deeper than the admission window commits in full without a
/// single view change: requests deferred at the window edge are proposed
/// again as soon as a stable checkpoint moves the window (the leader's
/// deferred-drain path), not after a view-change alarm per window.
#[test]
fn saturated_window_drains_without_view_change() {
    let mut ts = build_tier_custom(1, WAN, 31, &[], ckpt(8, 64));
    // 100 requests in one round against a 64-slot window: 36 are deferred
    // at submission time and can only commit through drains.
    run_updates_batched(&mut ts, 64, 100, 100);
    for i in 0..4 {
        let r = replica(&ts, i);
        assert_eq!(r.next_exec(), 100, "replica {i} frontier");
        assert!(r.low_water() > 0, "replica {i} never checkpointed");
        assert_eq!(r.view(), 0, "replica {i} needed a view change to drain");
        assert_eq!(r.view_changes_sent(), 0, "replica {i} voted for a view change");
    }
}

/// A retransmission of the *oldest* client sequence still inside the
/// 128-entry reply tail is answered from the cache: replies go out, no
/// slot is proposed, and nothing executes a second time.
#[test]
fn retransmit_at_reply_tail_answered_from_cache() {
    let seed = 41;
    let mut ts = build_tier_custom(1, WAN, seed, &[], ckpt(8, 16));
    // 140 contiguous executions: the floor is 140, the re-reply tail
    // holds exactly [12, 140).
    run_updates_batched(&mut ts, 128, 140, 4);
    let frontier = replica(&ts, 0).next_exec();
    assert_eq!(frontier, 140);
    let replies_before = ts.sim.stats().class("pbft/reply").messages;
    let proposals_before = ts.sim.stats().class("pbft/preprepare").messages;
    // Client sequence 12 = 140 - 128: exactly at the tail boundary, the
    // oldest entry the cache can still answer.
    let request = signed_by(
        &client_key(seed),
        PbftMsg::Request {
            id: RequestId { client: NodeId(4), seq: 12 },
            timestamp: 7,
            payload: Payload::from_bytes(vec![0xcd; 16]),
            sig: Signature::default(),
        },
    );
    for i in 0..4 {
        ts.sim.inject(NodeId(4), NodeId(i), request.clone());
    }
    ts.sim.run_to_quiescence(5_000_000);
    let replies = ts.sim.stats().class("pbft/reply").messages - replies_before;
    let proposals = ts.sim.stats().class("pbft/preprepare").messages - proposals_before;
    assert_eq!(replies, 4, "every replica must re-reply from its cache");
    assert_eq!(proposals, 0, "a cached retransmit must not be re-proposed");
    for i in 0..4 {
        let r = replica(&ts, i);
        assert_eq!(r.executed_seen(), 140, "replica {i} re-executed a cached request");
        assert_eq!(r.next_exec(), frontier, "replica {i} grew new slots");
    }
}

/// A retransmission one sequence *past* the tail (evicted from the
/// re-reply cache but still below the contiguous floor) is known-executed
/// and therefore silently dropped: no reply can be reconstructed, no slot
/// is proposed, and nothing executes a second time.
#[test]
fn retransmit_past_reply_tail_executes_at_most_once() {
    let seed = 41;
    let mut ts = build_tier_custom(1, WAN, seed, &[], ckpt(8, 16));
    run_updates_batched(&mut ts, 128, 140, 4);
    let frontier = replica(&ts, 0).next_exec();
    assert_eq!(frontier, 140);
    let replies_before = ts.sim.stats().class("pbft/reply").messages;
    let proposals_before = ts.sim.stats().class("pbft/preprepare").messages;
    // Client sequence 11 = 140 - 129: one below the tail boundary — the
    // floor still proves it executed, but its reply was evicted.
    let request = signed_by(
        &client_key(seed),
        PbftMsg::Request {
            id: RequestId { client: NodeId(4), seq: 11 },
            timestamp: 7,
            payload: Payload::from_bytes(vec![0xcd; 16]),
            sig: Signature::default(),
        },
    );
    for i in 0..4 {
        ts.sim.inject(NodeId(4), NodeId(i), request.clone());
    }
    ts.sim.run_to_quiescence(5_000_000);
    let replies = ts.sim.stats().class("pbft/reply").messages - replies_before;
    let proposals = ts.sim.stats().class("pbft/preprepare").messages - proposals_before;
    assert_eq!(replies, 0, "an evicted entry cannot be re-replied");
    assert_eq!(proposals, 0, "an executed request must never be re-proposed");
    for i in 0..4 {
        let r = replica(&ts, i);
        assert_eq!(r.executed_seen(), 140, "replica {i} re-executed past the tail");
        assert_eq!(r.next_exec(), frontier, "replica {i} grew new slots");
    }
}

/// Checkpoint votes at non-interval-aligned or above-window sequences
/// never allocate vote state: one faulty replica with a valid key cannot
/// grow `ckpt_votes` without bound.
#[test]
fn checkpoint_vote_spam_stays_bounded() {
    let seed = 22;
    let mut ts = build_tier_custom(1, WAN, seed, &[], ckpt(8, 64));
    run_updates(&mut ts, 128, 2);
    assert_eq!(replica(&ts, 0).checkpoint_vote_seqs(), 0);
    let kp = replica_key(seed, 3);
    // Unaligned sequences, aligned-but-above-window sequences, and a few
    // absurd ones — all signed with replica 3's genuine key.
    let bogus: [u64; 10] = [1, 2, 3, 7, 9, 63, 72, 800, 1 << 40, (1 << 40) + 8];
    for seq in bogus {
        let vote = signed_by(
            &kp,
            PbftMsg::Checkpoint { seq, digest: [5; 20], replica: 3, sig: Signature::default() },
        );
        ts.sim.inject(NodeId(3), NodeId(0), vote);
    }
    ts.sim.run_to_quiescence(100_000);
    let r0 = replica(&ts, 0);
    assert_eq!(r0.checkpoint_vote_seqs(), 0, "bogus vote sequences allocated state");
    assert_eq!(r0.low_water(), 0);
    assert!(r0.stable_checkpoint().is_none());
    // Control: an interval-aligned in-window vote is recorded.
    let vote = signed_by(
        &kp,
        PbftMsg::Checkpoint { seq: 8, digest: [5; 20], replica: 3, sig: Signature::default() },
    );
    ts.sim.inject(NodeId(3), NodeId(0), vote);
    ts.sim.run_to_quiescence(100_000);
    assert_eq!(replica(&ts, 0).checkpoint_vote_seqs(), 1, "genuine vote refused");
}

/// A view-change vote is a request for state only if its signature
/// verifies: a vote with a low `last_exec` under a decoy key draws no
/// `State`, while the same vote under the genuine key draws one (the
/// control).
#[test]
fn forged_view_change_draws_no_state() {
    let seed = 23;
    for forged in [true, false] {
        let mut ts = build_tier_custom(1, WAN, seed, &[], ckpt(8, 16));
        run_updates(&mut ts, 128, 2);
        assert_eq!(replica(&ts, 0).next_exec(), 2);
        let kp = if forged { KeyPair::from_seed(b"not-a-tier-key") } else { replica_key(seed, 3) };
        let vote = signed_by(
            &kp,
            PbftMsg::ViewChange {
                new_view: 1,
                last_exec: 0,
                prepared: Vec::new(),
                stable: None,
                replica: 3,
                sig: Signature::default(),
            },
        );
        ts.sim.inject(NodeId(3), NodeId(0), vote);
        ts.sim.run_to_quiescence(100_000);
        let h = replica(&ts, 0).health();
        if forged {
            assert_eq!(h.state_bytes_served, 0, "a forged vote drew state");
            assert_eq!(h.state_fetches, 0);
        } else {
            assert!(h.state_bytes_served > 0, "a genuine vote must draw state");
            assert_eq!(h.state_fetches, 1);
        }
    }
}

/// A forgery in replica i's name never shadows i's genuine vote: the
/// forged prepare and commit are dropped on receipt, the genuine ones that
/// follow for the same slot are counted, and the slot executes. Replicas
/// 1..3 are silent, so the view-0 leader sees exactly the votes fed here.
#[test]
fn forged_vote_does_not_shadow_the_genuine_one() {
    let seed = 24;
    let silent = [1, 2, 3].map(|i| (i, FaultMode::Silent));
    let mut ts = build_tier_custom(1, WAN, seed, &silent, ckpt(8, 16));
    let id = RequestId { client: NodeId(4), seq: 1 };
    let payload = Payload::from_bytes(vec![0xcd; 32]);
    let digest = slot_digest(&payload.digest(), id, 7);
    let request = signed_by(
        &client_key(seed),
        PbftMsg::Request { id, timestamp: 7, payload, sig: Signature::default() },
    );
    ts.sim.inject(NodeId(4), NodeId(0), request);
    ts.sim.run_for(WAN);
    let decoy = KeyPair::from_seed(b"not-a-tier-key");
    for commit in [false, true] {
        for forged in [true, false] {
            for i in [1usize, 2] {
                let sig = Signature::default();
                let vote = if commit {
                    PbftMsg::Commit { view: 0, seq: 0, digest, replica: i, sig }
                } else {
                    PbftMsg::Prepare { view: 0, seq: 0, digest, replica: i, sig }
                };
                let kp = if forged { decoy.clone() } else { replica_key(seed, i) };
                ts.sim.inject(NodeId(i), NodeId(0), signed_by(&kp, vote));
            }
            ts.sim.run_for(WAN);
            let (_, prepares, commits) = replica(&ts, 0).counted_vote_senders().remove(0);
            let counted = if commit { commits } else { prepares };
            let want: &[usize] = if forged { &[0] } else { &[0, 1, 2] };
            assert_eq!(counted, want, "commit phase: {commit}, forged: {forged}");
        }
    }
    assert_eq!(replica(&ts, 0).executed_seen(), 1, "the slot must execute");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Forged checkpoint votes (signed with the wrong key) and minority
    /// vote sets (< 2m + 1) never advance the low-water mark, never form a
    /// stable certificate, and never truncate history.
    #[test]
    fn bogus_checkpoint_votes_never_truncate(
        seed in any::<u64>(),
        digest in any::<[u8; 20]>(),
        forged in any::<bool>(),
    ) {
        let mut ts = build_tier_custom(1, WAN, seed, &[], ckpt(8, 64));
        run_updates(&mut ts, 128, 4);
        let before = replica(&ts, 0).executed().len();
        let decoy = KeyPair::from_seed(b"not-a-tier-key");
        // Forged: a full quorum of votes, every signature wrong.
        // Minority: two genuine signers — one short of the 2m + 1 quorum.
        let voters: &[usize] = if forged { &[1, 2, 3] } else { &[1, 2] };
        for &v in voters {
            let kp = if forged { decoy.clone() } else { replica_key(seed, v) };
            let vote = signed_by(&kp, PbftMsg::Checkpoint {
                seq: 4,
                digest,
                replica: v,
                sig: Signature::default(),
            });
            ts.sim.inject(NodeId(v), NodeId(0), vote);
        }
        ts.sim.run_to_quiescence(100_000);
        let r0 = replica(&ts, 0);
        prop_assert_eq!(r0.low_water(), 0, "bogus votes advanced the mark");
        prop_assert!(r0.stable_checkpoint().is_none(), "bogus votes formed a certificate");
        prop_assert_eq!(r0.executed().len(), before, "bogus votes truncated history");
    }

    /// State transfer rejects a suffix whose digests mismatch the payload,
    /// whose request id or timestamp differ from what the commit quorum
    /// signed (a Byzantine state server shipping forged metadata on a
    /// genuinely committed slot), whose commit proofs are signed by the
    /// wrong keys, or whose embedded certificate lacks a quorum — while a
    /// genuine suffix installs.
    #[test]
    fn state_transfer_rejects_mismatched_suffix(
        seed in any::<u64>(),
        payload_bytes in proptest::collection::vec(any::<u8>(), 1..64),
        case in 0usize..6,
    ) {
        let mut ts = build_tier_custom(1, WAN, seed, &[], ckpt(8, 64));
        run_updates(&mut ts, 128, 3);
        let frontier = replica(&ts, 0).next_exec();
        prop_assert_eq!(frontier, 3);
        let payload = Payload::from_bytes(payload_bytes);
        // The digest (and the proof below) commit to this id/timestamp;
        // cases 4 and 5 then ship *different* metadata in the entry.
        let signed_id = RequestId { client: NodeId(4), seq: 999 };
        let signed_ts = 7;
        let mut digest = slot_digest(&payload.digest(), signed_id, signed_ts);
        if case == 0 {
            digest[0] ^= 0xff; // payload no longer hashes to the digest
        }
        let id = if case == 4 {
            RequestId { client: NodeId(4), seq: 1000 } // forged request id
        } else {
            signed_id
        };
        let timestamp = if case == 5 { signed_ts + 1 } else { signed_ts };
        let proof_keys: Vec<KeyPair> = if case == 1 {
            // Proof signed by keys that are not the tier's.
            (0..4).map(|i| KeyPair::from_seed(format!("imposter-{i}").as_bytes())).collect()
        } else {
            (0..4).map(|i| replica_key(seed, i)).collect()
        };
        let proof: Vec<(usize, Signature)> = proof_keys
            .iter()
            .enumerate()
            .map(|(i, kp)| {
                let probe = PbftMsg::Commit {
                    view: 0,
                    seq: frontier,
                    digest,
                    replica: i,
                    sig: Signature::default(),
                };
                (i, kp.sign(&signing_bytes(&probe)))
            })
            .collect();
        let entry = StateEntry {
            seq: frontier,
            digest,
            id,
            timestamp,
            payload,
            proof_view: 0,
            proof,
        };
        // Case 2: a minority certificate claiming a far frontier.
        let stable = (case == 2).then(|| StableCert {
            seq: 100,
            digest: [9; 20],
            sigs: (0..2)
                .map(|i| {
                    let probe = PbftMsg::Checkpoint {
                        seq: 100,
                        digest: [9; 20],
                        replica: i,
                        sig: Signature::default(),
                    };
                    (i, replica_key(seed, i).sign(&signing_bytes(&probe)))
                })
                .collect(),
        });
        let entries = if case == 2 { Vec::new() } else { vec![entry] };
        let sender = replica_key(seed, 1);
        let msg = signed_by(&sender, PbftMsg::State {
            stable,
            entries,
            replica: 1,
            sig: Signature::default(),
        });
        ts.sim.inject(NodeId(1), NodeId(0), msg);
        ts.sim.run_to_quiescence(100_000);
        let r0 = replica(&ts, 0);
        if case == 3 {
            // Control: a fully genuine entry must install — the rejection
            // cases are not vacuous.
            prop_assert_eq!(r0.next_exec(), frontier + 1, "genuine suffix refused");
            prop_assert!(r0.health().state_installs >= 1);
            prop_assert_eq!(r0.health().state_rejects, 0);
        } else {
            prop_assert_eq!(r0.next_exec(), frontier, "bogus suffix installed");
            prop_assert_eq!(r0.low_water(), 0);
            prop_assert!(r0.health().state_rejects >= 1, "rejection not recorded");
        }
    }
}
