//! Wire messages of the Byzantine agreement protocol (§4.4.3).
//!
//! The paper models update cost as `b = c1·n² + (u + c2)·n + c3` with "the
//! constant c1 ... quite small, on the order of 100 bytes" (§4.4.5). Our
//! message overhead reproduces that constant honestly: every protocol
//! message carries a header (view/sequence/ids), a SHA-1 digest, and a
//! signature charged at its production-equivalent size — together about
//! 100 bytes.

use std::fmt::Debug;

use oceanstore_crypto::schnorr::Signature;
use oceanstore_crypto::sha1::{sha1_concat, Digest};
use oceanstore_naming::bytes::Bytes;
use oceanstore_sim::{Message, NodeId};

/// Fixed per-message header charge: kind + view + seq + replica ids +
/// framing.
pub const HEADER_SIZE: usize = 48;

/// Digest bytes carried by agreement messages.
pub const DIGEST_SIZE: usize = 20;

/// An update payload travelling through agreement.
///
/// Real bytes ride in `bytes`; `padded_size` lets benchmarks simulate large
/// updates (the Figure 6 sweep goes to 10 MB) without allocating them —
/// wire accounting uses `max(bytes.len(), padded_size)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload {
    /// The actual update content (interpreted by the layer above): a view
    /// of one shared buffer, which every replica handed this payload reads
    /// and names in place.
    pub bytes: Bytes,
    /// Simulated size floor for byte accounting.
    pub padded_size: usize,
}

impl Payload {
    /// Payload carrying real bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Payload { bytes: Bytes::from(bytes), padded_size: 0 }
    }

    /// Payload of a simulated size (for cost experiments).
    pub fn simulated(size: usize) -> Self {
        Payload { bytes: Bytes::default(), padded_size: size }
    }

    /// Bytes charged on the wire.
    pub fn wire_len(&self) -> usize {
        self.bytes.len().max(self.padded_size)
    }

    /// Digest binding the payload (includes the simulated size so padded
    /// payloads of different sizes differ): one SHA-1 pass over its bytes.
    /// The name [`Opaque`] gives a payload.
    pub fn digest(&self) -> Digest {
        sha1_concat(&[&(self.padded_size as u64).to_be_bytes(), &self.bytes])
    }
}

/// How a tier names a payload: the digest a client signs its request over
/// and every replica derives again, from the bytes it was handed, before
/// it admits the request or installs a state-transfer entry. The name must
/// bind every byte of the payload and its `padded_size`. Agreement never
/// reads a name off the wire.
///
/// The layer above may name a payload by what it encodes, and so derive
/// more than the name on the way. That is the [`Namer::Note`]: a replica
/// keeps it with the request whose bytes it was derived from and hands it
/// back with the request's committed entry, so each payload is named once.
pub trait Namer: Debug {
    /// What naming derives besides the name.
    type Note: Clone + Debug;
    /// The name of `payload`, and its note.
    fn name(&self, payload: &Payload) -> (Digest, Self::Note);
}

/// The namer of a tier whose payloads are opaque bytes: [`Payload::digest`],
/// with nothing to note.
#[derive(Debug, Clone, Copy)]
pub struct Opaque;

impl Namer for Opaque {
    type Note = ();

    fn name(&self, payload: &Payload) -> (Digest, ()) {
        (payload.digest(), ())
    }
}

/// A client request identifier: (client node, client-local sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId {
    /// The requesting client's node id.
    pub client: NodeId,
    /// Client-local sequence number.
    pub seq: u64,
}

/// The digest agreement actually runs over: the payload's name (under the
/// tier's [`Namer`]) bound to the request identity and the client's
/// optimistic timestamp.
///
/// Pre-prepares, prepares, and commits all sign this value, so a `2m + 1`
/// commit quorum certifies *which request* (and which timestamp) a slot
/// executed — not just its payload bytes. Two places depend on that
/// binding: a state-transfer receiver verifies a shipped slot's id and
/// timestamp against the slot's commit certificate (a Byzantine state
/// server cannot forge them without breaking the quorum), and a Byzantine
/// leader cannot pair one payload with different request ids at different
/// replicas (the ids would hash to different digests and never cross-count
/// toward one quorum).
pub fn slot_digest(name: &Digest, id: RequestId, timestamp: u64) -> Digest {
    sha1_concat(&[
        name,
        &(id.client.0 as u64).to_be_bytes(),
        &id.seq.to_be_bytes(),
        &timestamp.to_be_bytes(),
    ])
}

/// A stable-checkpoint certificate: `2m + 1` matching signed
/// [`PbftMsg::Checkpoint`] votes at the same `(seq, digest)`. Everything
/// below `seq` is final tier-wide; a replica holding this certificate may
/// truncate its agreement state below `seq` and a rejoining replica may
/// adopt `seq` as its execution frontier without replaying history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StableCert {
    /// Execution frontier the certificate covers (slots `< seq` are final).
    pub seq: u64,
    /// Rolling state digest chained over all executed slots `< seq`.
    pub digest: Digest,
    /// `(replica index, signature)` pairs over the corresponding
    /// `Checkpoint` signing bytes; at least `2m + 1` distinct signers.
    pub sigs: Vec<(usize, Signature)>,
}

impl StableCert {
    /// Bytes charged on the wire when the certificate rides in a message.
    pub fn wire_len(&self) -> usize {
        8 + DIGEST_SIZE + self.sigs.len() * (8 + Signature::WIRE_SIZE)
    }
}

/// One executed slot shipped by state transfer, self-certifying via its
/// retained commit certificate: `proof` holds `2m + 1` commit signatures
/// from view `proof_view`, so the receiver can verify the slot without
/// replaying agreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateEntry {
    /// Agreement sequence of the slot.
    pub seq: u64,
    /// [`slot_digest`] the slot committed (binds payload, id, and
    /// timestamp to the commit quorum in `proof`).
    pub digest: Digest,
    /// Request executed at the slot.
    pub id: RequestId,
    /// Client timestamp of the request.
    pub timestamp: u64,
    /// The request payload (its name, with `id` and `timestamp`, must hash
    /// to `digest`).
    pub payload: Payload,
    /// View the commit certificate was formed in.
    pub proof_view: u64,
    /// `(replica index, signature)` commit signatures; `2m + 1` distinct
    /// signers over `Commit { proof_view, seq, digest, replica }`.
    pub proof: Vec<(usize, Signature)>,
}

impl StateEntry {
    /// Bytes charged on the wire for this entry.
    pub fn wire_len(&self) -> usize {
        8 + DIGEST_SIZE + 16 + 8 + self.payload.wire_len() + self.proof.len() * (8 + Signature::WIRE_SIZE)
    }
}

/// Messages of the PBFT-style agreement protocol.
#[derive(Debug, Clone)]
pub enum PbftMsg {
    /// Client → every replica: please order this update. The paper's
    /// Figure 5(a) shows updates flowing from the client directly to the
    /// whole primary tier.
    Request {
        /// Request identity (client + client seq).
        id: RequestId,
        /// The client's optimistic timestamp (guides ordering; §4.4.3).
        timestamp: u64,
        /// The update payload.
        payload: Payload,
        /// Client signature over the request's signing bytes, which carry
        /// the payload's name, not its bytes.
        sig: Signature,
    },
    /// Leader → replicas: proposal to order `digest` at `seq` in `view`.
    PrePrepare {
        /// Current view.
        view: u64,
        /// Proposed agreement sequence number.
        seq: u64,
        /// Digest of the request payload.
        digest: Digest,
        /// Request identity.
        id: RequestId,
        /// Leader signature.
        sig: Signature,
    },
    /// Replica → all: I saw the proposal.
    Prepare {
        /// Current view.
        view: u64,
        /// Agreement sequence.
        seq: u64,
        /// Digest being prepared.
        digest: Digest,
        /// Index of the sending replica within the tier.
        replica: usize,
        /// Replica signature.
        sig: Signature,
    },
    /// Replica → all: a prepared certificate exists.
    Commit {
        /// Current view.
        view: u64,
        /// Agreement sequence.
        seq: u64,
        /// Digest being committed.
        digest: Digest,
        /// Index of the sending replica.
        replica: usize,
        /// Replica signature.
        sig: Signature,
    },
    /// Replica → client: your request executed at `seq`.
    Reply {
        /// Request identity this answers.
        id: RequestId,
        /// Final agreement sequence.
        seq: u64,
        /// Digest of the executed payload.
        digest: Digest,
        /// Index of the replying replica.
        replica: usize,
        /// Replica signature.
        sig: Signature,
    },
    /// Replica → all: the current leader is broken, move to `new_view`.
    ViewChange {
        /// Proposed view.
        new_view: u64,
        /// The sender's execution frontier (`next_exec`). A peer ahead of
        /// it answers with a [`PbftMsg::State`].
        last_exec: u64,
        /// Digests the sender holds prepared certificates for:
        /// `(seq, digest, request id)`. Bounded to the checkpoint window —
        /// slots below the stable mark are represented by `stable` alone.
        prepared: Vec<(u64, Digest, RequestId)>,
        /// Latest stable-checkpoint certificate the sender holds, standing
        /// in for all executed history below its `seq`.
        stable: Option<StableCert>,
        /// Index of the sending replica.
        replica: usize,
        /// Replica signature.
        sig: Signature,
    },
    /// New leader → all: view `view` starts; re-proposals follow.
    NewView {
        /// The new view.
        view: u64,
        /// Index of the sending (new leader) replica.
        replica: usize,
        /// Leader signature.
        sig: Signature,
    },
    /// Replica → all: my rolling state digest at execution frontier `seq`
    /// (sent every K slots). `2m + 1` matching votes form a [`StableCert`].
    Checkpoint {
        /// Execution frontier the vote covers.
        seq: u64,
        /// Rolling state digest over all executed slots `< seq`.
        digest: Digest,
        /// Index of the sending replica.
        replica: usize,
        /// Replica signature.
        sig: Signature,
    },
    /// Peer → lagging replica: the answer to a view-change vote whose
    /// `last_exec` is below the sender's frontier. `stable` covers
    /// everything below its `seq`; `entries` carry the executed suffix with
    /// per-slot commit certificates.
    State {
        /// Latest stable certificate (present when the requester's frontier
        /// is below the sender's low-water mark).
        stable: Option<StableCert>,
        /// Executed slots from the requester's frontier (or the sender's
        /// low-water mark) up to the sender's frontier, in sequence order.
        entries: Vec<StateEntry>,
        /// Index of the sending replica.
        replica: usize,
        /// Replica signature.
        sig: Signature,
    },
}

/// A deadline of the agreement protocol, handed back when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PbftTimer {
    /// A replica's view-change alarm, carrying the view it guards.
    View(u64),
    /// A client's retransmission deadline for its request of this sequence.
    Retransmit(u64),
}

impl Message for PbftMsg {
    type Timer = PbftTimer;

    fn wire_size(&self) -> usize {
        let sig = Signature::WIRE_SIZE;
        match self {
            PbftMsg::Request { payload, .. } => HEADER_SIZE + sig + payload.wire_len(),
            PbftMsg::PrePrepare { .. }
            | PbftMsg::Prepare { .. }
            | PbftMsg::Commit { .. }
            | PbftMsg::Reply { .. } => HEADER_SIZE + DIGEST_SIZE + sig,
            PbftMsg::ViewChange { prepared, stable, .. } => {
                HEADER_SIZE
                    + sig
                    + prepared.len() * (8 + DIGEST_SIZE + 16)
                    + stable.as_ref().map_or(0, StableCert::wire_len)
            }
            PbftMsg::NewView { .. } => HEADER_SIZE + sig,
            PbftMsg::Checkpoint { .. } => HEADER_SIZE + DIGEST_SIZE + sig,
            PbftMsg::State { stable, entries, .. } => {
                HEADER_SIZE
                    + sig
                    + stable.as_ref().map_or(0, StableCert::wire_len)
                    + entries.iter().map(StateEntry::wire_len).sum::<usize>()
            }
        }
    }

    fn class(&self) -> &'static str {
        match self {
            PbftMsg::Request { .. } => "pbft/request",
            PbftMsg::PrePrepare { .. } => "pbft/preprepare",
            PbftMsg::Prepare { .. } => "pbft/prepare",
            PbftMsg::Commit { .. } => "pbft/commit",
            PbftMsg::Reply { .. } => "pbft/reply",
            PbftMsg::ViewChange { .. } => "pbft/viewchange",
            PbftMsg::NewView { .. } => "pbft/newview",
            PbftMsg::Checkpoint { .. } => "pbft/checkpoint",
            PbftMsg::State { .. } => "pbft/state",
        }
    }
}

/// Writes `sig` into the signature slot of any message variant. Messages
/// are constructed with `Signature::default()` (which never verifies) and
/// signed over their canonical bytes afterwards — [`signing_bytes`] skips
/// the signature slot, so the placeholder does not affect what is signed.
pub fn set_sig(msg: &mut PbftMsg, sig: Signature) {
    match msg {
        PbftMsg::Request { sig: s, .. }
        | PbftMsg::PrePrepare { sig: s, .. }
        | PbftMsg::Prepare { sig: s, .. }
        | PbftMsg::Commit { sig: s, .. }
        | PbftMsg::Reply { sig: s, .. }
        | PbftMsg::ViewChange { sig: s, .. }
        | PbftMsg::NewView { sig: s, .. }
        | PbftMsg::Checkpoint { sig: s, .. }
        | PbftMsg::State { sig: s, .. } => *s = sig,
    }
}

/// Appends a [`StableCert`]'s canonical bytes (certificates are embedded
/// in view-change votes and state responses, so the outer signature must
/// cover them).
fn extend_cert(out: &mut Vec<u8>, cert: &StableCert) {
    out.extend_from_slice(b"cert");
    out.extend_from_slice(&cert.seq.to_be_bytes());
    out.extend_from_slice(&cert.digest);
    for (r, s) in &cert.sigs {
        out.extend_from_slice(&(*r as u64).to_be_bytes());
        out.extend_from_slice(&s.to_bytes());
    }
}

/// What a client signs for request `id`: its timestamp and the payload's
/// `name` under the tier's [`Namer`]. A client names its payload
/// once, to sign; a replica names it once, from the bytes it received, to
/// check the signature.
pub fn request_signing_bytes(id: RequestId, timestamp: u64, name: &Digest) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(b"req");
    out.extend_from_slice(&(id.client.0 as u64).to_be_bytes());
    out.extend_from_slice(&id.seq.to_be_bytes());
    out.extend_from_slice(&timestamp.to_be_bytes());
    out.extend_from_slice(name);
    out
}

/// Canonical signing bytes for each message kind (what the signature
/// covers). A [`PbftMsg::Request`]'s are its [`request_signing_bytes`] with
/// the payload named by [`Opaque`]; a tier with another namer
/// signs and checks requests through [`request_signing_bytes`] itself.
pub fn signing_bytes(msg: &PbftMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match msg {
        PbftMsg::Request { id, timestamp, payload, .. } => {
            return request_signing_bytes(*id, *timestamp, &payload.digest());
        }
        PbftMsg::PrePrepare { view, seq, digest, id, .. } => {
            out.extend_from_slice(b"ppr");
            out.extend_from_slice(&view.to_be_bytes());
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(digest);
            out.extend_from_slice(&(id.client.0 as u64).to_be_bytes());
            out.extend_from_slice(&id.seq.to_be_bytes());
        }
        PbftMsg::Prepare { view, seq, digest, replica, .. } => {
            out.extend_from_slice(b"prp");
            out.extend_from_slice(&view.to_be_bytes());
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(digest);
            out.extend_from_slice(&(*replica as u64).to_be_bytes());
        }
        PbftMsg::Commit { view, seq, digest, replica, .. } => {
            out.extend_from_slice(b"cmt");
            out.extend_from_slice(&view.to_be_bytes());
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(digest);
            out.extend_from_slice(&(*replica as u64).to_be_bytes());
        }
        PbftMsg::Reply { id, seq, digest, replica, .. } => {
            out.extend_from_slice(b"rpl");
            out.extend_from_slice(&(id.client.0 as u64).to_be_bytes());
            out.extend_from_slice(&id.seq.to_be_bytes());
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(digest);
            out.extend_from_slice(&(*replica as u64).to_be_bytes());
        }
        PbftMsg::ViewChange { new_view, last_exec, prepared, stable, replica, .. } => {
            out.extend_from_slice(b"vch");
            out.extend_from_slice(&new_view.to_be_bytes());
            out.extend_from_slice(&last_exec.to_be_bytes());
            for (s, d, id) in prepared {
                out.extend_from_slice(&s.to_be_bytes());
                out.extend_from_slice(d);
                out.extend_from_slice(&(id.client.0 as u64).to_be_bytes());
                out.extend_from_slice(&id.seq.to_be_bytes());
            }
            // `None` appends nothing: votes without a certificate keep the
            // pre-checkpoint signing bytes (and signatures) bit-identical.
            if let Some(cert) = stable {
                extend_cert(&mut out, cert);
            }
            out.extend_from_slice(&(*replica as u64).to_be_bytes());
        }
        PbftMsg::NewView { view, replica, .. } => {
            out.extend_from_slice(b"nvw");
            out.extend_from_slice(&view.to_be_bytes());
            out.extend_from_slice(&(*replica as u64).to_be_bytes());
        }
        PbftMsg::Checkpoint { seq, digest, replica, .. } => {
            out.extend_from_slice(b"ckp");
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(digest);
            out.extend_from_slice(&(*replica as u64).to_be_bytes());
        }
        PbftMsg::State { stable, entries, replica, .. } => {
            out.extend_from_slice(b"sta");
            if let Some(cert) = stable {
                extend_cert(&mut out, cert);
            }
            // Entries are bound by (seq, digest, proof view); payload bytes
            // and proofs are self-verifying against the digest and the
            // replica keys, so the outer signature need not cover them.
            for e in entries {
                out.extend_from_slice(&e.seq.to_be_bytes());
                out.extend_from_slice(&e.digest);
                out.extend_from_slice(&e.proof_view.to_be_bytes());
            }
            out.extend_from_slice(&(*replica as u64).to_be_bytes());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes() {
        let real = Payload::from_bytes(vec![1, 2, 3]);
        assert_eq!(real.wire_len(), 3);
        let sim = Payload::simulated(4096);
        assert_eq!(sim.wire_len(), 4096);
    }

    #[test]
    fn payload_digests_distinguish_sizes() {
        assert_ne!(Payload::simulated(1).digest(), Payload::simulated(2).digest());
        assert_ne!(
            Payload::from_bytes(vec![1]).digest(),
            Payload::from_bytes(vec![2]).digest()
        );
    }

    #[test]
    fn small_message_overhead_is_about_100_bytes() {
        // The paper's c1 ≈ 100 bytes claim.
        let kp = oceanstore_crypto::schnorr::KeyPair::from_seed(b"r0");
        let msg = PbftMsg::Prepare {
            view: 0,
            seq: 1,
            digest: [0; 20],
            replica: 0,
            sig: kp.sign(b"x"),
        };
        let size = msg.wire_size();
        assert!((90..=130).contains(&size), "overhead {size} out of c1 range");
    }

    #[test]
    fn request_size_tracks_payload() {
        let kp = oceanstore_crypto::schnorr::KeyPair::from_seed(b"c");
        let mk = |size| PbftMsg::Request {
            id: RequestId { client: NodeId(9), seq: 1 },
            timestamp: 0,
            payload: Payload::simulated(size),
            sig: kp.sign(b"x"),
        };
        assert_eq!(mk(10_000).wire_size() - mk(0).wire_size(), 10_000);
    }

    #[test]
    fn viewchange_without_cert_keeps_legacy_layout() {
        // A vote carrying no certificate must cost and sign exactly what
        // the pre-checkpoint protocol did (golden traces depend on it).
        let kp = oceanstore_crypto::schnorr::KeyPair::from_seed(b"r");
        let sig = kp.sign(b"x");
        let prepared = vec![(3, [7u8; 20], RequestId { client: NodeId(9), seq: 1 })];
        let vote = PbftMsg::ViewChange {
            new_view: 2,
            last_exec: 3,
            prepared: prepared.clone(),
            stable: None,
            replica: 1,
            sig,
        };
        assert_eq!(
            vote.wire_size(),
            HEADER_SIZE + Signature::WIRE_SIZE + prepared.len() * (8 + DIGEST_SIZE + 16)
        );
        let cert = StableCert { seq: 64, digest: [1; 20], sigs: vec![(0, sig), (1, sig), (2, sig)] };
        let with = PbftMsg::ViewChange {
            new_view: 2,
            last_exec: 3,
            prepared,
            stable: Some(cert.clone()),
            replica: 1,
            sig,
        };
        assert_eq!(with.wire_size(), vote.wire_size() + cert.wire_len());
        assert_ne!(signing_bytes(&vote), signing_bytes(&with));
    }

    #[test]
    fn state_size_tracks_payload_and_proofs() {
        let kp = oceanstore_crypto::schnorr::KeyPair::from_seed(b"r");
        let sig = kp.sign(b"x");
        let entry = |size, proofs: usize| StateEntry {
            seq: 5,
            digest: [0; 20],
            id: RequestId { client: NodeId(9), seq: 1 },
            timestamp: 0,
            payload: Payload::simulated(size),
            proof_view: 0,
            proof: (0..proofs).map(|i| (i, sig)).collect(),
        };
        let mk = |size, proofs| PbftMsg::State {
            stable: None,
            entries: vec![entry(size, proofs)],
            replica: 0,
            sig,
        };
        assert_eq!(mk(10_000, 3).wire_size() - mk(0, 3).wire_size(), 10_000);
        assert_eq!(
            mk(0, 3).wire_size() - mk(0, 0).wire_size(),
            3 * (8 + Signature::WIRE_SIZE)
        );
    }

    #[test]
    fn signing_bytes_distinguish_kinds_and_fields() {
        let kp = oceanstore_crypto::schnorr::KeyPair::from_seed(b"r");
        let sig = kp.sign(b"x");
        let a = PbftMsg::Prepare { view: 0, seq: 1, digest: [0; 20], replica: 0, sig };
        let b = PbftMsg::Commit { view: 0, seq: 1, digest: [0; 20], replica: 0, sig };
        let c = PbftMsg::Prepare { view: 0, seq: 2, digest: [0; 20], replica: 0, sig };
        assert_ne!(signing_bytes(&a), signing_bytes(&b));
        assert_ne!(signing_bytes(&a), signing_bytes(&c));
    }
}
