//! Wire messages of the two-tier replication layer (§4.4.3, §4.4.4).

use oceanstore_consensus::messages::{PbftMsg, PbftTimer};
use oceanstore_crypto::schnorr::{PublicKey, Signature};
use oceanstore_crypto::sha1::Digest;
use oceanstore_crypto::threshold::SerializationCert;
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;
use oceanstore_sim::{Message, NodeId};
use oceanstore_update::{decode_view, update_digest, Update, UpdateDigest};

use crate::primary::PrimaryTimer;
use crate::secondary::SecondaryTimer;
use crate::shard::mix;

/// Identity of a tentative update: (origin client, client-local counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TentativeId {
    /// Client that generated the update.
    pub client: NodeId,
    /// Client-local counter.
    pub counter: u64,
}

/// A commit record as certified by the primary tier and streamed down the
/// dissemination tree.
#[derive(Debug, Clone)]
pub struct CommitRecord {
    /// The object this commit belongs to.
    pub object: Guid,
    /// Per-object serialization index (dense, starting at 0; counts aborts
    /// too — "the update itself is logged regardless").
    pub index: u64,
    /// The encoded update: a view of the agreement payload it was
    /// serialized from.
    pub update: Bytes,
    /// Resulting version if the update committed; `None` if it aborted.
    pub version: Option<u64>,
    /// Client timestamp (tentative-order hint).
    pub timestamp: u64,
    /// Tentative identity, for reconciling the optimistic path.
    pub id: TentativeId,
    /// k-of-n certificate from the primary tier over this record.
    pub cert: SerializationCert,
}

/// Length of [`CommitRecord::signing_bytes`].
pub const SIGNING_LEN: usize = 94;

impl CommitRecord {
    /// The bytes the tier signs for this record: its place in the
    /// object's log, its update by [`update_digest`], the outcome, and
    /// the timestamp and tentative identity the optimistic path
    /// reconciles by — a relay can rewrite none of them.
    pub fn signing_bytes(&self, update_digest: &Digest) -> [u8; SIGNING_LEN] {
        let (outcome, version) = match self.version {
            Some(v) => (1, v),
            None => (0, 0),
        };
        let parts: [&[u8]; 9] = [
            b"commit-record",
            self.object.as_bytes(),
            &self.index.to_be_bytes(),
            update_digest,
            &[outcome],
            &version.to_be_bytes(),
            &self.timestamp.to_be_bytes(),
            &(self.id.client.0 as u64).to_be_bytes(),
            &self.id.counter.to_be_bytes(),
        ];
        let mut out = [0; SIGNING_LEN];
        let mut at = 0;
        for part in parts {
            out[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        debug_assert_eq!(at, SIGNING_LEN);
        out
    }

    /// Decodes this record's update, names it ([`update_digest`]) and
    /// checks the certificate against that name: the update and its name
    /// if at least `threshold` of `keys` signed this very record, `None`
    /// otherwise. A node derives the digest of every record it is handed
    /// here, itself; none is taken from the wire. No honest tier
    /// certifies bytes that do not decode. The update's ciphertexts are
    /// views of the record's buffer.
    ///
    /// Each block's CID comes from that buffer's memo
    /// ([`oceanstore_naming::bytes`]) when another node of this process
    /// already named a view at the same place in it — the client, a
    /// primary or a secondary handed a clone of the same record — and is
    /// hashed here otherwise. A hit is the same check as hashing again:
    /// the memo holds only digests this process computed from these very
    /// bytes, which never change, and bytes that came any other way (a
    /// forged record, a fetched one) are another buffer, hashed for real.
    /// The decode, the digest over the encoding and the CIDs, and the
    /// certificate check run on every call.
    pub fn verified(
        &self,
        keys: &[PublicKey],
        threshold: usize,
    ) -> Option<(Update<Bytes>, UpdateDigest)> {
        if self.cert.len() < threshold {
            return None; // too few signatures to be worth decoding
        }
        let update = decode_view(&self.update).ok()?;
        let name = update_digest(&update);
        let msg = self.signing_bytes(&name.digest);
        self.cert.verify_threshold(&msg, keys, threshold).then_some((update, name))
    }

    /// Wire size of the record inside messages.
    pub fn wire_size(&self) -> usize {
        Guid::WIRE_SIZE + 8 + self.update.len() + 9 + 8 + 16 + self.cert.wire_size()
    }
}

/// One object's line in an anti-entropy summary.
#[derive(Debug, Clone)]
pub struct SummaryEntry {
    /// Object being summarized.
    pub object: Guid,
    /// Sender's next expected commit index.
    pub committed_index: u64,
    /// Tentative updates the sender holds.
    pub tentative_ids: Vec<TentativeId>,
}

impl SummaryEntry {
    /// Wire size of the entry inside a summary.
    pub fn wire_size(&self) -> usize {
        Guid::WIRE_SIZE + 16 + self.tentative_ids.len() * 16
    }
}

/// An object's term in [`frontier_digest`]; an object with no commit
/// contributes nothing. A GUID is SHA-1 output, so its low word stands
/// for it, and `mix` is a bijection: moving the index moves the term.
pub(crate) fn committed_term(object: &Guid, next_index: u64) -> u64 {
    if next_index == 0 {
        return 0;
    }
    mix(object.low_u64() ^ next_index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A held tentative update's term in [`frontier_digest`].
fn tentative_term(object: &Guid, id: &TentativeId) -> u64 {
    let origin = mix(object.low_u64() ^ (id.client.0 as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
    mix(origin ^ !id.counter)
}

/// The anti-entropy digest of one node's holdings: a wrapping sum of one
/// mixed 64-bit term per `(object, next_index)` with `next_index > 0` and
/// one per held `(object, tentative id)`, so it does not depend on
/// iteration order and needs neither a sort nor an allocation — and a
/// store can keep its committed half up to date as indices advance
/// ([`crate::ObjectStore::committed_digest`]). It is not cryptographic
/// and does not need to be: it decides only whether two nodes exchange
/// summaries, never what either accepts.
pub fn frontier_digest<'a>(
    committed: impl Iterator<Item = (&'a Guid, u64)>,
    tentative: impl Iterator<Item = (&'a Guid, &'a TentativeId)>,
) -> u64 {
    let committed = committed.map(|(g, next_index)| committed_term(g, next_index));
    let tentative = tentative.map(|(g, id)| tentative_term(g, id));
    committed.chain(tentative).fold(0, u64::wrapping_add)
}

/// Messages of the replication layer.
#[derive(Debug, Clone)]
pub enum ReplicaMsg {
    /// An embedded Byzantine-agreement message (primary tier traffic).
    Pbft(PbftMsg),
    /// An optimistic update spreading epidemically among secondaries
    /// (Figure 5b).
    Tentative {
        /// Target object.
        object: Guid,
        /// Encoded update: a view of the client's agreement payload.
        update: Bytes,
        /// Client's optimistic timestamp.
        timestamp: u64,
        /// Identity for dedup/reconciliation.
        id: TentativeId,
    },
    /// A primary replica's signature share over a commit record, sent to
    /// the disseminating replica.
    ResultShare {
        /// Record being vouched for (without a cert yet).
        object: Guid,
        /// Per-object serialization index.
        index: u64,
        /// The update's digest ([`update_digest`]) as the signer derived it.
        update_digest: [u8; 20],
        /// Resulting version (None = abort).
        version: Option<u64>,
        /// Tier index of the signer.
        replica: usize,
        /// Signature over the record's signing bytes.
        sig: Signature,
    },
    /// A signature share re-routed to a fallback disseminator after the
    /// original failed to certify the record within the deadline. The
    /// fallback for attempt `a` is tier member `(base + a) % n`, so any
    /// `f + 1` consecutive attempts reach at least one live member.
    ShareRebroadcast {
        /// Record being vouched for (without a cert yet).
        object: Guid,
        /// Per-object serialization index.
        index: u64,
        /// The update's digest ([`update_digest`]) as the signer derived it.
        update_digest: [u8; 20],
        /// Resulting version (None = abort).
        version: Option<u64>,
        /// Tier index of the signer.
        replica: usize,
        /// Signature over the record's signing bytes.
        sig: Signature,
        /// Failover attempt number (1 = first fallback).
        attempt: u64,
    },
    /// Tier-internal: the serialization certificate for `(object, index)`
    /// exists. Signers stop their retry timers, and every member stores
    /// the cert so *any* live primary can serve the record on the pull
    /// path (not just the disseminator that assembled it).
    CertFormed {
        /// The certified object.
        object: Guid,
        /// Per-object serialization index.
        index: u64,
        /// The assembled `m + 1`-of-`n` certificate.
        cert: SerializationCert,
    },
    /// A certified commit pushed down the dissemination tree (Figure 5c).
    Commit(CommitRecord),
    /// Delivery acknowledgment for a tier→tree `Commit` push. A secondary
    /// that holds `(object, index)` certified and received it (or a
    /// duplicate) from a *primary* of the object's ring acks that whole
    /// ring, so the disseminator's re-push schedule and every observer's
    /// watchdog stand down together. Acks from deeper tree edges are never
    /// generated (secondary parents repair through anti-entropy instead).
    CommitAck {
        /// The acknowledged object.
        object: Guid,
        /// Per-object serialization index now held certified.
        index: u64,
    },
    /// Leaf-edge transformation: "dissemination trees transform updates
    /// into invalidations ... at the leaves of the network where bandwidth
    /// is limited" (§4.4.3).
    Invalidate {
        /// The stale object.
        object: Guid,
        /// Serialization index the child is now behind.
        index: u64,
        /// Latest version number.
        version: Option<u64>,
    },
    /// Pull path: give me commit records from `from_index` on.
    FetchCommits {
        /// Object to catch up.
        object: Guid,
        /// First missing index.
        from_index: u64,
    },
    /// Response to [`ReplicaMsg::FetchCommits`].
    Commits {
        /// The records, in index order.
        records: Vec<CommitRecord>,
    },
    /// Periodic anti-entropy probe: the sender's [`frontier_digest`] over
    /// everything it holds. A receiver whose own digest is equal stays
    /// silent; any other answers with an [`ReplicaMsg::AntiEntropySummary`].
    AntiEntropyDigest {
        /// The sender's frontier digest.
        digest: u64,
    },
    /// What the sender holds, object by object — the answer to a digest
    /// that differed. The receiver pushes what the sender lacks and
    /// fetches what it lacks itself.
    AntiEntropySummary {
        /// One entry per object, in GUID order.
        entries: Vec<SummaryEntry>,
    },
    /// Liveness probe from a dissemination-tree child to its parent.
    Ping,
    /// Liveness reply to [`ReplicaMsg::Ping`].
    Pong,
    /// An orphaned secondary (its parent stopped answering) asking to be
    /// adopted as a dissemination child.
    Attach,
    /// Adoption granted: the sender now feeds the requester commits.
    AttachOk {
        /// The adopter's own parent, which becomes the requester's new
        /// grandparent (next-in-line re-parenting candidate).
        grandparent: Option<NodeId>,
    },
}

/// A deadline of the replication layer: each role arms its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaTimer {
    /// A primary's deadline.
    Primary(PrimaryTimer),
    /// A secondary's deadline.
    Secondary(SecondaryTimer),
    /// An update client's agreement deadline (request retransmission).
    Client(PbftTimer),
}

impl Message for ReplicaMsg {
    type Timer = ReplicaTimer;

    fn wire_size(&self) -> usize {
        match self {
            ReplicaMsg::Pbft(m) => m.wire_size(),
            ReplicaMsg::Tentative { update, .. } => Guid::WIRE_SIZE + update.len() + 32,
            ReplicaMsg::ResultShare { .. } => {
                Guid::WIRE_SIZE + 8 + 20 + 9 + 8 + Signature::WIRE_SIZE
            }
            ReplicaMsg::ShareRebroadcast { .. } => {
                Guid::WIRE_SIZE + 8 + 20 + 9 + 8 + Signature::WIRE_SIZE + 8
            }
            ReplicaMsg::CertFormed { cert, .. } => Guid::WIRE_SIZE + 8 + cert.wire_size(),
            ReplicaMsg::Commit(r) => r.wire_size(),
            ReplicaMsg::CommitAck { .. } => Guid::WIRE_SIZE + 8,
            ReplicaMsg::Invalidate { .. } => Guid::WIRE_SIZE + 24,
            ReplicaMsg::FetchCommits { .. } => Guid::WIRE_SIZE + 16,
            ReplicaMsg::Commits { records } => {
                16 + records.iter().map(CommitRecord::wire_size).sum::<usize>()
            }
            ReplicaMsg::AntiEntropyDigest { .. } => 16,
            ReplicaMsg::AntiEntropySummary { entries } => {
                8 + entries.iter().map(SummaryEntry::wire_size).sum::<usize>()
            }
            ReplicaMsg::Ping | ReplicaMsg::Pong => 8,
            ReplicaMsg::Attach => 8,
            ReplicaMsg::AttachOk { .. } => 16,
        }
    }

    fn class(&self) -> &'static str {
        match self {
            ReplicaMsg::Pbft(m) => m.class(),
            ReplicaMsg::Tentative { .. } => "replica/tentative",
            ReplicaMsg::ResultShare { .. } => "replica/resultshare",
            ReplicaMsg::ShareRebroadcast { .. } => "replica/sharerebroadcast",
            ReplicaMsg::CertFormed { .. } => "replica/certformed",
            ReplicaMsg::Commit(_) => "replica/commit",
            ReplicaMsg::CommitAck { .. } => "replica/commitack",
            ReplicaMsg::Invalidate { .. } => "replica/invalidate",
            ReplicaMsg::FetchCommits { .. } => "replica/fetch",
            ReplicaMsg::Commits { .. } => "replica/commits",
            ReplicaMsg::AntiEntropyDigest { .. } | ReplicaMsg::AntiEntropySummary { .. } => {
                "replica/antientropy"
            }
            ReplicaMsg::Ping | ReplicaMsg::Pong => "replica/heartbeat",
            ReplicaMsg::Attach | ReplicaMsg::AttachOk { .. } => "replica/attach",
        }
    }
}
