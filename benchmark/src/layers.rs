//! Per-layer counts, read from public accessors after a run.
//!
//! Both assembled systems expose the same things — a `NetStats` whose
//! message classes carry their crate as a prefix, and per-node health
//! structs — so one collector serves the closed-loop `OceanStore`
//! workloads and the open-loop `Deployment` ones.

use oceanstore_archival::ArchNode;
use oceanstore_replica::OceanNode;
use oceanstore_sim::{ClassStats, NetStats, ParCoverage, Protocol, Simulator};

use crate::stats::{ratio, Metrics};
use crate::trace::Snap;

/// The engine's clocks and counters right now.
pub fn snap<P: Protocol>(sim: &Simulator<P>) -> Snap {
    Snap {
        sim_us: sim.now().as_micros(),
        messages: sim.stats().total_messages(),
        bytes: sim.stats().total_bytes(),
        events: sim.events_processed(),
    }
}

/// Health counters summed (or maxed, for peaks) over every node.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fleet {
    /// Σ replica-store blob bytes.
    pub blob_bytes: u64,
    /// Σ replica-store blobs.
    pub blob_count: u64,
    /// Σ dedup hits (replica stores and fragment stores).
    pub dedup_hits: u64,
    /// Σ bytes those hits saved.
    pub dedup_bytes_saved: u64,
    /// Σ block reads the blob layer missed.
    pub fallback_reads: u64,
    /// Σ puts a backend refused.
    pub put_failures: u64,
    /// Max per-store peak of retained commit records.
    pub peak_retained_records: u64,
    /// Σ records applied.
    pub records_applied: u64,
    /// Σ records truncated.
    pub records_dropped: u64,
    /// Σ over primaries of the PBFT view reached (0 = no view change).
    pub view_changes: u64,
    /// Σ state-transfer fetches sent.
    pub state_fetches: u64,
    /// Max agreement-log length seen on any primary right now.
    pub log_len: u64,
    /// Σ share re-broadcasts.
    pub share_retries: u64,
    /// Σ commit re-pushes.
    pub repush_resends: u64,
    /// Σ secondary re-parentings.
    pub reparents: u64,
    /// Σ archival fragment payload bytes.
    pub frag_bytes: u64,
    /// Σ fragment reads the backend could not serve.
    pub frag_missed_reads: u64,
}

impl Fleet {
    /// Folds one replication role in.
    pub fn add_replica(&mut self, node: &OceanNode) {
        let store = match node {
            OceanNode::Primary(p) => {
                let h = p.pbft().health();
                self.view_changes += p.pbft().view();
                self.state_fetches += h.state_fetches;
                self.log_len = self.log_len.max(h.log_len);
                self.share_retries += p.share_retry_count();
                self.repush_resends += p.repush_resend_count();
                &p.store
            }
            OceanNode::Secondary(s) => {
                self.reparents += s.reparent_count();
                &s.store
            }
            OceanNode::Client(_) | OceanNode::Idle => return,
        };
        let h = store.health();
        self.blob_bytes += h.blob_bytes;
        self.blob_count += h.blob_count;
        self.dedup_hits += h.dedup_hits;
        self.dedup_bytes_saved += h.dedup_bytes_saved;
        self.fallback_reads += h.fallback_reads;
        self.put_failures += h.blob_put_failures;
        self.peak_retained_records = self.peak_retained_records.max(h.peak_retained_records);
        self.records_applied += h.total_records_applied;
        self.records_dropped += h.records_dropped;
    }

    /// Folds one archival fragment store in.
    pub fn add_arch(&mut self, node: &ArchNode) {
        let h = node.store_health();
        self.frag_bytes += h.blob_bytes;
        self.dedup_hits += h.dedup_hits;
        self.dedup_bytes_saved += h.dedup_bytes_saved;
        self.frag_missed_reads += h.missed_reads;
        self.put_failures += h.put_failures;
    }

    /// Bytes the fleet holds on behalf of users: replica blobs plus
    /// archival fragments.
    pub fn stored_bytes(&self) -> u64 {
        self.blob_bytes + self.frag_bytes
    }
}

/// Sum of the `NetStats` classes whose name starts with `prefix`.
pub fn class_sum(stats: &NetStats, prefix: &str) -> ClassStats {
    let mut total = ClassStats::default();
    for (_, c) in stats.classes().filter(|(name, _)| name.starts_with(prefix)) {
        total.messages += c.messages;
        total.bytes += c.bytes;
    }
    total
}

/// What the drivers know about a finished run that the counters do not.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunFacts {
    /// Host seconds of the measured phase.
    pub wall_s: f64,
    /// Simulated seconds of the measured phase.
    pub sim_s: f64,
    /// Writes that committed.
    pub commits: u64,
    /// Writes still pending when the run ended.
    pub pending: u64,
    /// Engine events processed in the measured phase.
    pub events: u64,
    /// Locate calls made.
    pub locates: u64,
    /// Archive calls made.
    pub archives: u64,
}

/// Fills every count-derived metric of the `consensus`, `replica`,
/// `store`, `archival`, `plaxton` and `sim` layers.
pub fn count_metrics(m: &mut Metrics, stats: &NetStats, fleet: &Fleet, f: &RunFacts) {
    let commits = f.commits as f64;
    let pbft = class_sum(stats, "pbft/");
    m.set(
        "consensus.messages_per_commit",
        ratio(pbft.messages as f64, commits),
    );
    m.set(
        "consensus.bytes_per_commit",
        ratio(pbft.bytes as f64, commits),
    );
    m.set("consensus.view_changes", fleet.view_changes as f64);
    m.set(
        "consensus.viewchange_messages",
        (stats.class("pbft/viewchange").messages + stats.class("pbft/newview").messages) as f64,
    );
    m.set(
        "consensus.checkpoint_messages",
        stats.class("pbft/checkpoint").messages as f64,
    );
    m.set("consensus.state_fetches", fleet.state_fetches as f64);
    m.set("consensus.committed_per_sim_s", ratio(commits, f.sim_s));
    m.set("consensus.pending_at_end", f.pending as f64);

    let replica = class_sum(stats, "replica/");
    m.set(
        "replica.messages_per_commit",
        ratio(replica.messages as f64, commits),
    );
    m.set(
        "replica.bytes_per_commit",
        ratio(replica.bytes as f64, commits),
    );
    m.set(
        "replica.antientropy_messages_per_sim_s",
        ratio(stats.class("replica/antientropy").messages as f64, f.sim_s),
    );
    m.set(
        "replica.heartbeat_messages_per_sim_s",
        ratio(stats.class("replica/heartbeat").messages as f64, f.sim_s),
    );
    m.set(
        "replica.fetch_messages",
        stats.class("replica/fetch").messages as f64,
    );
    m.set("replica.repush_resends", fleet.repush_resends as f64);
    m.set("replica.share_retries", fleet.share_retries as f64);
    m.set("replica.reparents", fleet.reparents as f64);
    m.set(
        "replica.peak_retained_records",
        fleet.peak_retained_records as f64,
    );
    m.set("replica.records_applied", fleet.records_applied as f64);
    m.set("replica.records_dropped", fleet.records_dropped as f64);

    m.set("store.blob_bytes", fleet.blob_bytes as f64);
    m.set("store.blob_count", fleet.blob_count as f64);
    m.set("store.dedup_hits", fleet.dedup_hits as f64);
    m.set("store.dedup_bytes_saved", fleet.dedup_bytes_saved as f64);
    m.set("store.fallback_reads", fleet.fallback_reads as f64);
    m.set("store.put_failures", fleet.put_failures as f64);

    let arch_store = stats.class("arch/store");
    m.set(
        "archival.messages_per_archive",
        ratio(arch_store.messages as f64, f.archives as f64),
    );
    m.set(
        "archival.bytes_per_archive",
        ratio(arch_store.bytes as f64, f.archives as f64),
    );
    m.set("archival.missed_reads", fleet.frag_missed_reads as f64);

    let locate_classes = [
        "plaxton/locate",
        "plaxton/found",
        "plaxton/notfound",
        "plaxton/ack",
    ];
    let locate_msgs: u64 = locate_classes.iter().map(|c| stats.class(c).messages).sum();
    m.set(
        "plaxton.messages_per_locate",
        ratio(locate_msgs as f64, f.locates as f64),
    );
    let background_classes = ["plaxton/beacon", "plaxton/gossip", "plaxton/publish"];
    let background: u64 = background_classes
        .iter()
        .map(|c| stats.class(c).messages)
        .sum();
    m.set(
        "plaxton.background_messages_per_sim_s",
        ratio(background as f64, f.sim_s),
    );

    m.set("sim.events", f.events as f64);
    m.set("sim.events_per_wall_s", ratio(f.events as f64, f.wall_s));
    m.set("sim.messages", stats.total_messages() as f64);
    m.set("sim.bytes", stats.total_bytes() as f64);
    m.set("sim.dropped_messages", stats.dropped_messages() as f64);
    m.set("sim.sim_s_per_wall_s", ratio(f.sim_s, f.wall_s));
}

/// Fills the parallel-scheduler coverage metrics.
pub fn coverage_metrics(m: &mut Metrics, cov: &ParCoverage) {
    m.set("sim.windows_parallel", cov.windows_parallel as f64);
    m.set("sim.windows_inline", cov.windows_inline as f64);
    m.set("sim.serial_fraction", cov.serial_fraction());
}

/// Signature operations implied by the delivered message counts.
///
/// Verifications: every delivered PBFT message and result share is
/// verified once by its receiver, and every pushed or gossiped commit
/// record carries a certificate of `cert_sigs` signatures its receiver
/// checks. Signatures: replies and result shares are signed per message;
/// every other PBFT message is one signature broadcast to the ring
/// (`ring_size - 1` deliveries, `ring_size` for a client's request).
/// Returns `(signs, verifies)`.
pub fn est_sig_ops(stats: &NetStats, ring_size: u64, cert_sigs: u64) -> (f64, f64) {
    let msgs = |class: &str| stats.class(class).messages;
    let pbft = class_sum(stats, "pbft/").messages;
    let shares = msgs("replica/resultshare");
    let per_message = msgs("pbft/reply") + shares;
    let requests = msgs("pbft/request");
    let broadcasts = pbft - msgs("pbft/reply") - requests;
    let certs = msgs("replica/commit") + msgs("replica/certformed") + msgs("replica/commits");
    let signs = per_message as f64
        + requests as f64 / ring_size as f64
        + broadcasts as f64 / (ring_size - 1).max(1) as f64;
    let verifies = (pbft + shares + certs * cert_sigs) as f64;
    (signs, verifies)
}

/// Counts the kernel replay multiplies unit costs by.
#[derive(Debug, Clone, Copy, Default)]
pub struct Estimates {
    /// Signatures made.
    pub signs: f64,
    /// Signatures verified.
    pub verifies: f64,
    /// Cleartext megabytes encrypted or decrypted by the driver's calls.
    pub cipher_mb: f64,
    /// 4 KiB-equivalent blob puts (replica blocks and archival fragments).
    pub puts_4k: f64,
    /// 4 KiB-equivalent blob gets (fragments served).
    pub gets_4k: f64,
    /// Megabytes erasure-encoded.
    pub encoded_mb: f64,
    /// Megabytes erasure-decoded.
    pub decoded_mb: f64,
    /// Merkle leaves hashed.
    pub merkle_leaves: f64,
}
