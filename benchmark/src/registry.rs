//! The benchmark's contract in one place: workload names, every metric
//! name with its unit, direction and clock, and the `BENCHMARK.json`
//! manifest generated from them. Nothing is emitted under a name that is
//! not registered here, and every registered name is emitted.

/// Which clock (if any) a metric is read from. `Sim` and `Count` metrics
/// are functions of the seed and `--seconds` (which fix the units run);
/// `Wall` metrics are what the host paid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock (or host memory).
    Wall,
    /// Simulated WAN clock (20 ms one-way links).
    Sim,
    /// A count or a ratio of counts.
    Count,
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable name (`layer.metric` for per-layer metrics).
    pub name: &'static str,
    /// Unit, at most 16 characters of `[A-Za-z0-9_/%.-]`.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The clock the value is read from.
    pub clock: Clock,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: Clock,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: Clock,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound: 0.0,
    }
}

use Clock::{Count, Sim, Wall};

/// End-to-end metrics: what a user of the system (or of the reproduction)
/// sees. Emitted by untraced runs on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", Wall, 0.25),
    e2e("ops_per_wall_s", "ops/s", "higher", Wall, 0.25),
    e2e("unit_wall_ms_p50", "ms", "lower", Wall, 0.25),
    e2e("commit_sim_ms_p50", "sim_ms", "lower", Sim, 0.01),
    e2e("commit_sim_ms_tail", "sim_ms", "lower", Sim, 0.10),
    e2e("wire_bytes_per_op", "B/op", "lower", Sim, 0.10),
    e2e("stored_bytes_per_user_byte", "ratio", "lower", Count, 0.01),
    e2e("peak_rss_mb", "MiB", "lower", Wall, 0.20),
];

/// Per-layer metrics (layer names are the crates). Emitted by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    // core — the driver's own calls into `OceanStore`.
    layer("core.update_wall_ms_p50", "ms", "lower", Wall),
    layer("core.update_wall_ms_tail", "ms", "lower", Wall),
    layer("core.read_wall_ms_p50", "ms", "lower", Wall),
    layer("core.read_wall_ms_tail", "ms", "lower", Wall),
    layer("core.settle_wall_ms_per_sim_s", "ms/sim_s", "lower", Wall),
    layer("core.read_wait_sim_ms_p50", "sim_ms", "lower", Sim),
    layer("core.aborts", "count", "higher", Count),
    layer("core.unattributed_share", "ratio", "lower", Wall),
    layer("core.failed_ops_ratio", "ratio", "lower", Count),
    layer("core.unit_wall_ms_tail", "ms", "lower", Wall),
    // update — kernel replay on the workload's block shape.
    layer("update.build_ms_per_mb", "ms/MB", "lower", Wall),
    layer("update.read_object_ms_per_mb", "ms/MB", "lower", Wall),
    layer("update.apply_us_per_op", "us/op", "lower", Wall),
    layer("update.codec_us_per_op", "us/op", "lower", Wall),
    layer(
        "update.ciphertext_bytes_per_user_byte",
        "ratio",
        "lower",
        Count,
    ),
    // crypto
    layer("crypto.sha256_mb_per_s", "MB/s", "higher", Wall),
    layer("crypto.cipher_mb_per_s", "MB/s", "higher", Wall),
    layer("crypto.schnorr_sign_us", "us", "lower", Wall),
    layer("crypto.schnorr_verify_us", "us", "lower", Wall),
    layer(
        "crypto.schnorr_batch_verify_us_per_sig",
        "us",
        "lower",
        Wall,
    ),
    layer("crypto.merkle_us_per_leaf", "us", "lower", Wall),
    layer("crypto.est_sig_ops", "count", "lower", Count),
    layer("crypto.est_wall_share", "ratio", "lower", Wall),
    // naming
    layer("naming.cid_mb_per_s", "MB/s", "higher", Wall),
    // consensus
    layer("consensus.messages_per_commit", "1/commit", "lower", Count),
    layer("consensus.bytes_per_commit", "B/commit", "lower", Count),
    layer("consensus.view_changes", "count", "lower", Count),
    layer("consensus.viewchange_messages", "count", "lower", Count),
    layer("consensus.checkpoint_messages", "count", "lower", Count),
    layer("consensus.state_fetches", "count", "lower", Count),
    layer("consensus.committed_per_sim_s", "1/sim_s", "higher", Sim),
    layer("consensus.pending_at_end", "count", "lower", Count),
    layer("consensus.meets_latency_limit", "bool", "higher", Sim),
    layer("consensus.peak_log_len", "count", "lower", Count),
    // replica
    layer("replica.messages_per_commit", "1/commit", "lower", Count),
    layer("replica.bytes_per_commit", "B/commit", "lower", Count),
    layer(
        "replica.antientropy_messages_per_sim_s",
        "1/sim_s",
        "lower",
        Sim,
    ),
    layer(
        "replica.heartbeat_messages_per_sim_s",
        "1/sim_s",
        "lower",
        Sim,
    ),
    layer("replica.fetch_messages", "count", "lower", Count),
    layer("replica.repush_resends", "count", "lower", Count),
    layer("replica.share_retries", "count", "lower", Count),
    layer("replica.reparents", "count", "lower", Count),
    layer("replica.stale_read_ratio", "ratio", "lower", Count),
    layer("replica.peak_retained_records", "count", "lower", Count),
    layer("replica.records_applied", "count", "lower", Count),
    layer("replica.records_dropped", "count", "higher", Count),
    // store
    layer("store.blob_bytes", "B", "lower", Count),
    layer("store.blob_count", "count", "lower", Count),
    layer("store.dedup_hits", "count", "higher", Count),
    layer("store.dedup_bytes_saved", "B", "higher", Count),
    layer("store.fallback_reads", "count", "lower", Count),
    layer("store.put_failures", "count", "lower", Count),
    layer("store.mem_put_us_4k", "us", "lower", Wall),
    layer("store.mem_get_us_4k", "us", "lower", Wall),
    layer("store.dir_put_us_4k", "us", "lower", Wall),
    layer("store.dir_get_us_4k", "us", "lower", Wall),
    layer("store.est_wall_share", "ratio", "lower", Wall),
    // erasure
    layer("erasure.encode_mb_per_s", "MB/s", "higher", Wall),
    layer("erasure.decode_mb_per_s", "MB/s", "higher", Wall),
    layer("erasure.gf256_mul_acc_mb_per_s", "MB/s", "higher", Wall),
    layer("erasure.est_wall_share", "ratio", "lower", Wall),
    // archival
    layer("archival.archive_wall_ms_p50", "ms", "lower", Wall),
    layer("archival.recover_wall_ms_p50", "ms", "lower", Wall),
    layer("archival.recover_sim_ms_p50", "sim_ms", "lower", Sim),
    layer("archival.archive_object_ms_per_mb", "ms/MB", "lower", Wall),
    layer("archival.reconstruct_ms_per_mb", "ms/MB", "lower", Wall),
    layer("archival.messages_per_archive", "1/archive", "lower", Count),
    layer("archival.bytes_per_archive", "B/archive", "lower", Count),
    layer(
        "archival.fragments_requested_per_recover",
        "1/recover",
        "lower",
        Count,
    ),
    layer(
        "archival.fragment_bytes_per_user_byte",
        "ratio",
        "lower",
        Count,
    ),
    layer("archival.missed_reads", "count", "lower", Count),
    // plaxton
    layer("plaxton.setup_s", "s", "lower", Wall),
    layer("plaxton.publish_wall_ms_p50", "ms", "lower", Wall),
    layer("plaxton.locate_wall_us_p50", "us", "lower", Wall),
    layer("plaxton.locate_sim_ms_p50", "sim_ms", "lower", Sim),
    layer("plaxton.locate_sim_ms_tail", "sim_ms", "lower", Sim),
    layer("plaxton.locate_hops_p50", "hops", "lower", Count),
    layer("plaxton.locate_miss_ratio", "ratio", "lower", Count),
    layer("plaxton.locate_root_answer_ratio", "ratio", "lower", Count),
    layer("plaxton.messages_per_locate", "1/locate", "lower", Count),
    layer(
        "plaxton.background_messages_per_sim_s",
        "1/sim_s",
        "lower",
        Sim,
    ),
    // sim — the engine under both deployments.
    layer("sim.events", "count", "lower", Count),
    layer("sim.events_per_wall_s", "1/s", "higher", Wall),
    layer("sim.messages", "count", "lower", Count),
    layer("sim.bytes", "B", "lower", Count),
    layer("sim.dropped_messages", "count", "lower", Count),
    layer("sim.sim_s_per_wall_s", "sim_s/s", "higher", Wall),
    layer("sim.idle_wall_ms_per_sim_s", "ms/sim_s", "lower", Wall),
    layer("sim.wall_growth_ratio", "ratio", "lower", Wall),
    layer("sim.pending_events_at_end", "count", "lower", Count),
    layer("sim.windows_parallel", "count", "higher", Wall),
    layer("sim.windows_inline", "count", "lower", Wall),
    layer("sim.serial_fraction", "ratio", "lower", Wall),
    layer("sim.par_speedup_t2", "x", "higher", Wall),
    // bench — the driver itself.
    layer("bench.driver_self_share", "ratio", "lower", Wall),
    layer("bench.trace_overhead_ratio", "ratio", "lower", Wall),
    layer("bench.gen_lateness_sim_us_max", "sim_us", "lower", Sim),
    layer("bench.calib_spin_ms", "ms", "lower", Wall),
    layer("bench.host_loadavg_1m", "load", "lower", Wall),
];

/// How long one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 8;

/// The six workloads with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "lifecycle",
        "closed loop, 64 KiB objects: write, settle, session read, publish, locate, archive, recover; every layer works and none dominates",
    ),
    (
        "read_mostly",
        "closed loop, 90% Zipf session reads over 64 preloaded objects, 5% locate, 5% one-block writes; read path and decrypt hot, consensus and erasure idle",
    ),
    (
        "bulk_archive",
        "closed loop, 1 MiB objects archived RS(16,32) and recovered with 14 holders down; cipher, SHA-256/CID, gf256, Merkle and blob store hot, PBFT negligible",
    ),
    (
        "tier_open_loop",
        "open loop, 120 arrivals/s (4 of 5 are 8-byte appends) on 2 rings and 488 secondaries; Schnorr, PBFT, tree push and the engine hot, bytes layers cold",
    ),
    (
        "scaleout_t2",
        "open loop, 60/s on 2000 secondaries with 2 simulator threads; dissemination fan-out and the windowed scheduler dominate",
    ),
    (
        "lossy_open_loop",
        "open loop, 20/s, faults every 10 sim-s on the dissemination tier (2 s of 5% loss on root and tree links, 2 s with an interior secondary down); re-push, fetch, re-parenting, anti-entropy hot",
    ),
];

/// Looks a metric up in both tables.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `BENCHMARK.json`, generated so the manifest and the emitted names
/// cannot drift apart (the smoke test compares the checked-in file with
/// this text).
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
