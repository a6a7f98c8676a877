//! End-to-end benchmark with layer attribution for the OceanStore
//! reproduction.
//!
//! Six workloads drive the two assembled systems (`core::OceanStore` and
//! `replica::build_deployment`) through their public functions only, so
//! every layer is measured from outside. An untraced run reports the
//! end-to-end metrics; a traced run records a span at every layer
//! boundary the driver crosses, replays the kernels the driver cannot
//! call separately, and reports the per-layer metrics. See `README.md`.

pub mod closed;
pub mod layers;
pub mod open;
pub mod registry;
pub mod replay;
pub mod stats;
pub mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use layers::Estimates;
use replay::Shape;
use stats::{median, percentile, ratio, Calibrator, Metrics};
use trace::Tracer;

/// One invocation of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name (see [`registry::WORKLOADS`]).
    pub workload: String,
    /// Feeds object bytes, Zipf draws, the arrival schedule and the
    /// deployment seed.
    pub seed: u64,
    /// Host seconds the measured phase is sized for: the unit count is
    /// the workload's count for a [`registry::RUN_SECONDS`] run, scaled.
    pub seconds: f64,
    /// Whether to record spans and report the per-layer metrics.
    pub trace: bool,
    /// The small preset: reduced sizes, its own unit counts, one set-up.
    pub small: bool,
}

impl RunArgs {
    /// Units of work to measure, given the workload's count for a
    /// `RUN_SECONDS` run (`preset`). The amount of work is a function of
    /// the arguments alone, never of how fast the host happens to be, so
    /// every simulated-clock metric and every count is a function of the
    /// seed, and two runs (or two commits) are compared on identical work.
    pub fn units(&self, preset: u64) -> u64 {
        if self.small {
            return preset;
        }
        let scaled = preset as f64 * self.seconds / f64::from(registry::RUN_SECONDS);
        (scaled.round() as u64).max(1)
    }
}

/// Sets a workload up three times (once under `--small`), and — because a
/// set-up of a few milliseconds is mostly noise — keeps repeating until
/// half a second has gone into set-ups (at most 15 of them). Returns the
/// last deployment built and the calibrated host seconds of every set-up.
pub fn repeat_set_up<D>(
    small: bool,
    cal: &mut Calibrator,
    mut set_up: impl FnMut() -> D,
) -> (D, Vec<f64>) {
    let at_least = if small { 1 } else { 3 };
    let mut setup_s = Vec::new();
    loop {
        let t = Instant::now();
        let built = set_up();
        let raw = t.elapsed().as_secs_f64();
        setup_s.push(raw / cal.factor());
        let enough = setup_s.len() >= at_least
            && (small || setup_s.len() >= 15 || setup_s.iter().sum::<f64>() >= 0.5);
        if enough {
            return (built, setup_s);
        }
    }
}

/// What a workload driver hands back.
pub struct Outcome {
    /// Calibrated host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Raw host seconds of the measured phase (for open loops, drain
    /// included; calibration spins taken out).
    pub wall_s: f64,
    /// Calibrated host seconds of the measured phase: the sum over its
    /// units of work (for open loops, drain slices too).
    pub cal_wall_s: f64,
    /// Calibrated host milliseconds of each unit of work.
    pub unit_ms: Vec<f64>,
    /// Median duration of the calibration spin, milliseconds.
    pub calib_spin_ms: f64,
    /// Simulated milliseconds from `sent_at` to `committed_at` of every
    /// committed write.
    pub commit_sim_ms: Vec<f64>,
    /// The workload's tail percentile.
    pub tail_q: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not complete: timeouts, writes still pending
    /// at the end of the drain, reads no replica could serve.
    pub failed: u64,
    /// Operations that completed without the answer the user wanted: a
    /// locate that found nothing for a published object. Counted in
    /// `core.failed_ops_ratio`, never in `ops_per_wall_s`.
    pub missed: u64,
    /// Wrong answers (any makes the run incorrect).
    pub violations: Vec<String>,
    /// `NetStats::total_bytes` over the measured phase.
    pub wire_bytes: u64,
    /// Bytes held by replica and fragment stores at the end.
    pub stored_bytes: u64,
    /// Cleartext bytes written.
    pub user_bytes: u64,
    /// `VmHWM` when the measured phase ended.
    pub peak_rss_mb: f64,
    /// Input shape for the kernel replay.
    pub shape: Shape,
    /// What a traced run adds.
    pub traced: Option<Traced>,
}

/// What a traced run hands back on top of [`Outcome`].
pub struct Traced {
    /// Per-layer metrics derived from counts and spans.
    pub layers: Metrics,
    /// Counts the kernel replay prices.
    pub estimates: Estimates,
    /// Raw host seconds those counts were taken over: the measured phase,
    /// and for `lossy_open_loop` the commit-path probe after it.
    pub counted_wall_s: f64,
    /// The span log.
    pub tracer: Tracer,
}

/// The result of one run, ready to print.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// No wrong answer was seen.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Wrong answers, for the log.
    pub violations: Vec<String>,
    /// Units of work measured.
    pub units: u64,
    /// End-to-end metrics.
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs).
    pub per_layer: Option<Metrics>,
}

/// §4.4.5's estimate for a wide-area commit ("less than a second").
pub const LATENCY_LIMIT_MS: f64 = 1000.0;

enum Plan {
    Closed(closed::Spec),
    Open(open::Spec),
}

/// Sizes of every workload: the full shape, and the `--small` preset
/// that keeps the shape and cuts the counts. `units` is the count for a
/// `RUN_SECONDS` run, sized so that the measured phase takes six to seven
/// seconds on the baseline host; `tail_q` is the highest percentile with
/// about ten samples beyond it at that count.
fn plan(workload: &str, small: bool) -> Option<Plan> {
    use closed::Kind;
    let lifecycle = closed::Spec {
        kind: Kind::Lifecycle,
        secondaries: 16,
        blocks: 16,
        block_len: 4096,
        preload: 0,
        units: 160,
        tail_q: 0.90,
    };
    let read_mostly = closed::Spec {
        kind: Kind::ReadMostly,
        preload: 64,
        units: 4000,
        tail_q: 0.99,
        ..lifecycle
    };
    let bulk_archive = closed::Spec {
        kind: Kind::BulkArchive,
        secondaries: 32,
        blocks: 256,
        units: 10,
        tail_q: 0.75,
        ..lifecycle
    };
    let tier = open::Spec {
        secondaries: 488,
        rate: 120.0,
        threads: 1,
        faults: false,
        drain_s: 2,
        units: 100,
        tail_q: 0.90,
    };
    let scaleout = open::Spec {
        secondaries: 2000,
        rate: 60.0,
        threads: 2,
        units: 75,
        tail_q: 0.85,
        ..tier
    };
    let lossy = open::Spec {
        rate: 20.0,
        faults: true,
        drain_s: 6,
        units: 500,
        tail_q: 0.95,
        ..tier
    };
    let tiny = |blocks, block_len, preload, units, base: closed::Spec| {
        Plan::Closed(closed::Spec {
            blocks,
            block_len,
            preload,
            units,
            ..base
        })
    };
    let little = |secondaries, rate, units, base: open::Spec| {
        Plan::Open(open::Spec {
            secondaries,
            rate,
            units,
            ..base
        })
    };
    Some(match (workload, small) {
        ("lifecycle", false) => Plan::Closed(lifecycle),
        ("lifecycle", true) => tiny(4, 1024, 0, 8, lifecycle),
        ("read_mostly", false) => Plan::Closed(read_mostly),
        ("read_mostly", true) => tiny(4, 1024, 8, 300, read_mostly),
        ("bulk_archive", false) => Plan::Closed(bulk_archive),
        ("bulk_archive", true) => tiny(16, 4096, 0, 2, bulk_archive),
        ("tier_open_loop", false) => Plan::Open(tier),
        ("tier_open_loop", true) => little(48, 40.0, 20, tier),
        ("scaleout_t2", false) => Plan::Open(scaleout),
        ("scaleout_t2", true) => little(200, 30.0, 20, scaleout),
        ("lossy_open_loop", false) => Plan::Open(lossy),
        ("lossy_open_loop", true) => little(48, 20.0, 100, lossy),
        _ => return None,
    })
}

/// Where run artefacts go: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Where an untraced run leaves its seed, unit count and calibrated
/// measured-phase wall for the traced run that follows it (`run --all
/// --trace 1` runs them in that order): the denominator of
/// `bench.trace_overhead_ratio`.
fn untraced_wall_path(workload: &str) -> PathBuf {
    out_dir().join(format!("{workload}.untraced"))
}

/// Calibrated measured-phase wall of the last untraced run of `workload`,
/// if it did the same work (same seed, same units).
fn untraced_wall_s(workload: &str, seed: u64, units: u64) -> Option<f64> {
    let text = std::fs::read_to_string(untraced_wall_path(workload)).ok()?;
    let mut fields = text.split_whitespace();
    let same_work = fields.next()?.parse() == Ok(seed) && fields.next()?.parse() == Ok(units);
    if !same_work {
        return None;
    }
    fields.next()?.parse().ok()
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, or a run artefact that cannot be written.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let plan = plan(&args.workload, args.small)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let mut out = match plan {
        Plan::Closed(spec) => closed::run(spec, args),
        Plan::Open(spec) => open::run(spec, args),
    };
    let units = out.unit_ms.len() as u64;

    let succeeded = out.attempted - out.failed - out.missed;
    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&out.setup_s));
    e2e.set("ops_per_wall_s", ratio(succeeded as f64, out.cal_wall_s));
    e2e.set("unit_wall_ms_p50", median(&out.unit_ms));
    e2e.set("commit_sim_ms_p50", median(&out.commit_sim_ms));
    e2e.set(
        "commit_sim_ms_tail",
        percentile(&out.commit_sim_ms, out.tail_q),
    );
    e2e.set(
        "wire_bytes_per_op",
        ratio(out.wire_bytes as f64, succeeded as f64),
    );
    e2e.set(
        "stored_bytes_per_user_byte",
        ratio(out.stored_bytes as f64, out.user_bytes as f64),
    );
    e2e.set("peak_rss_mb", out.peak_rss_mb);

    std::fs::create_dir_all(out_dir()).map_err(|e| format!("creating the out directory: {e}"))?;
    let per_layer = match out.traced.take() {
        Some(Traced {
            layers: mut m,
            estimates,
            counted_wall_s,
            tracer,
        }) => {
            let budget = Duration::from_millis(if args.small { 10 } else { 200 });
            let scratch =
                out_dir().join(format!("dirstore-{}-{}", args.workload, std::process::id()));
            replay::replay(&mut m, &out.shape, args.seed, budget, &scratch);
            share_metrics(&mut m, &estimates, counted_wall_s);
            let (roots_ms, children_ms) = tracer.root_and_child_ms();
            bench_metrics(&mut m, children_ms, &out);
            // Traced wall over the untraced wall of the same work; reads 0
            // when no untraced run of this seed and size came before.
            let untraced_s = untraced_wall_s(&args.workload, args.seed, units);
            m.set(
                "bench.trace_overhead_ratio",
                untraced_s.map_or(0.0, |u| ratio(out.cal_wall_s, u)),
            );
            if roots_ms < 0.98 * out.wall_s * 1e3 {
                out.violations.push(format!(
                    "root spans cover {roots_ms:.1} ms of a {:.1} ms run",
                    out.wall_s * 1e3
                ));
            }
            let path = out_dir().join(format!("{}.trace.jsonl", args.workload));
            tracer
                .write_jsonl(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Some(m)
        }
        None => {
            let path = untraced_wall_path(&args.workload);
            std::fs::write(&path, format!("{} {units} {}\n", args.seed, out.cal_wall_s))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            None
        }
    };

    Ok(RunResult {
        correct: out.violations.is_empty(),
        attempted: out.attempted,
        failed: out.failed,
        violations: out.violations,
        units,
        end_to_end: e2e,
        per_layer,
    })
}

/// Each layer's estimated share of the workload's wall time: a unit cost
/// the kernel replay recorded × a count seen from outside ÷ wall.
fn share_metrics(m: &mut Metrics, est: &Estimates, wall_s: f64) {
    let cost = |name: &str| m.get(name).expect("the replay records every unit cost");
    // Verifications are priced at the single-signature cost: an upper
    // bound where the tier batches.
    let crypto_s = (est.signs * cost("crypto.schnorr_sign_us")
        + est.verifies * cost("crypto.schnorr_verify_us")
        + est.merkle_leaves * cost("crypto.merkle_us_per_leaf"))
        / 1e6
        + ratio(est.cipher_mb, cost("crypto.cipher_mb_per_s"));
    let store_s = (est.puts_4k * cost("store.mem_put_us_4k")
        + est.gets_4k * cost("store.mem_get_us_4k"))
        / 1e6;
    let erasure_s = ratio(est.encoded_mb, cost("erasure.encode_mb_per_s"))
        + ratio(est.decoded_mb, cost("erasure.decode_mb_per_s"));
    m.set("crypto.est_sig_ops", est.signs + est.verifies);
    m.set("crypto.est_wall_share", ratio(crypto_s, wall_s));
    m.set("store.est_wall_share", ratio(store_s, wall_s));
    m.set("erasure.est_wall_share", ratio(erasure_s, wall_s));
    // Reported, not hidden: closing it needs spans inside the program.
    m.set(
        "core.unattributed_share",
        1.0 - ratio(crypto_s + store_s + erasure_s, wall_s),
    );
}

/// The driver's own cost.
fn bench_metrics(m: &mut Metrics, children_ms: f64, out: &Outcome) {
    let wall_ms = out.wall_s * 1e3;
    m.set("bench.driver_self_share", 1.0 - ratio(children_ms, wall_ms));
    m.set("bench.host_loadavg_1m", stats::loadavg_1m());
    m.set("bench.calib_spin_ms", out.calib_spin_ms);
    m.set(
        "core.unit_wall_ms_tail",
        percentile(&out.unit_ms, out.tail_q),
    );
    let n = out.unit_ms.len();
    let quarter = (n / 4).max(1).min(n);
    let mean = |s: &[f64]| ratio(s.iter().sum::<f64>(), s.len() as f64);
    m.set(
        "sim.wall_growth_ratio",
        ratio(
            mean(&out.unit_ms[n - quarter..]),
            mean(&out.unit_ms[..quarter]),
        ),
    );
}

/// The result as the one-line JSON object the harness reads: the
/// end-to-end metrics of an untraced run, the per-layer ones of a traced
/// run.
pub fn result_json(r: &RunResult) -> String {
    let (table, metrics) = match &r.per_layer {
        Some(m) => (registry::PER_LAYER, m),
        None => (registry::END_TO_END, &r.end_to_end),
    };
    let fields: Vec<String> = metrics
        .table(table)
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        fields.join(", ")
    )
}
