//! Replica/archival store-health gauges (§4.7 observation applied to the
//! storage layer this repo grew in PR 8).
//!
//! The replica tier's commit-record log and the content-addressed blob
//! layer underneath it both have memory stories worth watching: the
//! record log is bounded by the certified-frontier truncation, and the
//! blob layer reports dedup effectiveness and fallback reads. A
//! [`StoreGauge`] is one point-in-time sample of a node's store health;
//! the [`StoreMonitor`] accumulates samples, tracks peaks, flags
//! retained-record bound violations, and replays each sample as an
//! [`Event`] of kind `"store_mem"` for the handler DSL.
//!
//! The crate stays dependency-free: producers (the replica crate's
//! `StoreHealth`, the archival crate's `FragStoreHealth`) copy their
//! counters into a gauge field by field.

use crate::event::Event;

/// One point-in-time sample of a node's store health.
///
/// Field names mirror the replica crate's `StoreHealth` so producers can
/// translate mechanically; archival producers map `fragments` onto
/// `objects` and `missed_reads` onto `fallback_reads`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreGauge {
    /// Objects (or fragment entries) resident.
    pub objects: u64,
    /// Commit records currently retained.
    pub retained_records: u64,
    /// Records ever applied (monotonic with run length).
    pub total_records_applied: u64,
    /// Records truncated below the certified low-water mark.
    pub records_dropped: u64,
    /// Blobs held by the backend.
    pub blob_count: u64,
    /// Logical bytes held by the backend.
    pub blob_bytes: u64,
    /// Puts elided by dedup refcounting.
    pub dedup_hits: u64,
    /// Bytes those elided puts saved.
    pub dedup_bytes_saved: u64,
    /// Reads the blob backend missed and the replica served instead.
    pub fallback_reads: u64,
    /// Puts the backend refused.
    pub blob_put_failures: u64,
}

impl StoreGauge {
    /// Logical-to-stored dedup ratio; 1.0 when nothing deduplicated.
    pub fn dedup_ratio(&self) -> f64 {
        let logical = self.blob_bytes + self.dedup_bytes_saved;
        if self.blob_bytes == 0 {
            1.0
        } else {
            logical as f64 / self.blob_bytes as f64
        }
    }

    /// Renders the sample as a DSL event of kind `"store_mem"` so
    /// [`crate::SummaryDb`] handlers can aggregate it.
    pub fn to_event(&self, node: usize) -> Event {
        Event::new("store_mem")
            .with("node", node as f64)
            .with("objects", self.objects as f64)
            .with("retained_records", self.retained_records as f64)
            .with("records_applied", self.total_records_applied as f64)
            .with("records_dropped", self.records_dropped as f64)
            .with("blob_count", self.blob_count as f64)
            .with("blob_bytes", self.blob_bytes as f64)
            .with("dedup_hits", self.dedup_hits as f64)
            .with("dedup_saved", self.dedup_bytes_saved as f64)
            .with("fallback_reads", self.fallback_reads as f64)
            .with("put_failures", self.blob_put_failures as f64)
    }
}

/// Accumulates [`StoreGauge`] samples from one node: peak tracking plus
/// an optional retained-record bound (long-horizon harnesses sample this
/// between batches and fail the run on any violation).
#[derive(Debug, Clone, Default)]
pub struct StoreMonitor {
    /// Max retained records a sample may show; `None` = unbounded.
    bound: Option<u64>,
    samples: u64,
    violations: u64,
    peak_retained: u64,
    peak_blob_bytes: u64,
    last: StoreGauge,
}

impl StoreMonitor {
    /// A monitor with no bound (observation only).
    pub fn new() -> Self {
        StoreMonitor::default()
    }

    /// A monitor that counts samples whose retained-record count exceeds
    /// `max_retained_records` as violations. For a truncating store the
    /// natural bound is `objects × (retention + in-flight slack)`.
    pub fn bounded(max_retained_records: u64) -> Self {
        StoreMonitor { bound: Some(max_retained_records), ..StoreMonitor::default() }
    }

    /// Records one sample.
    pub fn record(&mut self, gauge: StoreGauge) {
        self.samples += 1;
        self.peak_retained = self.peak_retained.max(gauge.retained_records);
        self.peak_blob_bytes = self.peak_blob_bytes.max(gauge.blob_bytes);
        if let Some(bound) = self.bound {
            if gauge.retained_records > bound {
                self.violations += 1;
            }
        }
        self.last = gauge;
    }

    /// Samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Samples that exceeded the bound.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// `true` when at least one sample was taken and none broke the bound.
    pub fn healthy(&self) -> bool {
        self.samples > 0 && self.violations == 0
    }

    /// Largest retained-record count seen.
    pub fn peak_retained(&self) -> u64 {
        self.peak_retained
    }

    /// Largest blob-byte footprint seen.
    pub fn peak_blob_bytes(&self) -> u64 {
        self.peak_blob_bytes
    }

    /// The most recent sample.
    pub fn last(&self) -> &StoreGauge {
        &self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Aggregate, Expr, Handler, SummaryDb};

    fn gauge(retained: u64, applied: u64, bytes: u64, saved: u64) -> StoreGauge {
        StoreGauge {
            objects: 2,
            retained_records: retained,
            total_records_applied: applied,
            records_dropped: applied - retained,
            blob_count: 4,
            blob_bytes: bytes,
            dedup_hits: 3,
            dedup_bytes_saved: saved,
            fallback_reads: 0,
            blob_put_failures: 0,
        }
    }

    #[test]
    fn dedup_ratio_reads_logical_over_stored() {
        let g = gauge(8, 8, 100, 50);
        assert!((g.dedup_ratio() - 1.5).abs() < 1e-9);
        assert_eq!(StoreGauge::default().dedup_ratio(), 1.0, "empty store: no dedup");
    }

    #[test]
    fn monitor_tracks_peaks_and_bound() {
        let mut mon = StoreMonitor::bounded(256);
        mon.record(gauge(100, 100, 1_000, 0));
        mon.record(gauge(256, 900, 2_000, 100));
        assert!(mon.healthy());
        assert_eq!(mon.peak_retained(), 256);
        assert_eq!(mon.peak_blob_bytes(), 2_000);
        mon.record(gauge(257, 1_200, 1_500, 100));
        assert!(!mon.healthy());
        assert_eq!(mon.violations(), 1);
        assert_eq!(mon.samples(), 3);
        assert_eq!(mon.last().retained_records, 257);
    }

    #[test]
    fn empty_monitor_is_not_healthy() {
        // No data is not evidence of health.
        assert!(!StoreMonitor::new().healthy());
    }

    #[test]
    fn gauge_events_feed_the_dsl() {
        let mut db = SummaryDb::new();
        db.register(
            "store",
            Handler::new(
                Expr::KindIs("store_mem"),
                vec![
                    ("peak_retained", Aggregate::Max(Expr::Field("retained_records"))),
                    ("total_dropped", Aggregate::Sum(Expr::Field("records_dropped"))),
                    ("fallbacks", Aggregate::Sum(Expr::Field("fallback_reads"))),
                ],
            ),
        );
        db.observe(&gauge(100, 400, 1_000, 0).to_event(0));
        db.observe(&gauge(128, 600, 1_200, 64).to_event(1));
        let s = db.summary("store").unwrap();
        assert_eq!(s.values["peak_retained"], 128.0);
        assert_eq!(s.values["total_dropped"], 300.0 + 472.0);
        assert_eq!(s.matched, 2);
    }
}
