//! Schedule replay: interleaves fault events with simulation work.

use oceanstore_sim::{Protocol, SimTime, Simulator};

use crate::schedule::{FaultAction, Schedule};

/// One line of the replayable event trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Simulation time the fault was applied, in microseconds.
    pub at_micros: u64,
    /// Human-readable description of the applied action.
    pub description: String,
}

/// Replays `schedule` against `sim`: runs the simulation up to each
/// event's instant, applies the fault, then runs on to `until`. Events
/// scheduled past `until` are not applied. Returns the trace of applied
/// events — with a fixed seed the trace and the final
/// [`stats_fingerprint`] are bit-for-bit reproducible.
pub fn run_schedule<P: Protocol>(
    sim: &mut Simulator<P>,
    schedule: &Schedule,
    until: SimTime,
) -> Vec<TraceEntry> {
    let mut trace = Vec::new();
    for (at, action) in schedule.events() {
        if *at > until {
            break;
        }
        sim.run_until(*at);
        apply(sim, action);
        trace.push(TraceEntry {
            at_micros: at.as_micros(),
            description: format!("{action:?}"),
        });
    }
    sim.run_until(until);
    trace
}

/// Applies one fault action to a running simulation.
pub fn apply<P: Protocol>(sim: &mut Simulator<P>, action: &FaultAction) {
    match action {
        FaultAction::Crash(n) => sim.crash_node(*n),
        FaultAction::Recover(n) => sim.recover_node(*n),
        FaultAction::Partition(groups) => sim.set_partitions(Some(groups.clone())),
        FaultAction::Heal => sim.set_partitions(None),
        FaultAction::DropProb(p) => sim.set_drop_prob(*p),
        FaultAction::LatencyFactor(f) => sim.set_latency_factor(*f),
        FaultAction::LinkDrop(a, b, p) => sim.set_link_drop(*a, *b, *p),
    }
}

/// Incremental schedule replay: each event is applied exactly once across
/// any number of [`ScheduleCursor::run_to`] calls.
///
/// [`run_schedule`] re-walks its schedule from the first event on every
/// call, which is fine for the hand-written scenarios (their actions are
/// idempotent and each call uses a fresh schedule) but wrong for a driver
/// that interleaves other work — e.g. the fuzzer submitting updates midway
/// through one generated schedule. Re-applying a `Recover` after a later
/// `Crash` would silently undo the fault.
#[derive(Debug, Clone)]
pub struct ScheduleCursor {
    schedule: Schedule,
    next: usize,
}

impl ScheduleCursor {
    /// A cursor at the start of `schedule`.
    pub fn new(schedule: Schedule) -> Self {
        ScheduleCursor { schedule, next: 0 }
    }

    /// Runs `sim` to `until`, applying every not-yet-applied event with
    /// `at <= until` at its instant. Returns the trace of newly applied
    /// events.
    pub fn run_to<P: Protocol>(&mut self, sim: &mut Simulator<P>, until: SimTime) -> Vec<TraceEntry> {
        let mut trace = Vec::new();
        while let Some((at, action)) = self.schedule.events().get(self.next) {
            if *at > until {
                break;
            }
            sim.run_until(*at);
            apply(sim, action);
            trace.push(TraceEntry { at_micros: at.as_micros(), description: format!("{action:?}") });
            self.next += 1;
        }
        sim.run_until(until);
        trace
    }

    /// Whether every event has been applied.
    pub fn done(&self) -> bool {
        self.next >= self.schedule.len()
    }
}

/// A stable text fingerprint of the simulation's network counters:
/// current time, send totals, drops split by cause, and per-class
/// counters. Two replays of the same seed and schedule must produce
/// identical fingerprints; anything else is a determinism bug.
pub fn stats_fingerprint<P: Protocol>(sim: &Simulator<P>) -> String {
    use std::fmt::Write as _;
    let s = sim.stats();
    let mut out = format!(
        "now={} msgs={} bytes={}",
        sim.now().as_micros(),
        s.total_messages(),
        s.total_bytes()
    );
    for (cause, n) in s.drops_by_cause() {
        let _ = write!(out, " drop[{cause:?}]={n}");
    }
    for (class, c) in s.classes() {
        let _ = write!(out, " {class}={}/{}", c.messages, c.bytes);
    }
    for (event, n) in s.events() {
        let _ = write!(out, " ev[{event}]={n}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oceanstore_sim::{Context, DropCause, Message, NodeId, SimDuration, Topology};

    #[derive(Debug, Clone)]
    struct Tick;

    impl Message for Tick {
        type Timer = Forward;

        fn wire_size(&self) -> usize {
            8
        }
        fn class(&self) -> &'static str {
            "tick"
        }
    }

    /// The pinger's one deadline.
    #[derive(Debug)]
    struct Forward;

    /// Each node forwards to the next every 100 ms.
    #[derive(Debug, Default)]
    struct Pinger {
        seen: u64,
    }

    impl Protocol for Pinger {
        type Msg = Tick;
        fn on_start(&mut self, ctx: &mut Context<'_, Tick>) {
            ctx.set_timer(SimDuration::from_millis(100), Forward);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Tick>, _from: NodeId, _msg: Tick) {
            self.seen += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Tick>, Forward: Forward) {
            let next = NodeId((ctx.node().0 + 1) % 3);
            ctx.send(next, Tick);
            ctx.set_timer(SimDuration::from_millis(100), Forward);
        }
    }

    fn sim() -> Simulator<Pinger> {
        let topo = Topology::full_mesh(3, SimDuration::from_millis(5));
        let mut sim = Simulator::new(topo, vec![Pinger::default(), Pinger::default(), Pinger::default()], 9);
        sim.start();
        sim
    }

    #[test]
    fn schedule_applies_in_order_and_traces() {
        let mut s = sim();
        let sched = Schedule::new()
            .at(SimTime::ZERO + SimDuration::from_secs(1), FaultAction::Crash(NodeId(1)))
            .at(SimTime::ZERO + SimDuration::from_secs(2), FaultAction::Recover(NodeId(1)));
        let trace = run_schedule(&mut s, &sched, SimTime::ZERO + SimDuration::from_secs(3));
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].at_micros, 1_000_000);
        assert!(trace[0].description.contains("Crash"));
        // While node 1 was down, sends to it were dropped with NodeDown.
        assert!(s.stats().dropped_by_cause(DropCause::NodeDown) > 0);
        assert!(!s.is_down(NodeId(1)));
    }

    #[test]
    fn events_past_the_horizon_are_skipped() {
        let mut s = sim();
        let sched = Schedule::new()
            .at(SimTime::ZERO + SimDuration::from_secs(10), FaultAction::Crash(NodeId(0)));
        let trace = run_schedule(&mut s, &sched, SimTime::ZERO + SimDuration::from_secs(1));
        assert!(trace.is_empty());
        assert!(!s.is_down(NodeId(0)));
    }

    #[test]
    fn cursor_applies_each_event_once() {
        let mut s = sim();
        let sched = Schedule::new()
            .at(SimTime::ZERO + SimDuration::from_secs(1), FaultAction::Crash(NodeId(1)))
            .at(SimTime::ZERO + SimDuration::from_secs(2), FaultAction::Recover(NodeId(1)))
            .at(SimTime::ZERO + SimDuration::from_secs(3), FaultAction::Crash(NodeId(1)));
        let mut cursor = ScheduleCursor::new(sched);
        // First segment covers the crash and the recover...
        let t1 = cursor.run_to(&mut s, SimTime::ZERO + SimDuration::from_millis(2_500));
        assert_eq!(t1.len(), 2);
        assert!(!s.is_down(NodeId(1)));
        assert!(!cursor.done());
        // ...and the second segment must NOT replay them (run_schedule
        // would re-recover node 1 here); only the final crash applies.
        let t2 = cursor.run_to(&mut s, SimTime::ZERO + SimDuration::from_secs(4));
        assert_eq!(t2.len(), 1);
        assert!(s.is_down(NodeId(1)));
        assert!(cursor.done());
    }

    #[test]
    fn same_seed_same_fingerprint() {
        let sched = Schedule::new()
            .at(SimTime::ZERO + SimDuration::from_millis(500), FaultAction::DropProb(0.2))
            .at(SimTime::ZERO + SimDuration::from_secs(2), FaultAction::DropProb(0.0));
        let run = |_| {
            let mut s = sim();
            let trace = run_schedule(&mut s, &sched, SimTime::ZERO + SimDuration::from_secs(4));
            (trace, stats_fingerprint(&s))
        };
        assert_eq!(run(0), run(1));
    }
}
