//! The introspection event layer (§4.7.1, Figure 8).
//!
//! "The high event rate precludes extensive online processing. Instead, a
//! level of fast event handlers summarizes local events. These summaries
//! are stored in a local database. ... We describe all event handlers in a
//! simple domain-specific language. This language includes primitives for
//! operations like averaging and filtering, but explicitly prohibits
//! loops."
//!
//! [`Expr`] is that loop-free language: a pure expression tree over event
//! fields, evaluated in one bounded pass per event — termination and cost
//! are guaranteed by construction, which is exactly why the paper forbids
//! loops ("enabling the verification of security and resource consumption
//! restrictions placed on event handlers"). A [`Handler`] pairs a filter
//! expression with aggregation registers; results accumulate in a
//! [`SummaryDb`] that can be merged up the hierarchy.

use std::collections::BTreeMap;

/// A single observed event: a kind tag plus numeric fields.
#[derive(Debug, Clone, Default)]
pub struct Event {
    /// What happened (e.g. `"read"`, `"msg_in"`).
    pub kind: &'static str,
    /// Named measurements (e.g. `bytes`, `latency_us`).
    pub fields: BTreeMap<&'static str, f64>,
}

impl Event {
    /// Builds an event of `kind`.
    pub fn new(kind: &'static str) -> Self {
        Event { kind, fields: BTreeMap::new() }
    }

    /// Adds a field (builder style).
    pub fn with(mut self, name: &'static str, value: f64) -> Self {
        self.fields.insert(name, value);
        self
    }
}

/// Maximum expression nodes allowed in one handler — the "resource
/// consumption restriction" the DSL's design makes checkable.
pub const MAX_EXPR_NODES: usize = 256;

/// A loop-free expression over one event.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A numeric constant.
    Const(f64),
    /// The value of an event field (0.0 if absent).
    Field(&'static str),
    /// 1.0 if the event kind matches, else 0.0.
    KindIs(&'static str),
    /// Arithmetic.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division (0.0 on division by zero — handlers must not trap).
    Div(Box<Expr>, Box<Expr>),
    /// 1.0 if left > right else 0.0.
    Gt(Box<Expr>, Box<Expr>),
    /// 1.0 if left < right else 0.0.
    Lt(Box<Expr>, Box<Expr>),
    /// Logical and (nonzero = true).
    And(Box<Expr>, Box<Expr>),
    /// Logical or.
    Or(Box<Expr>, Box<Expr>),
    /// Logical not.
    Not(Box<Expr>),
}

impl Expr {
    /// Evaluates against an event. Never panics, never loops.
    pub fn eval(&self, ev: &Event) -> f64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Field(name) => ev.fields.get(name).copied().unwrap_or(0.0),
            Expr::KindIs(k) => f64::from(ev.kind == *k),
            Expr::Add(a, b) => a.eval(ev) + b.eval(ev),
            Expr::Sub(a, b) => a.eval(ev) - b.eval(ev),
            Expr::Mul(a, b) => a.eval(ev) * b.eval(ev),
            Expr::Div(a, b) => {
                let d = b.eval(ev);
                if d == 0.0 {
                    0.0
                } else {
                    a.eval(ev) / d
                }
            }
            Expr::Gt(a, b) => f64::from(a.eval(ev) > b.eval(ev)),
            Expr::Lt(a, b) => f64::from(a.eval(ev) < b.eval(ev)),
            Expr::And(a, b) => f64::from(a.eval(ev) != 0.0 && b.eval(ev) != 0.0),
            Expr::Or(a, b) => f64::from(a.eval(ev) != 0.0 || b.eval(ev) != 0.0),
            Expr::Not(a) => f64::from(a.eval(ev) == 0.0),
        }
    }

    /// Number of nodes (used to enforce [`MAX_EXPR_NODES`]).
    pub fn size(&self) -> usize {
        1 + match self {
            Expr::Const(_) | Expr::Field(_) | Expr::KindIs(_) => 0,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Gt(a, b)
            | Expr::Lt(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => a.size() + b.size(),
            Expr::Not(a) => a.size(),
        }
    }
}

/// An aggregation register.
#[derive(Debug, Clone)]
pub enum Aggregate {
    /// Count of matching events.
    Count,
    /// Running sum of an expression.
    Sum(Expr),
    /// Running mean of an expression.
    Average(Expr),
    /// Minimum seen.
    Min(Expr),
    /// Maximum seen.
    Max(Expr),
    /// Exponentially weighted moving average with the given alpha.
    Ewma {
        /// The measured expression.
        expr: Expr,
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
}

/// The running state of one aggregate.
#[derive(Debug, Clone, Copy, Default)]
struct AggState {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    ewma: f64,
}

/// A registered event handler: filter + named aggregates.
#[derive(Debug, Clone)]
pub struct Handler {
    /// Events pass when this evaluates nonzero.
    filter: Expr,
    /// Named aggregation registers.
    aggregates: Vec<(&'static str, Aggregate)>,
}

impl Handler {
    /// Creates a handler.
    ///
    /// # Panics
    ///
    /// Panics if the combined expression size exceeds [`MAX_EXPR_NODES`]
    /// (the DSL's resource bound).
    pub fn new(filter: Expr, aggregates: Vec<(&'static str, Aggregate)>) -> Self {
        let mut nodes = filter.size();
        for (_, a) in &aggregates {
            nodes += match a {
                Aggregate::Count => 0,
                Aggregate::Sum(e)
                | Aggregate::Average(e)
                | Aggregate::Min(e)
                | Aggregate::Max(e)
                | Aggregate::Ewma { expr: e, .. } => e.size(),
            };
        }
        assert!(nodes <= MAX_EXPR_NODES, "handler exceeds the {MAX_EXPR_NODES}-node bound");
        Handler { filter, aggregates }
    }
}

/// One handler's accumulated summary values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Register name → current value.
    pub values: BTreeMap<&'static str, f64>,
    /// Events that passed the filter.
    pub matched: u64,
}

/// The local soft-state observation database of Figure 8 ("at the leaves
/// of the hierarchy, this database may reside only in memory").
#[derive(Debug, Default)]
pub struct SummaryDb {
    handlers: Vec<(&'static str, Handler, Vec<AggState>)>,
}

impl SummaryDb {
    /// An empty database.
    pub fn new() -> Self {
        SummaryDb::default()
    }

    /// Registers a named handler.
    pub fn register(&mut self, name: &'static str, handler: Handler) {
        let states = vec![AggState::default(); handler.aggregates.len()];
        self.handlers.push((name, handler, states));
    }

    /// Feeds one event through every handler (the "fast event handler"
    /// path — one bounded expression evaluation per handler).
    pub fn observe(&mut self, ev: &Event) {
        for (_, handler, states) in &mut self.handlers {
            if handler.filter.eval(ev) == 0.0 {
                continue;
            }
            for ((_, agg), st) in handler.aggregates.iter().zip(states.iter_mut()) {
                match agg {
                    Aggregate::Count => {}
                    Aggregate::Sum(e) | Aggregate::Average(e) => st.sum += e.eval(ev),
                    Aggregate::Min(e) => {
                        let v = e.eval(ev);
                        st.min = if st.count == 0 { v } else { st.min.min(v) };
                    }
                    Aggregate::Max(e) => {
                        let v = e.eval(ev);
                        st.max = if st.count == 0 { v } else { st.max.max(v) };
                    }
                    Aggregate::Ewma { expr, alpha } => {
                        let v = expr.eval(ev);
                        st.ewma = if st.count == 0 { v } else { alpha * v + (1.0 - alpha) * st.ewma };
                    }
                }
                st.count += 1;
            }
        }
    }

    /// Extracts the current summary of a named handler.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        let (_, handler, states) = self.handlers.iter().find(|(n, _, _)| *n == name)?;
        let mut values = BTreeMap::new();
        let mut matched = 0;
        for ((reg, agg), st) in handler.aggregates.iter().zip(states) {
            matched = matched.max(st.count);
            let v = match agg {
                Aggregate::Count => st.count as f64,
                Aggregate::Sum(_) => st.sum,
                Aggregate::Average(_) => {
                    if st.count == 0 {
                        0.0
                    } else {
                        st.sum / st.count as f64
                    }
                }
                Aggregate::Min(_) => st.min,
                Aggregate::Max(_) => st.max,
                Aggregate::Ewma { .. } => st.ewma,
            };
            values.insert(*reg, v);
        }
        Some(Summary { values, matched })
    }
}

/// Merges a child's summary into a parent-level roll-up ("forwards an
/// appropriate summary of its knowledge to a parent node for further
/// processing on the wider scale"). Counts and sums add; averages combine
/// weighted by match counts; min/max take extrema.
#[derive(Debug, Clone, Default)]
pub struct RollUp {
    /// Combined register values.
    pub values: BTreeMap<&'static str, f64>,
    /// Total matched events across children.
    pub matched: u64,
    children: u64,
}

impl RollUp {
    /// An empty roll-up.
    pub fn new() -> Self {
        RollUp::default()
    }

    /// Number of child summaries merged.
    pub fn children(&self) -> u64 {
        self.children
    }

    /// Merges one child summary, treating every register additively except
    /// that the caller may re-derive averages from sums upstream. (The
    /// hierarchy trades exactness for bounded size, like the paper's
    /// "approximate global views".)
    pub fn merge(&mut self, child: &Summary) {
        for (k, v) in &child.values {
            *self.values.entry(k).or_insert(0.0) += v;
        }
        self.matched += child.matched;
        self.children += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_event(bytes: f64, latency: f64) -> Event {
        Event::new("read").with("bytes", bytes).with("latency", latency)
    }

    #[test]
    fn expr_arithmetic_and_logic() {
        let ev = read_event(100.0, 5.0);
        let e = Expr::Add(
            Box::new(Expr::Field("bytes")),
            Box::new(Expr::Mul(Box::new(Expr::Field("latency")), Box::new(Expr::Const(2.0)))),
        );
        assert_eq!(e.eval(&ev), 110.0);
        let cond = Expr::And(
            Box::new(Expr::KindIs("read")),
            Box::new(Expr::Gt(Box::new(Expr::Field("bytes")), Box::new(Expr::Const(50.0)))),
        );
        assert_eq!(cond.eval(&ev), 1.0);
        assert_eq!(Expr::Not(Box::new(cond)).eval(&ev), 0.0);
    }

    #[test]
    fn division_by_zero_is_total() {
        let ev = Event::new("x");
        let e = Expr::Div(Box::new(Expr::Const(1.0)), Box::new(Expr::Field("absent")));
        assert_eq!(e.eval(&ev), 0.0);
    }

    #[test]
    fn missing_field_is_zero() {
        let ev = Event::new("x");
        assert_eq!(Expr::Field("nope").eval(&ev), 0.0);
    }

    #[test]
    fn handler_counts_and_averages() {
        let mut db = SummaryDb::new();
        db.register(
            "reads",
            Handler::new(
                Expr::KindIs("read"),
                vec![
                    ("count", Aggregate::Count),
                    ("avg_bytes", Aggregate::Average(Expr::Field("bytes"))),
                    ("max_latency", Aggregate::Max(Expr::Field("latency"))),
                ],
            ),
        );
        db.observe(&read_event(100.0, 5.0));
        db.observe(&read_event(300.0, 2.0));
        db.observe(&Event::new("write").with("bytes", 999.0)); // filtered out
        let s = db.summary("reads").unwrap();
        assert_eq!(s.values["count"], 2.0);
        assert_eq!(s.values["avg_bytes"], 200.0);
        assert_eq!(s.values["max_latency"], 5.0);
        assert_eq!(s.matched, 2);
    }

    #[test]
    fn ewma_tracks_recent_values() {
        let mut db = SummaryDb::new();
        db.register(
            "load",
            Handler::new(
                Expr::Const(1.0),
                vec![("rate", Aggregate::Ewma { expr: Expr::Field("v"), alpha: 0.5 })],
            ),
        );
        for v in [0.0, 0.0, 8.0, 8.0] {
            db.observe(&Event::new("tick").with("v", v));
        }
        let s = db.summary("load").unwrap();
        // 0 → 0 → 4 → 6.
        assert_eq!(s.values["rate"], 6.0);
    }

    #[test]
    fn rollup_merges_children() {
        let mut a = Summary::default();
        a.values.insert("count", 3.0);
        a.matched = 3;
        let mut b = Summary::default();
        b.values.insert("count", 5.0);
        b.matched = 5;
        let mut up = RollUp::new();
        up.merge(&a);
        up.merge(&b);
        assert_eq!(up.values["count"], 8.0);
        assert_eq!(up.matched, 8);
        assert_eq!(up.children(), 2);
    }

    #[test]
    #[should_panic(expected = "node bound")]
    fn resource_bound_enforced() {
        // Build an expression beyond the node cap.
        let mut e = Expr::Const(1.0);
        for _ in 0..MAX_EXPR_NODES {
            e = Expr::Add(Box::new(e), Box::new(Expr::Const(1.0)));
        }
        let _ = Handler::new(e, vec![]);
    }

    #[test]
    fn expr_size_counts_nodes() {
        let e = Expr::Add(Box::new(Expr::Const(1.0)), Box::new(Expr::Field("x")));
        assert_eq!(e.size(), 3);
    }
}
