//! The window commit: a loser-tree merge of the per-domain dispatch records
//! that replays every emission in global order and hands out the real seqs.

use std::cmp::Reverse;

use super::window::{DeliveryBody, DispatchRecord, Emission, PROVISIONAL};
use super::{Protocol, Simulator};
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;

/// Reusable state of one commit: per-domain record cursors, the loser tree
/// and its external keys, and the provisional→real seq tables.
#[derive(Default)]
pub(super) struct MergeScratch {
    /// Next unmerged record index per domain.
    heads: Vec<usize>,
    /// Resolved `(at, seq)` merge key of each domain's head record;
    /// `None` = run exhausted.
    keys: Vec<Option<(u64, u64)>>,
    tree: LoserTree,
    /// `real_of[d][k]` = real seq of domain d's k-th executed emission.
    real_of: Vec<Vec<u64>>,
}

/// Tournament loser tree over `k` sorted runs, keyed externally through a
/// `keys` slice (`None` = exhausted = +infinity; live keys never tie, since
/// seqs are unique — the leaf index breaks `None` ties determinstically).
/// Slot 0 holds the overall winner and internal slots `1..k` hold match
/// losers, with leaf `d` conceptually at heap slot `k + d`. After the
/// winner's run advances, only its leaf-to-root path replays: `O(log k)`
/// comparisons per pop instead of an `O(k)` head scan per record.
#[derive(Default)]
struct LoserTree {
    node: Vec<u32>,
    k: usize,
}

/// Whether leaf `a`'s key beats (merges before) leaf `b`'s.
fn leaf_beats(keys: &[Option<(u64, u64)>], a: usize, b: usize) -> bool {
    match (&keys[a], &keys[b]) {
        (Some(x), Some(y)) => (x, a) < (y, b),
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => a < b,
    }
}

impl LoserTree {
    /// Rebuilds the tournament bottom-up for `k` runs. Heap-shaped with
    /// leaves at slots `k..2k`, which is well-formed for any `k`, not just
    /// powers of two.
    fn rebuild(&mut self, k: usize, keys: &[Option<(u64, u64)>]) {
        self.k = k;
        self.node.clear();
        if k == 1 {
            self.node.push(0);
            return;
        }
        let mut winner = vec![0u32; 2 * k];
        for d in 0..k {
            winner[k + d] = d as u32;
        }
        self.node.resize(k, 0);
        for i in (1..k).rev() {
            let (a, b) = (winner[2 * i], winner[2 * i + 1]);
            let (w, l) =
                if leaf_beats(keys, a as usize, b as usize) { (a, b) } else { (b, a) };
            winner[i] = w;
            self.node[i] = l;
        }
        self.node[0] = winner[1];
    }

    /// The leaf holding the smallest key.
    fn winner(&self) -> usize {
        self.node[0] as usize
    }

    /// Replays the matches along leaf `d`'s path after its key changed.
    fn replay(&mut self, d: usize, keys: &[Option<(u64, u64)>]) {
        if self.k == 1 {
            return;
        }
        let mut w = d as u32;
        let mut i = (self.k + d) / 2;
        while i >= 1 {
            let l = self.node[i];
            if leaf_beats(keys, l as usize, w as usize) {
                self.node[i] = w;
                w = l;
            }
            i /= 2;
        }
        self.node[0] = w;
    }
}

/// The resolved `(at, seq)` merge key of `records[head]`, `None` when the
/// run is exhausted. A provisional seq resolves through `real_of`: its
/// emitter's record sits strictly earlier in the same run (the emitter
/// dispatched first and logged at least that emission), so by the time a
/// record becomes its run's head, its entry exists.
fn head_key(records: &[DispatchRecord], head: usize, real_of: &[u64]) -> Option<(u64, u64)> {
    let r = records.get(head)?;
    let seq =
        if r.seq & PROVISIONAL != 0 { real_of[(r.seq ^ PROVISIONAL) as usize] } else { r.seq };
    Some((r.at, seq))
}

impl<P: Protocol> Simulator<P> {
    /// The window commit: replays every domain's emission log in exact
    /// global dispatch order, assigning real seqs and enqueueing surviving
    /// (cross-domain or post-window) events into their target domains. All
    /// commutative accounting — bytes, classes, drop tallies, counter
    /// events — already happened at dispatch, so the serial section here
    /// replays only the ordering-sensitive emissions.
    ///
    /// Dispatch records merge by the dispatched event's real `(at, seq)`
    /// key. A record whose key is provisional was emitted *this* window by
    /// its own domain, and its emitter's record sits earlier in the same
    /// domain's list — so by the time it reaches the merge head, its real
    /// seq is already known. Each domain's record list is already sorted
    /// (domains execute in local `(at, seq)` order), so the merge is a
    /// loser-tree tournament over the per-domain runs: `O(log D)` per
    /// record, with all scratch reused window to window. This reconstructs
    /// the one global emission order, which is what makes every thread
    /// count bit-identical.
    pub(super) fn commit_window(&mut self) {
        let part = &mut self.part;
        let count = part.domains.len();
        let scratch = &mut part.merge;
        scratch.heads.clear();
        scratch.heads.resize(count, 0);
        scratch.real_of.resize_with(count, Vec::new);
        for (d, v) in scratch.real_of.iter_mut().enumerate() {
            v.clear();
            v.reserve(part.domains[d].provisional as usize);
        }
        scratch.keys.clear();
        for d in 0..count {
            scratch.keys.push(head_key(&part.domains[d].records, 0, &scratch.real_of[d]));
        }
        scratch.tree.rebuild(count, &scratch.keys);
        loop {
            let d = scratch.tree.winner();
            if scratch.keys[d].is_none() {
                break;
            }
            let r = part.domains[d].records[scratch.heads[d]];
            scratch.heads[d] += 1;
            let from = NodeId(r.node as usize);
            for i in r.emi as usize..(r.emi + r.emi_len) as usize {
                let seq = self.seq;
                self.seq += 1;
                // Taken by value, so the borrow of this domain's log ends
                // before a cross-domain park.
                match std::mem::replace(&mut part.domains[d].emissions[i], Emission::Exec) {
                    Emission::Exec => scratch.real_of[d].push(seq),
                    Emission::Park { to, at, body } => {
                        let td = part.of_node[to.0] as usize;
                        part.domains[td].push_with_seq(at, seq, DeliveryBody { from, to, msg: body });
                    }
                    Emission::ArmTimer { at, tag } => {
                        part.domains[d].timers.push(Reverse((at, seq, r.node as usize, tag)));
                    }
                }
            }
            // Only this leaf's key can have changed: `real_of` entries for
            // other domains are appended exclusively by their own records.
            scratch.keys[d] =
                head_key(&part.domains[d].records, scratch.heads[d], &scratch.real_of[d]);
            scratch.tree.replay(d, &scratch.keys);
        }
        debug_assert!(self.seq < PROVISIONAL);
        for (d, dom) in part.domains.iter_mut().enumerate() {
            debug_assert_eq!(scratch.heads[d], dom.records.len(), "every record merged");
            debug_assert_eq!(
                dom.records.iter().map(|r| r.emi_len as usize).sum::<usize>(),
                dom.emissions.len(),
                "every emission replayed"
            );
            dom.records.clear();
            dom.emissions.clear();
            self.events_processed += dom.events_processed;
            dom.events_processed = 0;
            dom.provisional = 0;
            self.clock = self.clock.max(SimTime::ZERO + SimDuration::from_micros(dom.now));
        }
    }
}
