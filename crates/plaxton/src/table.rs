//! Plaxton routing tables (§4.3.3, Figure 3).
//!
//! Every server holds a table of neighbor links organised by level: the
//! level-`l` entries point at the 16 "closest" nodes whose GUIDs match this
//! node's lowest `l` nibbles and differ in the `l`-th nibble — one entry
//! per possible digit value, one of which is always a loopback. Routing to
//! a GUID resolves one digit per hop; when the exact digit has no node in
//! the network, deterministic *surrogate* selection (scan upward through
//! digit values) keeps routing well-defined and, with consistent tables,
//! still yields a unique root per GUID.

use oceanstore_naming::guid::{Guid, NIBBLES};
use oceanstore_sim::NodeId;

/// Number of digit values per level (hex digits).
pub const FANOUT: usize = 16;

/// One routing-table entry: a neighbor and its GUID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Transport address of the neighbor.
    pub node: NodeId,
    /// The neighbor's server GUID.
    pub guid: Guid,
}

/// Where a routing step should go next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteStep {
    /// Forward to this node, which resolves digits up through `level`.
    Forward {
        /// Next hop.
        next: NodeId,
        /// The level the next hop will route at.
        level: usize,
    },
    /// The current node is the target's root (surrogate): no other node
    /// resolves any further digit.
    Root,
}

/// A per-node Plaxton routing table.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    guid: Guid,
    levels: Vec<[Option<Entry>; FANOUT]>,
}

impl RoutingTable {
    /// Creates an empty table for a node with the given GUID, with
    /// `levels` digit levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero or exceeds the GUID nibble count.
    pub fn new(guid: Guid, levels: usize) -> Self {
        assert!(levels > 0 && levels <= NIBBLES, "levels out of range");
        RoutingTable { guid, levels: vec![[None; FANOUT]; levels] }
    }

    /// The owning node's GUID.
    pub fn guid(&self) -> &Guid {
        &self.guid
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// The entry at `(level, digit)`.
    pub fn entry(&self, level: usize, digit: u8) -> Option<Entry> {
        self.levels.get(level).and_then(|row| row[digit as usize])
    }

    /// Installs `entry` at `(level, digit)` if the slot is empty or if
    /// `closer` says the new entry improves on the incumbent. Returns
    /// whether the entry was installed.
    ///
    /// `closer(a, b)` returns true when `a` is strictly closer than `b` in
    /// the underlying network.
    pub fn consider(
        &mut self,
        level: usize,
        entry: Entry,
        mut closer: impl FnMut(NodeId, NodeId) -> bool,
    ) -> bool {
        let digit = entry.guid.nibble(level) as usize;
        let slot = &mut self.levels[level][digit];
        match slot {
            None => {
                *slot = Some(entry);
                true
            }
            Some(cur) if cur.node == entry.node => false,
            Some(cur) => {
                if closer(entry.node, cur.node) {
                    *slot = Some(entry);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Whether `candidate` is eligible for this table's level `level`:
    /// its GUID must share this node's lowest `level` nibbles.
    pub fn eligible(&self, level: usize, candidate: &Guid) -> bool {
        self.guid.low_nibble_match_len(candidate) >= level
    }

    /// Removes every entry pointing at `node` (e.g. after failure
    /// detection). Returns how many slots were vacated.
    pub fn evict(&mut self, node: NodeId) -> usize {
        let mut removed = 0;
        for row in &mut self.levels {
            for slot in row.iter_mut() {
                if slot.map(|e| e.node) == Some(node) {
                    *slot = None;
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Iterates over all `(level, digit, entry)` triples present.
    pub fn entries(&self) -> impl Iterator<Item = (usize, u8, Entry)> + '_ {
        self.levels.iter().enumerate().flat_map(|(l, row)| {
            row.iter()
                .enumerate()
                .filter_map(move |(d, e)| e.map(|e| (l, d as u8, e)))
        })
    }

    /// One full row of the table (shared with joining nodes).
    pub fn row(&self, level: usize) -> &[Option<Entry>; FANOUT] {
        &self.levels[level]
    }

    /// One routing step toward `target` from digit level `level`.
    ///
    /// The surrogate rule: at the current level, try the exact digit of the
    /// target; if that slot is empty, scan upward through digit values
    /// (wrapping) until a filled slot is found. If the chosen entry is this
    /// node itself (the loopback), the digit resolves locally and routing
    /// proceeds at the next level without leaving the node. If the scan
    /// finds nothing at all — possible only in a sparse, still-healing
    /// table — the node declares itself root.
    ///
    /// A dead peer is already gone from the table (unanswered beacons or a
    /// missed hop ack, §4.3.3 "optimized failure modes"), so routing reads
    /// the table alone. `skip` names one entry to pass over: the join path
    /// skips the joiner itself.
    pub fn route_step(
        &self,
        me: NodeId,
        target: &Guid,
        mut level: usize,
        skip: Option<NodeId>,
    ) -> RouteStep {
        while level < self.levels.len() {
            let want = target.nibble(level) as usize;
            let mut chosen: Option<Entry> = None;
            for off in 0..FANOUT {
                let d = (want + off) % FANOUT;
                if let Some(e) = self.levels[level][d] {
                    if skip != Some(e.node) {
                        chosen = Some(e);
                        break;
                    }
                }
            }
            match chosen {
                Some(e) if e.node == me => {
                    // Digit resolves to ourselves; continue at next level.
                    level += 1;
                }
                Some(e) => return RouteStep::Forward { next: e.node, level: level + 1 },
                None => return RouteStep::Root,
            }
        }
        RouteStep::Root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guid_with_low_nibbles(nibbles: &[u8]) -> Guid {
        // Construct a GUID whose least-significant nibbles are as given.
        let mut bytes = [0u8; 20];
        for (i, &n) in nibbles.iter().enumerate() {
            let byte = &mut bytes[19 - i / 2];
            if i % 2 == 0 {
                *byte |= n & 0x0f;
            } else {
                *byte |= (n & 0x0f) << 4;
            }
        }
        Guid::from_bytes(bytes)
    }

    fn entry(node: usize, nibbles: &[u8]) -> Entry {
        Entry { node: NodeId(node), guid: guid_with_low_nibbles(nibbles) }
    }

    #[test]
    fn consider_fills_and_improves() {
        let me = guid_with_low_nibbles(&[0x1, 0x2]);
        let mut t = RoutingTable::new(me, 4);
        // Two candidates for (level 0, digit 7); node 5 is closer.
        assert!(t.consider(0, entry(9, &[0x7]), |_, _| false));
        assert!(!t.consider(0, entry(5, &[0x7]), |_, _| false), "not closer: rejected");
        assert!(t.consider(0, entry(5, &[0x7]), |a, _| a == NodeId(5)));
        assert_eq!(t.entry(0, 7).unwrap().node, NodeId(5));
    }

    #[test]
    fn eligibility_requires_prefix_match() {
        let me = guid_with_low_nibbles(&[0x3, 0xA]);
        let t = RoutingTable::new(me, 4);
        // Level-1 entries must share the lowest nibble (0x3).
        assert!(t.eligible(1, &guid_with_low_nibbles(&[0x3, 0x7])));
        assert!(!t.eligible(1, &guid_with_low_nibbles(&[0x4, 0xA])));
        // Level 0: everyone is eligible.
        assert!(t.eligible(0, &guid_with_low_nibbles(&[0xF])));
    }

    #[test]
    fn route_step_exact_digit() {
        let me = guid_with_low_nibbles(&[0x1]);
        let mut t = RoutingTable::new(me, 4);
        t.consider(0, entry(2, &[0x7]), |_, _| false);
        let target = guid_with_low_nibbles(&[0x7]);
        assert_eq!(
            t.route_step(NodeId(0), &target, 0, None),
            RouteStep::Forward { next: NodeId(2), level: 1 }
        );
    }

    #[test]
    fn route_step_surrogate_scans_upward() {
        let me = guid_with_low_nibbles(&[0x1]);
        let mut t = RoutingTable::new(me, 4);
        // Only digit 0x9 is populated; target digit 0x7 → surrogate 0x9.
        t.consider(0, entry(2, &[0x9]), |_, _| false);
        let target = guid_with_low_nibbles(&[0x7]);
        assert_eq!(
            t.route_step(NodeId(0), &target, 0, None),
            RouteStep::Forward { next: NodeId(2), level: 1 }
        );
    }

    #[test]
    fn route_step_loopback_advances_level() {
        let my_guid = guid_with_low_nibbles(&[0x7, 0x3]);
        let mut t = RoutingTable::new(my_guid, 4);
        // Loopback at level 0 digit 7, a real neighbor at level 1 digit 5.
        t.consider(0, Entry { node: NodeId(0), guid: my_guid }, |_, _| false);
        t.consider(1, entry(4, &[0x7, 0x5]), |_, _| false);
        // Target has digit 7 at level 0 (resolved locally) and 5 at level 1.
        let target = guid_with_low_nibbles(&[0x7, 0x5]);
        assert_eq!(
            t.route_step(NodeId(0), &target, 0, None),
            RouteStep::Forward { next: NodeId(4), level: 2 }
        );
    }

    #[test]
    fn route_step_empty_table_is_root() {
        let me = guid_with_low_nibbles(&[0x1]);
        let t = RoutingTable::new(me, 4);
        let target = guid_with_low_nibbles(&[0x7]);
        assert_eq!(t.route_step(NodeId(0), &target, 0, None), RouteStep::Root);
    }

    #[test]
    fn route_step_skips_dead_entries() {
        let me = guid_with_low_nibbles(&[0x1]);
        let mut t = RoutingTable::new(me, 4);
        t.consider(0, entry(2, &[0x7]), |_, _| false);
        t.consider(0, entry(3, &[0x8]), |_, _| false);
        let target = guid_with_low_nibbles(&[0x7]);
        // Node 2 is skipped: surrogate scan falls through to node 3.
        assert_eq!(
            t.route_step(NodeId(0), &target, 0, Some(NodeId(2))),
            RouteStep::Forward { next: NodeId(3), level: 1 }
        );
    }

    #[test]
    fn evict_clears_all_slots() {
        let me = guid_with_low_nibbles(&[0x1]);
        let mut t = RoutingTable::new(me, 4);
        t.consider(0, entry(2, &[0x7]), |_, _| false);
        t.consider(1, entry(2, &[0x1, 0x4]), |_, _| false);
        t.consider(0, entry(3, &[0x8]), |_, _| false);
        assert_eq!(t.evict(NodeId(2)), 2);
        assert_eq!(t.entries().count(), 1);
    }
}
