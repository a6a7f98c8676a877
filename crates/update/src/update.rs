//! The update model (§4.4.1): predicate/action lists evaluated by
//! replicas over ciphertext.
//!
//! "Changes to data objects within OceanStore are made by client-generated
//! updates, which are lists of predicates associated with actions. ... a
//! replica evaluates each of the update's predicates in order. If any of
//! the predicates evaluates to true, the actions associated with the
//! earliest true predicate are atomically applied ... and the update is
//! said to commit. Otherwise, no changes are applied, and the update is
//! said to abort. The update itself is logged regardless."
//!
//! All predicates/actions are exactly those §4.4.2 shows computable over
//! ciphertext: compare-version, compare-size, compare-block, search;
//! replace-block, insert-block (via index blocks), delete-block, append.
//!
//! An update is generic over what carries its ciphertexts. A client builds
//! an [`Update`] of owned `Vec<u8>`s; a server decodes an `Update<Bytes>`
//! whose ciphertexts are views of the buffer the encoding arrived in
//! ([`crate::codec::decode_view`]). One [`apply_placing`] applies either,
//! and every block it stores is a [`Bytes`].

use std::sync::Arc;

use oceanstore_crypto::swp::{EncryptedIndex, Trapdoor};
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;

use crate::object::{Block, DataObject};

/// A predicate a replica can evaluate without cleartext access.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Always true (used for unconditional writes).
    True,
    /// Object is at exactly this version (§4.4.2: "trivial ... over the
    /// unencrypted meta-data").
    CompareVersion(u64),
    /// Object's stored size equals this many bytes.
    CompareSize(usize),
    /// The ciphertext block at logical position `position` is named `cid`
    /// ("the client simply computes a hash of the encrypted block and
    /// submits it along with the block number"): the block's one name, the
    /// content id the blob store files it under.
    CompareBlock {
        /// Logical block position.
        position: usize,
        /// [`Guid::for_content`] of the expected ciphertext.
        cid: Guid,
    },
    /// The encrypted search index matches this trapdoor (Song–Wagner–
    /// Perrig search on ciphertext \[47\]).
    Search(Trapdoor),
    /// Negation of `Search` (lets clients express "insert only if not
    /// already present").
    SearchAbsent(Trapdoor),
}

/// An action applied to ciphertext, carried as `C`.
#[derive(Debug, Clone)]
pub enum Action<C = Vec<u8>> {
    /// Overwrite the slot at a logical position with new ciphertext.
    ReplaceBlock {
        /// Logical block position.
        position: usize,
        /// Replacement ciphertext.
        ciphertext: C,
    },
    /// Append a ciphertext block at the end of the object.
    Append {
        /// New block ciphertext.
        ciphertext: C,
    },
    /// Replace the slot at a logical position with an index block
    /// (the insert-block machinery of Figure 4).
    ReplaceWithIndex {
        /// Logical block position.
        position: usize,
        /// Slot numbers the index block points at. Slots appended by
        /// earlier [`Action::Append`]s in the same update may be referenced
        /// by their final slot numbers.
        pointers: Vec<usize>,
    },
    /// Replace the slot at a logical position with an empty pointer block
    /// ("to delete, one replaces the block in question with an empty
    /// pointer block").
    DeleteBlock {
        /// Logical block position.
        position: usize,
    },
    /// Install a new encrypted search index for the object.
    SetSearchIndex(EncryptedIndex),
}

impl<C> Action<C> {
    /// The block ciphertext this action stores, if it stores one.
    pub fn ciphertext(&self) -> Option<&C> {
        match self {
            Action::ReplaceBlock { ciphertext, .. } | Action::Append { ciphertext } => {
                Some(ciphertext)
            }
            _ => None,
        }
    }
}

/// One guarded clause: if `predicate` holds, apply `actions`.
#[derive(Debug, Clone)]
pub struct Clause<C = Vec<u8>> {
    /// The guard.
    pub predicate: Predicate,
    /// Actions applied atomically if this is the earliest true guard.
    pub actions: Vec<Action<C>>,
}

/// A client-generated update, its ciphertexts carried as `C`: owned by the
/// client that built it, views of a received buffer on a server.
#[derive(Debug, Clone)]
pub struct Update<C = Vec<u8>> {
    /// Guarded clauses, evaluated in order.
    pub clauses: Vec<Clause<C>>,
}

/// `Default`, `unconditional` and `with_clause` serve the client, so they
/// make the client's form.
impl Default for Update {
    fn default() -> Self {
        Update { clauses: Vec::new() }
    }
}

impl Update {
    /// An update with a single unconditional clause.
    pub fn unconditional(actions: Vec<Action>) -> Self {
        Update { clauses: vec![Clause { predicate: Predicate::True, actions }] }
    }

    /// Builder-style: adds a clause.
    pub fn with_clause(mut self, predicate: Predicate, actions: Vec<Action>) -> Self {
        self.clauses.push(Clause { predicate, actions });
        self
    }
}

impl<C: AsRef<[u8]>> Update<C> {
    /// Wire size charged when the update travels through consensus or the
    /// dissemination tree.
    pub fn wire_size(&self) -> usize {
        let mut total = 16;
        for c in &self.clauses {
            total += 16; // clause framing
            total += match &c.predicate {
                Predicate::True => 1,
                Predicate::CompareVersion(_) => 9,
                Predicate::CompareSize(_) => 9,
                Predicate::CompareBlock { .. } => 8 + Guid::WIRE_SIZE,
                Predicate::Search(_) | Predicate::SearchAbsent(_) => Trapdoor::WIRE_SIZE + 1,
            };
            for a in &c.actions {
                total += match a {
                    Action::ReplaceBlock { ciphertext, .. } => 16 + ciphertext.as_ref().len(),
                    Action::Append { ciphertext } => 8 + ciphertext.as_ref().len(),
                    Action::ReplaceWithIndex { pointers, .. } => 16 + 8 * pointers.len(),
                    Action::DeleteBlock { .. } => 9,
                    Action::SetSearchIndex(ix) => ix.wire_size(),
                };
            }
        }
        total
    }
}

/// Why an update aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// Every predicate evaluated false.
    NoPredicateHeld,
    /// A chosen action referenced a nonexistent block position.
    BadPosition,
}

/// The result of applying an update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The update committed, creating this version number.
    Committed {
        /// The new version number.
        version: u64,
    },
    /// The update aborted; the object is unchanged.
    Aborted(AbortReason),
}

impl Outcome {
    /// Whether the update committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, Outcome::Committed { .. })
    }
}

/// Evaluates `predicate` against the current version of `object`.
pub fn evaluate(object: &DataObject, predicate: &Predicate) -> bool {
    let v = object.current();
    match predicate {
        Predicate::True => true,
        Predicate::CompareVersion(n) => v.number == *n,
        Predicate::CompareSize(s) => v.stored_size() == *s,
        Predicate::CompareBlock { position, cid } => {
            let order = v.logical_order();
            let Some(&slot) = order.get(*position) else { return false };
            match &v.blocks[slot] {
                Block::Data(bytes) => Guid::for_view(bytes) == *cid,
                Block::Index(_) => false,
            }
        }
        Predicate::Search(t) => v.search_index.search(t),
        Predicate::SearchAbsent(t) => !v.search_index.search(t),
    }
}

/// Applies `update` to `object`, per the §4.4.1 semantics. Deterministic:
/// replicas applying the same update sequence converge bit-for-bit.
///
/// Borrowing form of [`apply_owned`]: it clones the update first — for a
/// client's `Update` that copies every ciphertext, for a decoded one only
/// views — so a caller that owns its update should hand it over instead.
pub fn apply<C: Clone + Into<Bytes>>(object: &mut DataObject, update: &Update<C>) -> Outcome {
    apply_owned(object, update.clone())
}

/// [`apply`] for a caller that is done with `update`: the ciphertext of
/// every committed block moves into the object instead of being copied.
pub fn apply_owned<C: Into<Bytes>>(object: &mut DataObject, update: Update<C>) -> Outcome {
    apply_placing(object, update, |_, _, _| {})
}

/// [`apply_owned`] that reports every slot it writes, in the order written:
/// `written(Some(k), slot, displaced)` when the slot receives the `k`-th
/// ciphertext of the update's encoding order — the order of
/// [`crate::update_digest`]'s CIDs — and `written(None, slot, displaced)`
/// when it receives an index block or a tombstone. `displaced` is the
/// block the write replaced, `None` for an append. A slot written twice is
/// reported twice; the later call says what it holds, and the first what
/// it held before the update. An aborted update writes nothing.
///
/// Each stored ciphertext becomes its block as is: a client's `Vec<u8>` is
/// wrapped, a decoded view is kept, and neither is copied.
pub fn apply_placing<C: Into<Bytes>>(
    object: &mut DataObject,
    update: Update<C>,
    mut written: impl FnMut(Option<usize>, usize, Option<&Block>),
) -> Outcome {
    // The chosen clause's first ciphertext is preceded, in encoding order,
    // by every ciphertext of the clauses skipped before it.
    let mut k = 0;
    let chosen = update.clauses.into_iter().find(|c| {
        let holds = evaluate(object, &c.predicate);
        if !holds {
            let stores = |a: &&Action<C>| {
                matches!(a, Action::ReplaceBlock { .. } | Action::Append { .. })
            };
            k += c.actions.iter().filter(stores).count();
        }
        holds
    });
    let Some(clause) = chosen else {
        return Outcome::Aborted(AbortReason::NoPredicateHeld);
    };
    // Validate before touching anything, so an abort leaves the object as
    // it was: resolve every logical position to its slot and bound every
    // index pointer. Logical positions refer to the object state at the
    // *start* of the update; appended slots are addressed by slot number.
    let cur = object.current();
    let appends = clause.actions.iter().filter(|a| matches!(a, Action::Append { .. })).count();
    let mut len = cur.blocks.len();
    let mut order = None; // an append-only update never needs it
    let mut slots = Vec::new();
    for action in &clause.actions {
        let position = match action {
            Action::Append { .. } => {
                len += 1;
                continue;
            }
            Action::SetSearchIndex(_) => continue,
            Action::ReplaceBlock { position, .. } | Action::DeleteBlock { position } => *position,
            Action::ReplaceWithIndex { position, pointers } => {
                // Forward references may reach slots this update's appends
                // have yet to create; the bound counts every append of the
                // clause on top of the slots so far.
                if pointers.iter().any(|&p| p >= len + appends) {
                    return Outcome::Aborted(AbortReason::BadPosition);
                }
                *position
            }
        };
        let Some(&slot) = order.get_or_insert_with(|| cur.logical_order()).get(position) else {
            return Outcome::Aborted(AbortReason::BadPosition);
        };
        slots.push(slot);
    }
    let mut slots = slots.into_iter();
    let mut slot = || slots.next().expect("validation resolved one slot per positional action");
    let mut appended = cur.blocks.len();
    // Reports `slot` written, with the next ciphertext ordinal if it
    // received a ciphertext, and what it held.
    let mut report = |ciphertext: bool, slot: usize, displaced: Option<&Block>| {
        written(ciphertext.then_some(k), slot, displaced);
        k += usize::from(ciphertext);
    };
    let version = object.commit(|next| {
        for action in clause.actions {
            match action {
                Action::ReplaceBlock { ciphertext, .. } => {
                    let at = slot();
                    report(true, at, Some(next.get(at)));
                    next.set(at, Block::Data(ciphertext.into()));
                }
                Action::Append { ciphertext } => {
                    report(true, appended, None);
                    appended += 1;
                    next.push(Block::Data(ciphertext.into()));
                }
                Action::ReplaceWithIndex { pointers, .. } => {
                    let at = slot();
                    report(false, at, Some(next.get(at)));
                    next.set(at, Block::Index(pointers));
                }
                Action::DeleteBlock { .. } => {
                    let at = slot();
                    report(false, at, Some(next.get(at)));
                    next.set(at, Block::Index(Vec::new()));
                }
                Action::SetSearchIndex(ix) => next.set_search_index(Arc::new(ix)),
            }
        }
    });
    Outcome::Committed { version }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ct(tag: u8) -> Vec<u8> {
        vec![tag; 8]
    }

    fn fresh_with_blocks(tags: &[u8]) -> DataObject {
        let mut o = DataObject::new();
        let actions = tags.iter().map(|&t| Action::Append { ciphertext: ct(t) }).collect();
        assert!(apply(&mut o, &Update::unconditional(actions)).is_committed());
        o
    }

    #[test]
    fn unconditional_append_commits() {
        let mut o = DataObject::new();
        let out = apply(&mut o, &Update::unconditional(vec![Action::Append { ciphertext: ct(1) }]));
        assert_eq!(out, Outcome::Committed { version: 1 });
        assert_eq!(o.current().slot_count(), 1);
    }

    #[test]
    fn all_false_predicates_abort() {
        let mut o = fresh_with_blocks(&[1]);
        let u = Update::default().with_clause(
            Predicate::CompareVersion(99),
            vec![Action::Append { ciphertext: ct(2) }],
        );
        let out = apply(&mut o, &u);
        assert_eq!(out, Outcome::Aborted(AbortReason::NoPredicateHeld));
        assert_eq!(o.version_number(), 1, "object unchanged");
    }

    #[test]
    fn earliest_true_clause_wins() {
        let mut o = fresh_with_blocks(&[1]);
        let u = Update::default()
            .with_clause(Predicate::CompareVersion(0), vec![Action::Append { ciphertext: ct(9) }])
            .with_clause(Predicate::CompareVersion(1), vec![Action::Append { ciphertext: ct(2) }])
            .with_clause(Predicate::True, vec![Action::Append { ciphertext: ct(3) }]);
        assert!(apply(&mut o, &u).is_committed());
        // Only the version-1 clause ran: exactly one new block with tag 2.
        let v = o.current();
        let order = v.logical_order();
        assert_eq!(order.len(), 2);
        match &v.blocks[order[1]] {
            Block::Data(d) => assert_eq!(d.as_slice(), ct(2)),
            _ => panic!("expected data"),
        }
    }

    #[test]
    fn compare_block_gates_replacement() {
        // Optimistic concurrency on one block: replace block 0 only if its
        // ciphertext is unchanged.
        let mut o = fresh_with_blocks(&[7, 8]);
        let expected_cid = Guid::for_content(&ct(7));
        let u = Update::default().with_clause(
            Predicate::CompareBlock { position: 0, cid: expected_cid },
            vec![Action::ReplaceBlock { position: 0, ciphertext: ct(9) }],
        );
        assert!(apply(&mut o, &u).is_committed());
        // Now the same update aborts: block 0 changed.
        let out = apply(&mut o, &u);
        assert_eq!(out, Outcome::Aborted(AbortReason::NoPredicateHeld));
    }

    #[test]
    fn compare_size_predicate() {
        let o = fresh_with_blocks(&[1, 2]);
        assert!(evaluate(&o, &Predicate::CompareSize(16)));
        assert!(!evaluate(&o, &Predicate::CompareSize(15)));
    }

    #[test]
    fn delete_block_leaves_tombstone() {
        let mut o = fresh_with_blocks(&[1, 2, 3]);
        let u = Update::unconditional(vec![Action::DeleteBlock { position: 1 }]);
        assert!(apply(&mut o, &u).is_committed());
        let v = o.current();
        assert_eq!(v.logical_order().len(), 2);
        // Old version still shows three blocks (versioning).
        assert_eq!(o.version(1).unwrap().logical_order().len(), 3);
    }

    #[test]
    fn figure4_insert_via_actions() {
        // Object with blocks 41, 42, 43; insert 41.5 after 41:
        // append old-42 (slot 3), append 41.5 (slot 4), replace position 1
        // with an index pointing at [4, 3].
        let mut o = fresh_with_blocks(&[41, 42, 43]);
        let u = Update::unconditional(vec![
            Action::Append { ciphertext: ct(42) },  // slot 3
            Action::Append { ciphertext: ct(100) }, // slot 4 = "41.5"
            Action::ReplaceWithIndex { position: 1, pointers: vec![4, 3] },
        ]);
        assert!(apply(&mut o, &u).is_committed());
        let v = o.current();
        let logical: Vec<Vec<u8>> = v
            .logical_order()
            .into_iter()
            .map(|s| match &v.blocks[s] {
                Block::Data(d) => d.to_vec(),
                _ => panic!("index in logical order"),
            })
            .collect();
        assert_eq!(logical, vec![ct(41), ct(100), ct(42), ct(43)]);
    }

    #[test]
    fn bad_position_aborts_atomically() {
        let mut o = fresh_with_blocks(&[1]);
        let u = Update::unconditional(vec![
            Action::Append { ciphertext: ct(5) },
            Action::ReplaceBlock { position: 7, ciphertext: ct(6) },
        ]);
        let out = apply(&mut o, &u);
        assert_eq!(out, Outcome::Aborted(AbortReason::BadPosition));
        // The earlier Append must not have leaked through.
        assert_eq!(o.version_number(), 1);
        assert_eq!(o.current().slot_count(), 1);
    }

    #[test]
    fn search_predicate_over_ciphertext() {
        use oceanstore_crypto::swp::SearchKey;
        let key = SearchKey::from_seed(b"reader");
        let idx = key.build_index(b"obj", vec![b"hello".as_slice(), b"world".as_slice()]);
        let mut o = DataObject::new();
        let u = Update::unconditional(vec![Action::SetSearchIndex(idx)]);
        assert!(apply(&mut o, &u).is_committed());
        assert!(evaluate(&o, &Predicate::Search(key.trapdoor(b"world"))));
        assert!(!evaluate(&o, &Predicate::Search(key.trapdoor(b"absent"))));
        assert!(evaluate(&o, &Predicate::SearchAbsent(key.trapdoor(b"absent"))));
    }

    #[test]
    fn replicas_converge_on_same_log() {
        // Determinism: two replicas applying the same update sequence end
        // with identical state.
        let updates = vec![
            Update::unconditional(vec![Action::Append { ciphertext: ct(1) }]),
            Update::unconditional(vec![Action::Append { ciphertext: ct(2) }]),
            Update::default().with_clause(
                Predicate::CompareVersion(2),
                vec![Action::ReplaceBlock { position: 0, ciphertext: ct(3) }],
            ),
            Update::unconditional(vec![Action::DeleteBlock { position: 1 }]),
        ];
        let mut a = DataObject::new();
        let mut b = DataObject::new();
        for u in &updates {
            let oa = apply(&mut a, u);
            let ob = apply(&mut b, u);
            assert_eq!(oa, ob);
        }
        assert_eq!(a.current().blocks, b.current().blocks);
        assert_eq!(a.version_number(), b.version_number());
    }

    #[test]
    fn acid_transaction_encoding() {
        // §4.4.1: "the model can be used to provide ACID semantics: the
        // first predicate is made to check the read set of a transaction,
        // the corresponding action applies the write set."
        let mut o = fresh_with_blocks(&[10, 20]);
        let read_set_ok = Predicate::CompareBlock { position: 0, cid: Guid::for_content(&ct(10)) };
        let txn = Update::default().with_clause(
            read_set_ok,
            vec![Action::ReplaceBlock { position: 1, ciphertext: ct(21) }],
        );
        assert!(apply(&mut o, &txn).is_committed());
        // A conflicting writer changed block 0 → the same transaction now
        // aborts rather than writing stale data.
        let conflict =
            Update::unconditional(vec![Action::ReplaceBlock { position: 0, ciphertext: ct(11) }]);
        assert!(apply(&mut o, &conflict).is_committed());
        assert!(!apply(&mut o, &txn).is_committed());
    }

    #[test]
    fn wire_size_grows_with_content() {
        let small = Update::unconditional(vec![Action::Append { ciphertext: vec![0; 10] }]);
        let big = Update::unconditional(vec![Action::Append { ciphertext: vec![0; 1000] }]);
        assert_eq!(big.wire_size() - small.wire_size(), 990);
    }
}
