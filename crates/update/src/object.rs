//! Server-side data objects: versioned sequences of ciphertext blocks.
//!
//! Replicas store only ciphertext (§1.2: "all information that enters the
//! infrastructure must be encrypted"). An object is a list of *slots*, each
//! holding either an encrypted data block or an *index block* — a pointer
//! list that splices other slots into the logical block sequence, which is
//! how insert/delete work over ciphertext (§4.4.2, Figure 4).
//!
//! "In principle, every update to an OceanStore object creates a new
//! version" (§2). An object keeps its current version and, per older
//! version, only what the next commit overwrote: the slot count before
//! it and the search index it replaced, in 16 bytes, or a box of those
//! and the blocks it replaced once it overwrote a slot. Every retained
//! version is rebuilt on demand and shares block storage: a data block
//! is a [`Bytes`] view, cloned without copying a byte. A retirement
//! policy trims ancient versions (the Elephant-style interfaces the
//! paper cites \[44\]).

use std::collections::VecDeque;
use std::sync::Arc;

use oceanstore_crypto::swp::EncryptedIndex;
use oceanstore_naming::bytes::Bytes;

/// One stored block slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Block {
    /// An encrypted data block (opaque to servers): a view of the buffer
    /// its update arrived in.
    Data(Bytes),
    /// An index block splicing other slots into the logical sequence.
    /// An empty pointer list is a deletion tombstone.
    Index(Vec<usize>),
}

impl Block {
    /// Byte length charged for storage/wire purposes.
    pub fn stored_len(&self) -> usize {
        match self {
            Block::Data(d) => d.len(),
            Block::Index(p) => 8 * p.len() + 8,
        }
    }
}

/// One immutable version of an object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// Monotonic version number (0 = initial empty object).
    pub number: u64,
    /// The block slots.
    pub blocks: Vec<Block>,
    /// Server-searchable encrypted word index for this version.
    pub search_index: Arc<EncryptedIndex>,
}

impl Version {
    /// The logical block sequence: slot indices in reading order, after
    /// resolving index blocks depth-first. Tombstones contribute nothing.
    ///
    /// Cycles (which only a malicious writer could construct) are broken by
    /// visiting each slot at most once.
    pub fn logical_order(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut visited = vec![false; self.blocks.len()];
        // Top-level sequence: slots not reachable *through* an index block
        // are roots in their stored order. Compute reachable-set first.
        let mut pointed_to = vec![false; self.blocks.len()];
        for b in &self.blocks {
            if let Block::Index(ptrs) = b {
                for &p in ptrs {
                    if p < self.blocks.len() {
                        pointed_to[p] = true;
                    }
                }
            }
        }
        for (i, &pointed) in pointed_to.iter().enumerate() {
            if !pointed {
                self.expand(i, &mut visited, &mut out);
            }
        }
        out
    }

    fn expand(&self, slot: usize, visited: &mut [bool], out: &mut Vec<usize>) {
        if slot >= self.blocks.len() || visited[slot] {
            return;
        }
        visited[slot] = true;
        match &self.blocks[slot] {
            Block::Data(_) => out.push(slot),
            Block::Index(ptrs) => {
                for &p in ptrs {
                    self.expand(p, visited, out);
                }
            }
        }
    }

    /// Total stored bytes across all slots (the `compare-size` metadata).
    pub fn stored_size(&self) -> usize {
        self.blocks.iter().map(Block::stored_len).sum()
    }

    /// Number of slots (physical blocks).
    pub fn slot_count(&self) -> usize {
        self.blocks.len()
    }
}

/// What one commit overwrote: enough to turn version `n` back into
/// version `n - 1` without keeping a second slot table. 16 bytes: only a
/// commit that overwrote a slot boxes anything.
#[derive(Debug, Clone)]
struct ReverseDelta {
    overwritten: Overwritten,
}

/// A commit's undo, inline until the commit overwrites a slot.
#[derive(Debug, Clone)]
struct Overwritten(Undo);

#[derive(Debug, Clone)]
enum Undo {
    /// The slot count before the commit (slots it appended lie beyond),
    /// and the search index before it, if the commit replaced it.
    Inline(u32, Option<Arc<EncryptedIndex>>),
    /// A commit that overwrote a slot, or whose slot count needs more than
    /// 32 bits.
    Boxed(Box<Overwrites>),
}

/// What one commit replaced, boxed.
#[derive(Debug, Clone)]
struct Overwrites {
    /// Slot count before the commit.
    prev_len: usize,
    /// `(slot, block it held before)` for every overwrite, in the order
    /// applied; undone back to front, so the oldest content wins.
    blocks: Vec<(usize, Block)>,
    /// The search index before the commit, if the commit replaced it.
    search_index: Option<Arc<EncryptedIndex>>,
}

impl Overwritten {
    /// Nothing replaced yet, by a commit to a version of `prev_len` slots.
    fn new(prev_len: usize) -> Self {
        Overwritten(match u32::try_from(prev_len) {
            Ok(count) => Undo::Inline(count, None),
            Err(_) => Undo::Boxed(Box::new(Overwrites {
                prev_len,
                blocks: Vec::new(),
                search_index: None,
            })),
        })
    }

    fn boxed(&mut self) -> &mut Overwrites {
        if let Undo::Inline(count, index) = &mut self.0 {
            let (prev_len, search_index) = (*count as usize, index.take());
            let blocks = Vec::new();
            self.0 = Undo::Boxed(Box::new(Overwrites { prev_len, blocks, search_index }));
        }
        let Undo::Boxed(o) = &mut self.0 else { unreachable!("boxed above") };
        o
    }

    fn search_index(&mut self) -> &mut Option<Arc<EncryptedIndex>> {
        match &mut self.0 {
            Undo::Inline(_, index) => index,
            Undo::Boxed(o) => &mut o.search_index,
        }
    }
}

#[cfg(test)]
impl Overwritten {
    /// Slots overwritten.
    fn len(&self) -> usize {
        match &self.0 {
            Undo::Inline(..) => 0,
            Undo::Boxed(o) => o.blocks.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
impl Undo {
    /// Whether nothing is boxed.
    fn is_none(&self) -> bool {
        matches!(self, Undo::Inline(..))
    }
}

/// A versioned, server-side object: the current version plus one reverse
/// delta per retained older version, so a commit costs the blocks it
/// touches, not the blocks the object has (DESIGN.md §12).
#[derive(Debug, Clone)]
pub struct DataObject {
    current: Arc<Version>,
    /// Oldest first; the last entry turns `current` into its predecessor.
    history: VecDeque<ReverseDelta>,
    /// Keep at most this many trailing versions (`None` = keep all; "we
    /// plan to provide interfaces for retiring old versions").
    retain: Option<usize>,
}

impl Default for DataObject {
    fn default() -> Self {
        Self::new()
    }
}

/// The next version under construction: edits land on the current
/// version in place and record what they overwrote.
pub(crate) struct Edit<'a> {
    version: &'a mut Version,
    undo: ReverseDelta,
}

impl Edit<'_> {
    /// Appends a slot.
    pub(crate) fn push(&mut self, block: Block) {
        self.version.blocks.push(block);
    }

    /// The block `slot` holds so far, which must exist.
    pub(crate) fn get(&self, slot: usize) -> &Block {
        &self.version.blocks[slot]
    }

    /// Overwrites `slot`, which must exist.
    pub(crate) fn set(&mut self, slot: usize, block: Block) {
        let old = std::mem::replace(&mut self.version.blocks[slot], block);
        self.undo.overwritten.boxed().blocks.push((slot, old));
    }

    /// Installs a new search index.
    pub(crate) fn set_search_index(&mut self, index: Arc<EncryptedIndex>) {
        let old = std::mem::replace(&mut self.version.search_index, index);
        self.undo.overwritten.search_index().get_or_insert(old);
    }
}

impl DataObject {
    /// A fresh object with one empty version 0.
    pub fn new() -> Self {
        DataObject {
            current: Arc::new(Version {
                number: 0,
                blocks: Vec::new(),
                search_index: Arc::new(EncryptedIndex::default()),
            }),
            history: VecDeque::new(),
            retain: None,
        }
    }

    /// A new object that starts at this one's current version and carries
    /// none of its history (a tentative view's scratch copy).
    pub fn fork(&self) -> Self {
        DataObject { current: Arc::clone(&self.current), history: VecDeque::new(), retain: None }
    }

    /// Sets the retirement policy: keep at most `n` most-recent versions.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (the current version can never be retired).
    pub fn set_retention(&mut self, n: usize) {
        assert!(n > 0, "must retain at least the current version");
        self.retain = Some(n);
        self.trim();
    }

    /// The current (latest) version.
    pub fn current(&self) -> &Arc<Version> {
        &self.current
    }

    /// The current version number.
    pub fn version_number(&self) -> u64 {
        self.current.number
    }

    /// Rebuilds a retained historical version by undoing every commit
    /// since: O(current slots + blocks those commits overwrote).
    pub fn version(&self, number: u64) -> Option<Version> {
        let back = usize::try_from(self.current.number.checked_sub(number)?).ok()?;
        if back > self.history.len() {
            return None;
        }
        let mut v = (*self.current).clone();
        for delta in self.history.iter().rev().take(back) {
            let (prev_len, blocks, search_index) = match &delta.overwritten.0 {
                Undo::Inline(count, index) => (*count as usize, &[][..], index),
                Undo::Boxed(o) => (o.prev_len, &o.blocks[..], &o.search_index),
            };
            v.blocks.truncate(prev_len);
            for (slot, block) in blocks.iter().rev() {
                v.blocks[*slot] = block.clone();
            }
            if let Some(index) = search_index {
                v.search_index = Arc::clone(index);
            }
        }
        v.number = number;
        Some(v)
    }

    /// Number of retained versions.
    pub fn retained_versions(&self) -> usize {
        self.history.len() + 1
    }

    /// Turns the current version into the next one by running `edit` on
    /// it in place, and returns the new version number. A reader still
    /// holding the old `Arc<Version>` keeps its snapshot (the edit then
    /// runs on a copy); nobody else pays for one.
    ///
    /// `edit` cannot fail: callers validate before they commit.
    pub(crate) fn commit(&mut self, edit: impl FnOnce(&mut Edit<'_>)) -> u64 {
        let version = Arc::make_mut(&mut self.current);
        let undo = ReverseDelta { overwritten: Overwritten::new(version.blocks.len()) };
        let mut next = Edit { version, undo };
        edit(&mut next);
        next.version.number += 1;
        let number = next.version.number;
        self.history.push_back(next.undo);
        self.trim();
        number
    }

    fn trim(&mut self) {
        if let Some(n) = self.retain {
            while self.retained_versions() > n {
                self.history.pop_front();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(tag: u8) -> Block {
        Block::Data(vec![tag; 4].into())
    }

    fn version(number: u64, blocks: Vec<Block>) -> Version {
        Version { number, blocks, search_index: Arc::new(EncryptedIndex::default()) }
    }

    #[test]
    fn fresh_object() {
        let o = DataObject::new();
        assert_eq!(o.version_number(), 0);
        assert_eq!(o.current().slot_count(), 0);
        assert_eq!(o.current().logical_order(), Vec::<usize>::new());
    }

    #[test]
    fn logical_order_plain_blocks() {
        let v = version(0, vec![data(1), data(2), data(3)]);
        assert_eq!(v.logical_order(), vec![0, 1, 2]);
    }

    #[test]
    fn figure4_insert_shape() {
        // Blocks 41, 42, 43 → insert 41.5: append old-42 and 41.5, replace
        // slot 1 with an index pointing at [41.5's slot, old-42's slot].
        let v = version(
            1,
            vec![
                data(41),            // slot 0
                Block::Index(vec![4, 3]), // slot 1: points at 41.5 then 42
                data(43),            // slot 2
                data(42),            // slot 3: the re-appended old block
                data(100),           // slot 4: block 41.5
            ],
        );
        // Logical: 41, 41.5, 42, 43 → slots 0, 4, 3, 2.
        assert_eq!(v.logical_order(), vec![0, 4, 3, 2]);
    }

    #[test]
    fn tombstone_deletes() {
        let v = version(1, vec![data(1), Block::Index(vec![]), data(3)]);
        assert_eq!(v.logical_order(), vec![0, 2]);
    }

    #[test]
    fn nested_index_blocks() {
        let v = version(
            1,
            vec![
                Block::Index(vec![3, 1]), // slot 0
                data(2),                  // slot 1 (pointed)
                data(9),                  // slot 2 (top-level after 0)
                Block::Index(vec![4]),    // slot 3 (pointed): → 4
                data(7),                  // slot 4 (pointed)
            ],
        );
        // slot0 expands to [slot3→slot4, slot1]; then slot2 at top level.
        assert_eq!(v.logical_order(), vec![4, 1, 2]);
    }

    #[test]
    fn cycles_do_not_hang() {
        let v = version(1, vec![Block::Index(vec![1]), Block::Index(vec![0]), data(5)]);
        // Both index blocks point at each other: visited-set breaks the
        // cycle; the data block is still reachable at top level.
        let order = v.logical_order();
        assert_eq!(order, vec![2]);
    }

    #[test]
    fn out_of_range_pointers_ignored() {
        let v = version(1, vec![Block::Index(vec![99]), data(1)]);
        assert_eq!(v.logical_order(), vec![1]);
    }

    #[test]
    fn versions_are_persistent_and_consecutive() {
        let mut o = DataObject::new();
        assert_eq!(o.commit(|e| e.push(data(1))), 1);
        assert_eq!(o.commit(|e| e.push(data(2))), 2);
        assert_eq!(o.version_number(), 2);
        assert_eq!(o.version(2).unwrap(), **o.current());
        assert_eq!(o.version(1).unwrap(), version(1, vec![data(1)]));
        assert_eq!(o.version(0).unwrap(), version(0, vec![]));
        assert!(o.version(3).is_none());
    }

    #[test]
    fn overwrites_and_search_index_are_undone_oldest_content_first() {
        use oceanstore_crypto::swp::SearchKey;
        let index = |word: &[u8]| Arc::new(SearchKey::from_seed(b"k").build_index(b"o", vec![word]));
        let mut o = DataObject::new();
        o.commit(|e| {
            e.push(data(1));
            e.push(data(2));
        });
        let v1 = (**o.current()).clone();
        o.commit(|e| {
            e.set(0, data(3));
            e.set(0, data(4)); // same slot twice: version 1 must get `data(1)` back
            e.push(data(5));
            e.set_search_index(index(b"first"));
            e.set_search_index(index(b"second"));
        });
        assert_eq!(o.current().blocks, vec![data(4), data(2), data(5)]);
        assert_eq!(o.current().search_index, index(b"second"));
        assert_eq!(o.version(1).unwrap(), v1);
    }

    #[test]
    fn held_snapshot_survives_later_commits() {
        let mut o = DataObject::new();
        o.commit(|e| e.push(data(1)));
        let held = Arc::clone(o.current());
        o.commit(|e| e.set(0, data(2)));
        assert_eq!(*held, version(1, vec![data(1)]));
        assert_eq!(o.current().blocks, vec![data(2)]);
    }

    #[test]
    fn fork_shares_the_current_version_and_drops_the_history() {
        let mut o = DataObject::new();
        o.commit(|e| e.push(data(1)));
        let mut f = o.fork();
        assert!(Arc::ptr_eq(f.current(), o.current()));
        assert_eq!(f.retained_versions(), 1);
        f.commit(|e| e.push(data(2)));
        assert_eq!(o.current().slot_count(), 1, "the original is untouched");
    }

    #[test]
    fn retention_trims_old_versions() {
        let mut o = DataObject::new();
        o.set_retention(2);
        for i in 1..=5 {
            o.commit(|e| e.push(data(i)));
        }
        assert_eq!(o.retained_versions(), 2);
        assert!(o.version(3).is_none());
        assert_eq!(o.version(4).unwrap().slot_count(), 4);
        assert_eq!(o.version(5).unwrap().slot_count(), 5);
    }

    /// Growth guard, as a count: what a commit adds to the history is what
    /// it overwrote, never a slot table.
    #[test]
    fn history_holds_only_what_each_commit_overwrote() {
        use crate::update::{apply, Action, Update};
        let mut o = DataObject::new();
        for i in 0..2000u32 {
            let append = Action::Append { ciphertext: i.to_le_bytes().to_vec() };
            assert!(apply(&mut o, &Update::unconditional(vec![append])).is_committed());
        }
        assert_eq!(o.current().blocks.len(), 2000);
        assert_eq!(o.history.len(), 2000);
        assert!(o.history.iter().all(|d| d.overwritten.is_empty()));
        for i in 0..2000u32 {
            let replace = Action::ReplaceBlock {
                position: (i as usize * 7) % 2000,
                ciphertext: i.to_be_bytes().to_vec(),
            };
            assert!(apply(&mut o, &Update::unconditional(vec![replace])).is_committed());
        }
        assert_eq!(o.current().blocks.len(), 2000);
        assert_eq!(o.history.len(), 4000);
        assert!(o.history.iter().skip(2000).all(|d| d.overwritten.len() == 1));
    }

    /// An undo entry is the slot count and one pointer, and the pointer
    /// stays null for a commit that only appends.
    #[test]
    fn an_append_only_commit_costs_its_history_sixteen_bytes() {
        assert!(std::mem::size_of::<ReverseDelta>() <= 16);
        let mut o = DataObject::new();
        for i in 0..100 {
            o.commit(|e| e.push(data(i)));
        }
        o.commit(|e| e.set(0, data(0)));
        let mut appends = o.history.iter().take(100);
        assert!(appends.all(|d| d.overwritten.0.is_none()), "an append boxes nothing");
        assert_eq!(o.history[100].overwritten.len(), 1);
    }

    #[test]
    fn stored_size_counts_blocks_and_indices() {
        let v = version(0, vec![data(1), Block::Index(vec![1, 2, 3])]);
        assert_eq!(v.stored_size(), 4 + (8 * 3 + 8));
    }
}
