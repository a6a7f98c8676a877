//! Property-based tests for the update model: codec canonicity; decoding
//! that slices the buffer it is handed; the update digest a certificate
//! signs; deterministic replay, the invariant the whole replication layer
//! rests on; and equivalence of the snapshot-plus-reverse-deltas object
//! with a model that keeps every version whole.

use std::sync::Arc;

use oceanstore_crypto::swp::SearchKey;
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;
use oceanstore_update::codec::{
    decode_update, decode_view, encode_after, encode_update, update_digest,
};
use oceanstore_update::object::{Block, DataObject, Version};
use oceanstore_update::update::{
    apply, apply_owned, evaluate, AbortReason, Action, Outcome, Predicate,
};
use oceanstore_update::Update;
use proptest::prelude::*;

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        Just(Predicate::True),
        any::<u64>().prop_map(Predicate::CompareVersion),
        (0usize..10_000).prop_map(Predicate::CompareSize),
        (any::<usize>(), any::<[u8; 32]>())
            .prop_map(|(position, hash)| Predicate::CompareBlock { position: position % 64, hash }),
    ]
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0usize..16, proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(position, ciphertext)| Action::ReplaceBlock { position, ciphertext }),
        proptest::collection::vec(any::<u8>(), 0..64)
            .prop_map(|ciphertext| Action::Append { ciphertext }),
        (0usize..16, proptest::collection::vec(0usize..32, 0..6))
            .prop_map(|(position, pointers)| Action::ReplaceWithIndex { position, pointers }),
        (0usize..16).prop_map(|position| Action::DeleteBlock { position }),
    ]
}

fn arb_update() -> impl Strategy<Value = Update> {
    proptest::collection::vec(
        (arb_predicate(), proptest::collection::vec(arb_action(), 0..6)),
        0..4,
    )
    .prop_map(|clauses| {
        let mut u = Update::default();
        for (p, a) in clauses {
            u = u.with_clause(p, a);
        }
        u
    })
}

/// One step of the model-equivalence driver. Positions are reduced modulo
/// the object's logical length when the step runs, so most steps commit.
#[derive(Debug, Clone)]
enum Step {
    Append(Vec<u8>),
    Replace(usize, Vec<u8>),
    /// Figure 4's insert: re-append the old block, append the new one,
    /// replace the position with an index block pointing at both.
    Insert(usize, Vec<u8>),
    Delete(usize),
    SetSearchIndex(u8),
    /// No clause's predicate holds.
    FalsePredicate(Vec<u8>),
    /// An out-of-range position between two appends of one clause.
    BadPositionMidClause(Vec<u8>),
    /// Anything the generic generator produces, multi-clause included.
    Raw(Update),
    Retain(usize),
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..24)
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        arb_bytes().prop_map(Step::Append),
        arb_bytes().prop_map(Step::Append),
        (any::<usize>(), arb_bytes()).prop_map(|(p, b)| Step::Replace(p, b)),
        (any::<usize>(), arb_bytes()).prop_map(|(p, b)| Step::Insert(p, b)),
        any::<usize>().prop_map(Step::Delete),
        any::<u8>().prop_map(Step::SetSearchIndex),
        arb_bytes().prop_map(Step::FalsePredicate),
        arb_bytes().prop_map(Step::BadPositionMidClause),
        arb_update().prop_map(Step::Raw),
        (1usize..6).prop_map(Step::Retain),
    ]
}

/// The update a step stands for against the object's current version, and
/// the abort it was built to provoke, if any.
fn update_for(step: &Step, cur: &Version) -> (Update, Option<AbortReason>) {
    let order = cur.logical_order();
    let append = |bytes: &Vec<u8>| Action::Append { ciphertext: bytes.clone() };
    let at = |p: usize| p % order.len().max(1);
    let actions = match step {
        Step::Append(b) => vec![append(b)],
        // On an empty object every position is out of range: an abort.
        Step::Replace(p, b) => vec![Action::ReplaceBlock { position: at(*p), ciphertext: b.clone() }],
        Step::Insert(p, b) if !order.is_empty() => {
            let Block::Data(old) = &cur.blocks[order[at(*p)]] else { unreachable!("logical order") };
            let n = cur.slot_count();
            vec![
                append(&old.to_vec()),
                append(b),
                Action::ReplaceWithIndex { position: at(*p), pointers: vec![n + 1, n] },
            ]
        }
        Step::Insert(_, b) => vec![append(b)],
        Step::Delete(p) => vec![Action::DeleteBlock { position: at(*p) }],
        Step::SetSearchIndex(w) => {
            let index = SearchKey::from_seed(b"model").build_index(b"doc", vec![[*w].as_slice()]);
            vec![append(&vec![*w]), Action::SetSearchIndex(index)]
        }
        Step::FalsePredicate(b) => {
            let u = Update::default()
                .with_clause(Predicate::CompareVersion(cur.number + 1), vec![append(b)])
                .with_clause(Predicate::CompareSize(cur.stored_size() + 1), vec![append(b)]);
            return (u, Some(AbortReason::NoPredicateHeld));
        }
        Step::BadPositionMidClause(b) => {
            let bad = Action::ReplaceBlock { position: order.len(), ciphertext: b.clone() };
            let u = Update::unconditional(vec![append(b), bad, append(b)]);
            return (u, Some(AbortReason::BadPosition));
        }
        Step::Raw(u) => return (u.clone(), None),
        Step::Retain(_) => unreachable!("not an update"),
    };
    (Update::unconditional(actions), None)
}

/// The whole-copy `apply` this crate used before reverse deltas, kept as
/// the reference: build the next version on a scratch copy of the slots.
fn model_apply(object: &DataObject, update: &Update) -> Result<Version, AbortReason> {
    let clause = update
        .clauses
        .iter()
        .find(|c| evaluate(object, &c.predicate))
        .ok_or(AbortReason::NoPredicateHeld)?;
    let cur = object.current();
    let mut next = Version { number: cur.number + 1, ..(**cur).clone() };
    let order = cur.logical_order();
    let slot_at = |position: &usize| order.get(*position).copied().ok_or(AbortReason::BadPosition);
    let appends = clause.actions.iter().filter(|a| matches!(a, Action::Append { .. })).count();
    for action in &clause.actions {
        match action {
            Action::ReplaceBlock { position, ciphertext } => {
                next.blocks[slot_at(position)?] = Block::Data(ciphertext.clone().into());
            }
            Action::Append { ciphertext } => {
                next.blocks.push(Block::Data(ciphertext.clone().into()));
            }
            Action::ReplaceWithIndex { position, pointers } => {
                let slot = slot_at(position)?;
                if pointers.iter().any(|&p| p >= next.blocks.len() + appends) {
                    return Err(AbortReason::BadPosition);
                }
                next.blocks[slot] = Block::Index(pointers.clone());
            }
            Action::DeleteBlock { position } => {
                next.blocks[slot_at(position)?] = Block::Index(Vec::new());
            }
            Action::SetSearchIndex(ix) => next.search_index = Arc::new(ix.clone()),
        }
    }
    Ok(next)
}

proptest! {
    /// The object answers exactly as a model that stores every version
    /// whole: every retained `version(n)`, retention dropping the oldest,
    /// aborts touching nothing, and a held snapshot surviving the commits
    /// that follow it.
    #[test]
    fn object_matches_whole_version_model(
        steps in proptest::collection::vec((arb_step(), any::<bool>(), any::<bool>()), 0..40)
    ) {
        let mut o = DataObject::new();
        // `model[i]` is version `floor + i`.
        let mut model = vec![(**o.current()).clone()];
        let mut floor = 0u64;
        let mut retain = usize::MAX;
        for (step, hold, owned) in &steps {
            if let Step::Retain(k) = step {
                o.set_retention(*k);
                retain = *k;
            } else {
                let before = (**o.current()).clone();
                // A held snapshot forces the copy-on-write path; without
                // one the commit edits in place.
                let held = hold.then(|| Arc::clone(o.current()));
                let (update, must_abort) = update_for(step, &before);
                let expected = model_apply(&o, &update);
                // A replica that decoded the update hands it over; any
                // other caller lends it.
                let outcome = if *owned {
                    apply_owned(&mut o, update.clone())
                } else {
                    apply(&mut o, &update)
                };
                if let Some(reason) = must_abort {
                    prop_assert_eq!(&outcome, &Outcome::Aborted(reason));
                }
                match outcome {
                    Outcome::Committed { version } => {
                        prop_assert_eq!(version, before.number + 1);
                        prop_assert_eq!(Ok(&**o.current()), expected.as_ref());
                        model.push((**o.current()).clone());
                    }
                    Outcome::Aborted(reason) => {
                        prop_assert_eq!(Err(reason), expected);
                        prop_assert_eq!(&**o.current(), &before);
                        if let Some(held) = &held {
                            prop_assert!(Arc::ptr_eq(held, o.current()), "an abort copies nothing");
                        }
                    }
                }
                if let Some(held) = held {
                    prop_assert_eq!(&*held, &before, "a reader keeps the snapshot it cloned");
                }
            }
            if model.len() > retain {
                let drop = model.len() - retain;
                model.drain(..drop);
                floor += drop as u64;
            }
            prop_assert_eq!(o.retained_versions(), model.len());
            for (i, expected) in model.iter().enumerate() {
                let got = o.version(floor + i as u64);
                prop_assert_eq!(got.as_ref(), Some(expected));
            }
            prop_assert!(floor == 0 || o.version(floor - 1).is_none(), "oldest were dropped");
            prop_assert!(o.version(o.version_number() + 1).is_none());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The wire codec is canonical and lossless for arbitrary updates.
    #[test]
    fn codec_roundtrip(u in arb_update()) {
        let enc = encode_update(&u);
        let dec = decode_update(&enc).expect("round-trips");
        prop_assert_eq!(encode_update(&dec), enc);
    }

    /// Truncating an encoding is always detected.
    #[test]
    fn codec_rejects_truncation(u in arb_update(), cut_frac in 0.0f64..1.0) {
        let enc = encode_update(&u);
        if enc.len() > 4 {
            let cut = ((enc.len() as f64) * cut_frac) as usize;
            if cut < enc.len() {
                prop_assert!(decode_update(&enc[..cut]).is_err());
            }
        }
    }

    /// Determinism: two replicas applying the same update stream converge
    /// to bit-identical state with identical outcomes — regardless of the
    /// updates' content.
    #[test]
    fn replay_determinism(updates in proptest::collection::vec(arb_update(), 0..12)) {
        let mut a = DataObject::new();
        let mut b = DataObject::new();
        for u in &updates {
            // Route one replica's copy through the wire codec for good
            // measure.
            let u2 = decode_update(&encode_update(u)).expect("codec roundtrip");
            let oa = apply(&mut a, u);
            let ob = apply(&mut b, &u2);
            prop_assert_eq!(&oa, &ob);
        }
        prop_assert_eq!(a.version_number(), b.version_number());
        prop_assert_eq!(&a.current().blocks, &b.current().blocks);
    }

    /// Aborted updates never change the object.
    #[test]
    fn aborts_are_side_effect_free(updates in proptest::collection::vec(arb_update(), 1..10)) {
        let mut o = DataObject::new();
        for u in &updates {
            let before_version = o.version_number();
            let before_blocks = o.current().blocks.clone();
            match apply(&mut o, u) {
                Outcome::Committed { version } => {
                    prop_assert_eq!(version, before_version + 1);
                }
                Outcome::Aborted(_) => {
                    prop_assert_eq!(o.version_number(), before_version);
                    prop_assert_eq!(&o.current().blocks, &before_blocks);
                }
            }
        }
    }

    /// The logical order never references an index block or repeats a
    /// slot, whatever the update history did to the object.
    #[test]
    fn logical_order_well_formed(updates in proptest::collection::vec(arb_update(), 0..12)) {
        let mut o = DataObject::new();
        for u in &updates {
            let _ = apply(&mut o, u);
        }
        let v = o.current();
        let order = v.logical_order();
        let mut seen = std::collections::HashSet::new();
        for slot in order {
            prop_assert!(slot < v.blocks.len());
            prop_assert!(matches!(v.blocks[slot], Block::Data(_)));
            prop_assert!(seen.insert(slot), "slot repeated in logical order");
        }
    }
}

proptest! {
    /// A server decodes a view of the buffer an update arrived in, at an
    /// offset, as in an agreement payload: the result is the update the
    /// client built, field for field, as is the decode of a borrowed copy;
    /// every ciphertext is a view inside the update's bytes of that very
    /// buffer; and every truncation of the encoding is refused.
    #[test]
    fn decoding_a_view_slices_the_buffer(
        u in arb_update(),
        prefix in 0usize..24,
        word in any::<u8>(),
        indexed in any::<bool>(),
    ) {
        let u = if indexed { u.with_clause(Predicate::True, vec![search_index(word)]) } else { u };
        let whole = Bytes::from(encode_after(&vec![0xA5; prefix], &u));
        let encoded = whole.slice(prefix..whole.len());
        let shared = decode_view(&encoded).expect("decodes");
        let plain = decode_update(&encode_update(&u)).expect("decodes");
        prop_assert_eq!(format!("{shared:?}"), format!("{u:?}"));
        prop_assert_eq!(format!("{plain:?}"), format!("{u:?}"));
        prop_assert_eq!(encode_update(&shared), encoded.to_vec());
        let inside = encoded.as_ptr_range();
        let actions = shared.clauses.iter().flat_map(|c| &c.actions);
        for action in actions {
            let (Action::Append { ciphertext } | Action::ReplaceBlock { ciphertext, .. }) = action
            else {
                continue;
            };
            prop_assert!(Arc::ptr_eq(ciphertext.buffer(), whole.buffer()), "a ciphertext copied");
            let at = ciphertext.as_ptr_range();
            prop_assert!(inside.start <= at.start && at.end <= inside.end, "a view outside");
        }
        for cut in 0..encoded.len() {
            prop_assert!(decode_view(&encoded.slice(0..cut)).is_err(), "cut at {}", cut);
        }
    }
}

/// `(clause, action)` of every action of `u` that `keep` accepts.
fn actions_where(u: &Update, keep: impl Fn(&Action) -> bool) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (c, clause) in u.clauses.iter().enumerate() {
        for (a, action) in clause.actions.iter().enumerate() {
            if keep(action) {
                out.push((c, a));
            }
        }
    }
    out
}

/// The ciphertext at a `(clause, action)` site that carries one.
fn ciphertext_at(u: &mut Update, (c, a): (usize, usize)) -> &mut Vec<u8> {
    match &mut u.clauses[c].actions[a] {
        Action::ReplaceBlock { ciphertext, .. } | Action::Append { ciphertext } => ciphertext,
        _ => unreachable!("a ciphertext site"),
    }
}

fn search_index(word: u8) -> Action {
    let key = SearchKey::from_seed(b"digest");
    Action::SetSearchIndex(key.build_index(b"doc", vec![[word].as_slice()]))
}

/// One single mutation of kind `kind` (0..7), as `(before, after)`: the
/// two differ in exactly that, or `None` where `u` offers nothing to
/// mutate. `pick` chooses the site, `salt` (never 0) the new value.
fn mutation(u: &Update, kind: usize, pick: usize, salt: u8) -> Option<(Update, Update)> {
    let mut m = u.clone();
    let choose = |sites: Vec<(usize, usize)>| sites.get(pick % sites.len().max(1)).copied();
    let nonempty = |a: &Action| a.ciphertext().is_some_and(|ct| !ct.is_empty());
    match kind {
        // One ciphertext byte.
        0 => {
            let ct = ciphertext_at(&mut m, choose(actions_where(u, nonempty))?);
            let at = pick % ct.len();
            ct[at] ^= salt;
        }
        // One block swapped for another of the same length.
        1 => {
            let ct = ciphertext_at(&mut m, choose(actions_where(u, nonempty))?);
            *ct = ct.iter().map(|b| b ^ salt).collect();
        }
        // Two appends of one clause, reordered.
        2 => {
            let appends = actions_where(u, |a| matches!(a, Action::Append { .. }));
            let ct = |(c, a): (usize, usize)| u.clauses[c].actions[a].ciphertext();
            let (c, first, second) = appends.iter().enumerate().find_map(|(i, &x)| {
                let y = appends[i + 1..].iter().find(|&&y| y.0 == x.0 && ct(x) != ct(y))?;
                Some((x.0, x.1, y.1))
            })?;
            m.clauses[c].actions.swap(first, second);
        }
        // A position.
        3 => {
            let positioned =
                |a: &Action| !matches!(a, Action::Append { .. } | Action::SetSearchIndex(_));
            let (c, a) = choose(actions_where(u, positioned))?;
            let (Action::ReplaceBlock { position, .. }
            | Action::ReplaceWithIndex { position, .. }
            | Action::DeleteBlock { position }) = &mut m.clauses[c].actions[a]
            else {
                unreachable!("a positioned action")
            };
            *position = position.wrapping_add(usize::from(salt));
        }
        // A predicate operand.
        4 => {
            let with_operand: Vec<usize> = (0..u.clauses.len())
                .filter(|&c| !matches!(u.clauses[c].predicate, Predicate::True))
                .collect();
            let c = *with_operand.get(pick % with_operand.len().max(1))?;
            match &mut m.clauses[c].predicate {
                Predicate::CompareVersion(v) => *v = v.wrapping_add(u64::from(salt)),
                Predicate::CompareSize(s) => *s = s.wrapping_add(usize::from(salt)),
                Predicate::CompareBlock { hash, .. } => hash[pick % 32] ^= salt,
                _ => return None,
            }
        }
        // A clause boundary: the last action of one clause becomes the
        // first of the next, so the action sequence is the same.
        5 => {
            let before_another: Vec<usize> = (0..u.clauses.len().saturating_sub(1))
                .filter(|&c| !u.clauses[c].actions.is_empty())
                .collect();
            let c = *before_another.get(pick % before_another.len().max(1))?;
            let moved = m.clauses[c].actions.pop().expect("non-empty");
            m.clauses[c + 1].actions.insert(0, moved);
        }
        // The search index.
        6 => {
            let before = u.clone().with_clause(Predicate::True, vec![search_index(0)]);
            let after = u.clone().with_clause(Predicate::True, vec![search_index(salt)]);
            return Some((before, after));
        }
        _ => unreachable!("seven kinds"),
    }
    Some((u.clone(), m))
}

proptest! {
    /// The update digest names the update: equal updates have equal
    /// digests (through the codec too), any single mutation changes it —
    /// one ciphertext byte, one block swapped for another of the same
    /// length, two appends reordered, a position, a predicate operand, a
    /// clause boundary, the search index — and the CIDs it returns are the
    /// blob store's names (`cid_of` is `Guid::for_content`) of every
    /// ciphertext, in encoding order.
    #[test]
    fn digest_covers_every_field_and_every_block(
        u in arb_update(),
        kind in 0usize..7,
        pick in any::<usize>(),
        salt in 1u8..=255,
    ) {
        let name = update_digest(&u);
        prop_assert_eq!(&name, &update_digest(&u.clone()));
        let decoded = decode_update(&encode_update(&u)).expect("round-trips");
        prop_assert_eq!(&name, &update_digest(&decoded));
        let actions = u.clauses.iter().flat_map(|c| &c.actions);
        let cids: Vec<Guid> = actions.filter_map(Action::ciphertext).map(Guid::for_content).collect();
        prop_assert_eq!(&name.cids, &cids);
        if let Some((before, after)) = mutation(&u, kind, pick, salt) {
            prop_assert_ne!(encode_update(&before), encode_update(&after), "not a mutation");
            let (before, after) = (update_digest(&before), update_digest(&after));
            prop_assert_ne!(before.digest, after.digest, "mutation {} went unseen", kind);
        }
    }
}
