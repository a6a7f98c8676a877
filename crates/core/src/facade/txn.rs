//! Transactional facade (§4.6).
//!
//! "A transaction facade would provide an abstraction atop the OceanStore
//! API so that the developer could access the system in terms of
//! traditional transactions. The facade would simplify the application
//! writer's job by ... automatically computing read sets and write sets
//! for each update."
//!
//! A [`Transaction`] records the version of every object it reads; commit
//! turns each object's buffered writes into the §4.4.1 ACID encoding —
//! one clause whose predicate checks the read-set version and whose
//! actions apply the write set. Atomicity is per object (the paper's
//! update model is per-object); cross-object transactions commit
//! independently and report per-object outcomes.

use std::collections::HashMap;

use oceanstore_naming::guid::Guid;
use oceanstore_update::update::{Action, Predicate};
use oceanstore_update::Update;

use crate::system::{CoreError, ObjectRef, OceanStore, UpdateOutcome};

/// Result of committing a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Every touched object committed.
    Committed,
    /// At least one object's update aborted (stale read set); nothing is
    /// partially applied *within* an object, but other objects may have
    /// committed — the aborted GUIDs are listed.
    Conflict {
        /// Objects whose guarded updates aborted.
        aborted: Vec<Guid>,
    },
}

/// An in-progress optimistic transaction.
#[derive(Debug)]
pub struct Transaction {
    client_idx: usize,
    /// Read set: object → version observed.
    reads: HashMap<Guid, u64>,
    /// Write set: object → buffered actions (applied in order).
    writes: Vec<(ObjectRef, Vec<Action>)>,
}

impl Transaction {
    /// Begins a transaction for `client_idx`.
    pub fn begin(client_idx: usize) -> Self {
        Transaction { client_idx, reads: HashMap::new(), writes: Vec::new() }
    }

    /// Transactional read: returns the cleartext blocks and records the
    /// version in the read set.
    ///
    /// # Errors
    ///
    /// Propagates read failures.
    pub fn read(
        &mut self,
        ocean: &mut OceanStore,
        object: &ObjectRef,
    ) -> Result<Vec<Vec<u8>>, CoreError> {
        // Reads go to the most up-to-date secondary we can see; the version
        // recorded is what commit will guard on.
        let mut best: Option<(u64, Vec<Vec<u8>>)> = None;
        let dep = ocean.deployment();
        for &s in dep.secondaries.iter().filter(|&&s| !dep.sim.is_down(s)) {
            if let Some(d) = dep.secondary(s).committed_view(&object.guid) {
                let v = d.version_number();
                if best.as_ref().is_none_or(|(bv, _)| v > *bv) {
                    let content = oceanstore_update::ops::read_object(&object.keys, d.current())
                        .map_err(|_| CoreError::NoSuitableReplica)?;
                    best = Some((v, content));
                }
            }
        }
        let (version, content) = best.unwrap_or((0, Vec::new()));
        self.reads.insert(object.guid, version);
        Ok(content)
    }

    /// Buffers write actions against `object`.
    pub fn write(&mut self, object: &ObjectRef, actions: Vec<Action>) {
        self.writes.push((object.clone(), actions));
    }

    /// Commits: per object, one update guarded by the read-set version.
    ///
    /// # Errors
    ///
    /// Propagates submission errors; conflicts are reported in the
    /// outcome, not as errors.
    pub fn commit(self, ocean: &mut OceanStore) -> Result<TxnOutcome, CoreError> {
        // Merge buffered writes per object, preserving order.
        let mut merged: Vec<(ObjectRef, Vec<Action>)> = Vec::new();
        for (obj, actions) in self.writes {
            if let Some((_, acc)) = merged.iter_mut().find(|(o, _)| o.guid == obj.guid) {
                acc.extend(actions);
            } else {
                merged.push((obj, actions));
            }
        }
        let mut aborted = Vec::new();
        for (obj, actions) in merged {
            // The ACID encoding: predicate = read-set check, action =
            // write set, "and there are no other predicate-action pairs."
            let predicate = match self.reads.get(&obj.guid) {
                Some(v) => Predicate::CompareVersion(*v),
                None => Predicate::True, // blind write
            };
            let update = Update::default().with_clause(predicate, actions);
            match ocean.update(self.client_idx, &obj, &update)? {
                UpdateOutcome::Committed { .. } => {}
                UpdateOutcome::Aborted => aborted.push(obj.guid),
            }
        }
        Ok(if aborted.is_empty() {
            TxnOutcome::Committed
        } else {
            TxnOutcome::Conflict { aborted }
        })
    }
}
