//! One name per update. A client signs its request over the update's name:
//! SHA-1 over the object GUID and the update digest a serialization
//! certificate signs, which covers every block through its CID. Every
//! primary derives that name again, once, from the bytes it was handed: to
//! check the signature at admission, and — through the update digest its
//! agreement replica keeps with the request — to file the blocks under the
//! CIDs it derived when the slot executes. State transfer names what it
//! installs the same way, and keeps the installed bytes' digest in place of
//! any it held under the request id. Nothing here ever takes a name from the
//! wire.

use oceanstore_consensus::messages::{
    request_signing_bytes, set_sig, signing_bytes, slot_digest, Namer, Payload, PbftMsg,
    RequestId, StateEntry,
};
use oceanstore_crypto::schnorr::{KeyPair, Signature};
use oceanstore_crypto::threshold::SerializationCert;
use oceanstore_naming::bytes::Bytes;
use oceanstore_naming::guid::Guid;
use oceanstore_replica::primary::{encode_payload, PAYLOAD_UPDATE_AT};
use oceanstore_replica::{
    build_deployment, CommitRecord, Deployment, DeploymentOpts, ObjectStore, ReplicaMsg,
    TentativeId, UpdateNamer,
};
use oceanstore_sim::{NodeId, SimDuration};
use oceanstore_store::cid_of;
use oceanstore_update::object::Block;
use oceanstore_update::update::Action;
use oceanstore_update::{decode_view, update_digest, Update};

/// An unconditional update appending one block per entry of `blocks`.
fn appends(blocks: &[Vec<u8>]) -> Update {
    Update::unconditional(
        blocks.iter().map(|b| Action::Append { ciphertext: b.clone() }).collect(),
    )
}

/// `n` blocks of `len` bytes, each its own fill byte from `tag` on.
fn blocks(tag: u8, n: u8, len: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| vec![tag.wrapping_add(i); len]).collect()
}

fn payload(object: &Guid, blocks: &[Vec<u8>]) -> Payload {
    Payload::from_bytes(encode_payload(object, &appends(blocks)))
}

/// Primary `i`'s key, derived as the deployment derives it.
fn primary_key(dep_seed: u64, i: usize) -> KeyPair {
    KeyPair::from_seed(format!("dep-{dep_seed}-primary-{i}").as_bytes())
}

/// The tier's name of `payload`.
fn name(payload: &Payload) -> [u8; 20] {
    UpdateNamer.name(payload).0
}

/// Request `seq` of client 0 carrying `payload`, signed over the name of
/// `signed` (the bytes the client meant).
fn request(dep: &Deployment, seq: u64, payload: Payload, signed: &Payload) -> PbftMsg {
    let id = RequestId { client: dep.clients[0], seq };
    let timestamp = 1;
    let sig = dep.client_keys[0].sign(&request_signing_bytes(id, timestamp, &name(signed)));
    PbftMsg::Request { id, timestamp, payload, sig }
}

/// Primary 0's state-transfer answer carrying slot 0 as request `id` with
/// `payload`, its commit certified — by genuine signatures of primaries
/// 0..3 — as binding the name of `certified`.
fn state(id: RequestId, payload: Payload, certified: &Payload) -> PbftMsg {
    let seed = DeploymentOpts::default().seed;
    let (seq, timestamp) = (0, 1);
    let digest = slot_digest(&name(certified), id, timestamp);
    let proof = (0..3)
        .map(|i| {
            let commit =
                PbftMsg::Commit { view: 0, seq, digest, replica: i, sig: Signature::default() };
            (i, primary_key(seed, i).sign(&signing_bytes(&commit)))
        })
        .collect();
    let entry = StateEntry { seq, digest, id, timestamp, payload, proof_view: 0, proof };
    let entries = vec![entry];
    let mut msg = PbftMsg::State { stable: None, entries, replica: 0, sig: Signature::default() };
    let sig = primary_key(seed, 0).sign(&signing_bytes(&msg));
    set_sig(&mut msg, sig);
    msg
}

fn inject(dep: &mut Deployment, from: NodeId, to: &[NodeId], msg: &PbftMsg) {
    for &node in to {
        dep.sim.inject(from, node, ReplicaMsg::Pbft(msg.clone()));
    }
}

/// The data blocks `store` holds of `object`, each checked to be filed
/// under its own CID.
fn filed_blocks(store: &ObjectStore, object: &Guid, node: NodeId) -> Vec<Vec<u8>> {
    let Some(state) = store.get(object) else { return Vec::new() };
    let version = state.data.current();
    let mut held = Vec::new();
    for (slot, block) in version.blocks.iter().enumerate() {
        let Block::Data(bytes) = block else { panic!("appends store data blocks") };
        let cid = store.slot_cid(object, slot).expect("every data block is filed");
        assert_eq!(cid, cid_of(bytes), "{node:?} slot {slot}: filed under another block's CID");
        held.push(bytes.to_vec());
    }
    held
}

/// A request whose bytes differ from what the client signed — one block
/// swapped for another of the same length — is refused by every primary:
/// each names the bytes it was handed, and the signature does not cover
/// that name. The signed bytes themselves commit.
#[test]
fn a_request_altered_after_signing_is_refused_by_every_primary() {
    let mut dep = build_deployment(&DeploymentOpts::default());
    let object = Guid::from_label("altered");
    let meant = blocks(0x30, 4, 1500);
    let mut swapped = meant.clone();
    swapped[2] = vec![0x77; 1500];
    let (signed, altered) = (payload(&object, &meant), payload(&object, &swapped));
    assert_eq!(signed.bytes.len(), altered.bytes.len(), "same length, one block differs");
    let primaries = dep.primaries().to_vec();
    let client = dep.clients[0];

    let forged = request(&dep, 1000, altered, &signed);
    inject(&mut dep, client, &primaries, &forged);
    dep.sim.run_for(SimDuration::from_secs(2));
    for &p in &primaries {
        let primary = dep.primary(p);
        let health = primary.pbft().health();
        assert_eq!(health.assigned_len, 0, "{p:?} gave bytes nobody signed a slot");
        assert_eq!(health.requests_len, 0, "{p:?} holds the altered request");
        assert_eq!(primary.pbft().executed_seen(), 0, "{p:?} executed the altered request");
        assert!(primary.store.get(&object).is_none(), "{p:?} stored the altered update");
    }

    let genuine = request(&dep, 1001, signed.clone(), &signed);
    inject(&mut dep, client, &primaries, &genuine);
    dep.sim.run_for(SimDuration::from_secs(2));
    for &p in &primaries {
        let primary = dep.primary(p);
        assert_eq!(filed_blocks(&primary.store, &object, p), meant, "{p:?} the signed update");
    }
}

/// A state-transfer entry whose payload bytes differ from the bytes its
/// commit certificate names is refused: the installing primary names the
/// shipped bytes itself. The genuine entry installs, and its blocks are
/// filed under their own CIDs though no name of them was kept at
/// admission (the primary never saw the request).
#[test]
fn a_state_entry_with_altered_bytes_is_refused() {
    let object = Guid::from_label("transferred");
    let meant = blocks(0x50, 3, 2048);
    let mut swapped = meant.clone();
    swapped[0] = vec![0x99; 2048];
    let (signed, altered) = (payload(&object, &meant), payload(&object, &swapped));
    for (shipped, genuine) in [(altered, false), (signed.clone(), true)] {
        let mut dep = build_deployment(&DeploymentOpts::default());
        let (from, victim) = (dep.primaries()[0], dep.primaries()[3]);
        let id = RequestId { client: dep.clients[0], seq: 1000 };
        inject(&mut dep, from, &[victim], &state(id, shipped, &signed));
        dep.sim.run_for(SimDuration::from_millis(50));
        let primary = dep.primary(victim);
        let pbft = primary.pbft();
        let health = pbft.health();
        if genuine {
            assert_eq!((health.state_installs, health.state_rejects), (1, 0));
            assert_eq!(pbft.executed_seen(), 1);
            assert_eq!(filed_blocks(&primary.store, &object, victim), meant);
        } else {
            assert_eq!((health.state_installs, health.state_rejects), (0, 1));
            assert_eq!(pbft.executed_seen(), 0, "installed bytes the certificate does not name");
            assert!(primary.store.get(&object).is_none());
        }
    }
}

/// An equivocating client's two payloads for one object: `committed`,
/// whose blocks are `first`, and `other`.
struct Equivocation {
    object: Guid,
    first: Vec<Vec<u8>>,
    committed: Payload,
    other: Payload,
}

fn equivocation() -> Equivocation {
    let object = Guid::from_label("equivocated");
    let (first, second) = (blocks(0x10, 3, 2048), blocks(0x20, 3, 2048));
    let (committed, other) = (payload(&object, &first), payload(&object, &second));
    Equivocation { object, first, committed, other }
}

/// A client that equivocates gets the committed payload's blocks filed
/// under the committed payload's CIDs on every primary, never the other
/// payload's: here one primary admits the other payload first, and the
/// committed one replaces it.
#[test]
fn an_equivocating_client_gets_the_committed_payloads_cids() {
    let Equivocation { object, first, committed, other } = equivocation();
    let mut dep = build_deployment(&DeploymentOpts::default());
    let (client, primaries) = (dep.clients[0], dep.primaries().to_vec());
    let lie = request(&dep, 1000, other.clone(), &other);
    let truth = request(&dep, 1000, committed.clone(), &committed);
    inject(&mut dep, client, &primaries[3..], &lie);
    dep.sim.run_for(SimDuration::from_millis(50));
    inject(&mut dep, client, &primaries, &truth);
    dep.sim.run_for(SimDuration::from_secs(2));
    for &p in &primaries {
        let primary = dep.primary(p);
        assert_eq!(filed_blocks(&primary.store, &object, p), first, "{p:?} the committed update");
    }
}

/// As above, with the other payload still held when the committed slot
/// arrives by state transfer: the digest kept with the other payload must
/// not name the installed one.
#[test]
fn an_equivocating_client_gets_the_committed_payloads_cids_by_state_transfer() {
    let Equivocation { object, first, committed, other } = equivocation();
    let mut dep = build_deployment(&DeploymentOpts::default());
    let (client, victim) = (dep.clients[0], dep.primaries()[3]);
    let lie = request(&dep, 1000, other.clone(), &other);
    inject(&mut dep, client, &[victim], &lie);
    dep.sim.run_for(SimDuration::from_millis(50));
    let id = RequestId { client, seq: 1000 };
    assert_eq!(dep.primary(victim).pbft().health().requests_len, 1, "the other payload is held");
    let from = dep.primaries()[0];
    inject(&mut dep, from, &[victim], &state(id, committed.clone(), &committed));
    dep.sim.run_for(SimDuration::from_millis(50));
    let primary = dep.primary(victim);
    assert_eq!(primary.pbft().executed_seen(), 1);
    assert_eq!(filed_blocks(&primary.store, &object, victim), first, "the committed update");
}

/// Record `index` of `object` carrying `update`, certified by every
/// primary of the default deployment as binding `digest`.
fn certified_record(object: Guid, index: u64, update: Bytes, digest: &[u8; 20]) -> CommitRecord {
    let seed = DeploymentOpts::default().seed;
    let mut record = CommitRecord {
        object,
        index,
        update,
        version: Some(index + 1),
        timestamp: 7,
        id: TentativeId { client: NodeId(0), counter: 7 },
        cert: SerializationCert::new(),
    };
    let msg = record.signing_bytes(digest);
    for i in 0..4 {
        let key = primary_key(seed, i);
        record.cert.add(key.public(), key.sign(&msg));
    }
    record
}

/// A commit record whose bytes differ, in one block of the same length,
/// from a record every node of the process has already named is refused
/// by every secondary, though its certificate is genuine for the named
/// record's digest. The forged bytes are another buffer, laid out exactly
/// as the named one, so each secondary hashes them for real: a memo that
/// recognised a view by its place alone, not by its buffer too, would hand
/// back the named record's CIDs and let the forgery apply. The same
/// record with a fresh copy of the genuine bytes applies everywhere.
#[test]
fn a_forged_record_laid_out_like_a_named_one_is_refused_by_every_secondary() {
    let mut dep = build_deployment(&DeploymentOpts::default());
    let object = Guid::from_label("forged-memo");
    let meant = blocks(0x40, 4, 1024);
    dep.submit(dep.clients[0], object, &appends(&meant));
    dep.sim.run_for(SimDuration::from_secs(2));
    let genuine = dep.primary(dep.primaries()[0]).store.records_from(&object, 0);
    let genuine = &genuine[0];
    let digest = update_digest(&decode_view(&genuine.update).expect("decodes")).digest;
    let secondaries = dep.secondaries.clone();
    for &s in &secondaries {
        assert_eq!(dep.secondary(s).committed_view(&object).map(|o| o.version_number()), Some(1));
    }

    // The genuine update again at index 1, in another buffer laid out as
    // the payload the genuine record is a view of, with one block swapped.
    let reencoded = |blocks: &[Vec<u8>]| -> Bytes {
        let whole = Bytes::from(encode_payload(&object, &appends(blocks)));
        whole.slice(PAYLOAD_UPDATE_AT..whole.len())
    };
    let mut swapped = meant.clone();
    swapped[1] = vec![0xEE; 1024];
    let forged = certified_record(object, 1, reencoded(&swapped), &digest);
    assert_eq!(forged.update.len(), genuine.update.len(), "laid out alike");
    let source = secondaries[0];
    for &s in &secondaries[1..] {
        dep.sim.inject(source, s, ReplicaMsg::Commit(forged.clone()));
    }
    dep.sim.run_for(SimDuration::from_secs(2));
    for &s in &secondaries[1..] {
        let view = dep.secondary(s).committed_view(&object).expect("holds the object");
        assert_eq!(view.version_number(), 1, "{s:?} applied a forged record");
    }

    let copy = certified_record(object, 1, reencoded(&meant), &digest);
    for &s in &secondaries[1..] {
        dep.sim.inject(source, s, ReplicaMsg::Commit(copy.clone()));
    }
    dep.sim.run_for(SimDuration::from_secs(2));
    for &s in &secondaries[1..] {
        let view = dep.secondary(s).committed_view(&object).expect("holds the object");
        assert_eq!(view.version_number(), 2, "{s:?} refused the genuine bytes");
    }
}
