//! Access control (§4.2): reader restriction and writer restriction.
//!
//! "OceanStore supports two primitive types of access control, namely
//! reader restriction and writer restriction. More complicated access
//! control policies, such as working groups, are constructed from these
//! two."
//!
//! * **Readers** are restricted by *key distribution*: data is encrypted
//!   (see `oceanstore_crypto::cipher`) and only holders of the read key can
//!   decrypt — nothing for servers to enforce, so this module carries only
//!   the revocation bookkeeping ([`ReadKeyState`]).
//! * **Writers** are restricted *at servers*: every write is signed, and
//!   well-behaved servers verify it against an ACL chosen by the owner via
//!   a signed certificate ("Owner says use ACL x for object foo"). ACL
//!   entries name a *signing key*, not an explicit identity.

use std::fmt;

use oceanstore_crypto::schnorr::{verify, KeyPair, PublicKey, Signature};

use crate::guid::Guid;

/// A privilege grantable through an ACL entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Privilege {
    /// May submit updates to the object.
    Write,
    /// May change the object's ACL (the owner always can).
    Administer,
}

/// One publicly readable ACL entry: a privilege plus the signing key of the
/// privileged user (never an explicit identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AclEntry {
    /// The privilege granted.
    pub privilege: Privilege,
    /// The key whose signatures exercise it.
    pub signer: PublicKey,
}

/// An access control list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Acl {
    entries: Vec<AclEntry>,
}

impl Acl {
    /// An ACL granting nothing (owner-only).
    pub fn empty() -> Self {
        Acl::default()
    }

    /// Grants `privilege` to `signer`.
    pub fn grant(&mut self, signer: PublicKey, privilege: Privilege) {
        let entry = AclEntry { privilege, signer };
        if !self.entries.contains(&entry) {
            self.entries.push(entry);
        }
    }

    /// Removes every grant of `privilege` to `signer`.
    pub fn revoke(&mut self, signer: PublicKey, privilege: Privilege) {
        self.entries.retain(|e| !(e.signer == signer && e.privilege == privilege));
    }

    /// Whether `signer` holds `privilege` under this ACL.
    pub fn permits(&self, signer: PublicKey, privilege: Privilege) -> bool {
        self.entries.iter().any(|e| e.signer == signer && e.privilege == privilege)
    }

    /// The publicly readable entries.
    pub fn entries(&self) -> &[AclEntry] {
        &self.entries
    }

    /// Canonical bytes for signing/hashing.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|e| (e.signer, matches!(e.privilege, Privilege::Administer)));
        for e in sorted {
            out.extend_from_slice(&e.signer.to_bytes());
            out.push(matches!(e.privilege, Privilege::Administer) as u8);
        }
        out
    }
}

/// Which ACL an object uses: a specific one, or "a value indicating a
/// common default" (§4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AclChoice {
    /// A concrete ACL carried inline.
    Inline(Acl),
    /// Another OceanStore object holding the ACL.
    Object(Guid),
    /// The common default: owner-only writes.
    CommonDefault,
}

/// The signed certificate "Owner says use ACL x for object foo" (§4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclCertificate {
    /// The object the choice applies to.
    pub object: Guid,
    /// The chosen ACL.
    pub choice: AclChoice,
    /// The owner's public key (its hash with the object name must equal
    /// the object GUID for the certificate to be meaningful).
    pub owner: PublicKey,
    /// Owner's signature over (object, choice).
    pub signature: Signature,
}

/// Errors from certificate verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertError {
    /// The signature does not verify under the claimed owner key.
    BadSignature,
    /// The owner key does not certify the object GUID for the given name.
    NotOwner,
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::BadSignature => write!(f, "certificate signature invalid"),
            CertError::NotOwner => write!(f, "key does not own the object GUID"),
        }
    }
}

impl std::error::Error for CertError {}

impl AclCertificate {
    fn message(object: &Guid, choice: &AclChoice) -> Vec<u8> {
        let mut msg = b"acl-cert".to_vec();
        msg.extend_from_slice(object.as_bytes());
        match choice {
            AclChoice::Inline(acl) => {
                msg.push(0);
                msg.extend_from_slice(&acl.canonical_bytes());
            }
            AclChoice::Object(g) => {
                msg.push(1);
                msg.extend_from_slice(g.as_bytes());
            }
            AclChoice::CommonDefault => msg.push(2),
        }
        msg
    }

    /// Owner issues a certificate binding `choice` to `object`.
    pub fn issue(owner: &KeyPair, object: Guid, choice: AclChoice) -> Self {
        let signature = owner.sign(&Self::message(&object, &choice));
        AclCertificate { object, choice, owner: owner.public(), signature }
    }

    /// Server-side verification: the signature must verify, and the owner
    /// key must actually own the object's self-certifying GUID under
    /// `object_name`.
    ///
    /// # Errors
    ///
    /// [`CertError::BadSignature`] or [`CertError::NotOwner`].
    pub fn verify(&self, object_name: &str) -> Result<(), CertError> {
        if !verify(self.owner, &Self::message(&self.object, &self.choice), &self.signature) {
            return Err(CertError::BadSignature);
        }
        if !self.object.certifies(self.owner, object_name) {
            return Err(CertError::NotOwner);
        }
        Ok(())
    }
}

/// Reader-restriction bookkeeping: the current read-key generation and the
/// revocation story of §4.2 ("to revoke read permission, the owner must
/// request that replicas be deleted or re-encrypted with the new key").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadKeyState {
    generation: u64,
    /// Keys (by holder) that received the current generation.
    holders: Vec<PublicKey>,
}

impl Default for ReadKeyState {
    fn default() -> Self {
        Self::new()
    }
}

impl ReadKeyState {
    /// Fresh state at generation 0 with no holders.
    pub fn new() -> Self {
        ReadKeyState { generation: 0, holders: Vec::new() }
    }

    /// Current key generation; the actual symmetric key is derived from
    /// the object's master secret and this number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Grants read access (records key distribution to `reader`).
    pub fn grant(&mut self, reader: PublicKey) {
        if !self.holders.contains(&reader) {
            self.holders.push(reader);
        }
    }

    /// Whether `reader` holds the current generation's key.
    pub fn holds_current_key(&self, reader: PublicKey) -> bool {
        self.holders.contains(&reader)
    }

    /// Revokes `reader`: bumps the generation and re-distributes only to
    /// the remaining holders. Returns the new generation, which the caller
    /// must use to re-encrypt replicas.
    pub fn revoke(&mut self, reader: PublicKey) -> u64 {
        self.holders.retain(|h| *h != reader);
        self.generation += 1;
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oceanstore_crypto::schnorr::KeyPair;

    fn kp(seed: &[u8]) -> KeyPair {
        KeyPair::from_seed(seed)
    }

    #[test]
    fn grant_and_revoke_write() {
        let alice = kp(b"alice").public();
        let mut acl = Acl::empty();
        assert!(!acl.permits(alice, Privilege::Write));
        acl.grant(alice, Privilege::Write);
        assert!(acl.permits(alice, Privilege::Write));
        assert!(!acl.permits(alice, Privilege::Administer));
        acl.revoke(alice, Privilege::Write);
        assert!(!acl.permits(alice, Privilege::Write));
    }

    #[test]
    fn duplicate_grants_collapse() {
        let a = kp(b"a").public();
        let mut acl = Acl::empty();
        acl.grant(a, Privilege::Write);
        acl.grant(a, Privilege::Write);
        assert_eq!(acl.entries().len(), 1);
    }

    #[test]
    fn certificate_roundtrip() {
        let owner = kp(b"owner");
        let object = Guid::for_object(owner.public(), "inbox");
        let mut acl = Acl::empty();
        acl.grant(kp(b"bob").public(), Privilege::Write);
        let cert = AclCertificate::issue(&owner, object, AclChoice::Inline(acl));
        assert_eq!(cert.verify("inbox"), Ok(()));
    }

    #[test]
    fn certificate_rejects_non_owner() {
        let owner = kp(b"owner");
        let mallory = kp(b"mallory");
        // Mallory signs a certificate for an object she does not own.
        let object = Guid::for_object(owner.public(), "inbox");
        let cert = AclCertificate::issue(&mallory, object, AclChoice::CommonDefault);
        assert_eq!(cert.verify("inbox"), Err(CertError::NotOwner));
    }

    #[test]
    fn certificate_rejects_tampered_choice() {
        let owner = kp(b"owner");
        let object = Guid::for_object(owner.public(), "inbox");
        let mut cert = AclCertificate::issue(&owner, object, AclChoice::CommonDefault);
        cert.choice = AclChoice::Object(Guid::from_label("evil"));
        assert_eq!(cert.verify("inbox"), Err(CertError::BadSignature));
    }

    #[test]
    fn certificate_rejects_wrong_name() {
        let owner = kp(b"owner");
        let object = Guid::for_object(owner.public(), "inbox");
        let cert = AclCertificate::issue(&owner, object, AclChoice::CommonDefault);
        assert_eq!(cert.verify("outbox"), Err(CertError::NotOwner));
    }

    #[test]
    fn read_revocation_bumps_generation() {
        let (alice, bob) = (kp(b"alice").public(), kp(b"bob").public());
        let mut state = ReadKeyState::new();
        state.grant(alice);
        state.grant(bob);
        assert!(state.holds_current_key(bob));
        let gen = state.revoke(bob);
        assert_eq!(gen, 1);
        assert!(!state.holds_current_key(bob));
        assert!(state.holds_current_key(alice));
    }
}
