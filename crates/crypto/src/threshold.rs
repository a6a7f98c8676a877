//! k-of-n aggregate signatures for serialization certificates (§4.4.3).
//!
//! The paper explores "proactive signature techniques \[4\] to certify the
//! result of the serialization process ... for later, offline verification
//! by a party who did not participate in the protocol". True proactive
//! threshold RSA is out of scope; we implement the interface it would slot
//! into: a [`SerializationCert`] carrying individual Schnorr signatures from
//! primary-tier replicas, valid iff at least `threshold` of the known
//! signers vouch for the same serialized result. A party holding only the
//! primary tier's public keys can verify offline, which is the property the
//! protocols need.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::schnorr::{verify, PublicKey, Signature};

/// A multi-signature over one serialized commit result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SerializationCert {
    /// Signer public key → that signer's signature over the result.
    /// Shared: a finished cert is cloned with its commit record at every
    /// tree hop and into every replica's log, and never changes again.
    sigs: Arc<BTreeMap<PublicKey, Signature>>,
}

impl SerializationCert {
    /// An empty certificate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one signer's vote. Re-adding a signer replaces its signature.
    pub fn add(&mut self, signer: PublicKey, sig: Signature) {
        Arc::make_mut(&mut self.sigs).insert(signer, sig);
    }

    /// Number of signatures collected (valid or not).
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the certificate carries no signatures.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Counts signatures that (a) come from a key in `known_signers` and
    /// (b) verify over `msg`.
    pub fn valid_count(&self, msg: &[u8], known_signers: &[PublicKey]) -> usize {
        self.sigs
            .iter()
            .filter(|(pk, sig)| known_signers.contains(pk) && verify(**pk, msg, sig))
            .count()
    }

    /// Offline verification: at least `threshold` known signers vouch for
    /// `msg`.
    pub fn verify_threshold(
        &self,
        msg: &[u8],
        known_signers: &[PublicKey],
        threshold: usize,
    ) -> bool {
        self.valid_count(msg, known_signers) >= threshold
    }

    /// Wire size charged when the certificate travels down the
    /// dissemination tree.
    pub fn wire_size(&self) -> usize {
        self.sigs.len() * (PublicKey::WIRE_SIZE + Signature::WIRE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::KeyPair;

    fn tier(n: usize) -> Vec<KeyPair> {
        (0..n).map(|i| KeyPair::from_seed(format!("primary-{i}").as_bytes())).collect()
    }

    #[test]
    fn threshold_met() {
        let kps = tier(4);
        let pks: Vec<_> = kps.iter().map(|k| k.public()).collect();
        let msg = b"commit #17: order = [u3, u1, u2]";
        let mut cert = SerializationCert::new();
        for kp in &kps[..3] {
            cert.add(kp.public(), kp.sign(msg));
        }
        assert!(cert.verify_threshold(msg, &pks, 3));
        assert!(!cert.verify_threshold(msg, &pks, 4));
    }

    #[test]
    fn unknown_signers_do_not_count() {
        let kps = tier(3);
        let outsider = KeyPair::from_seed(b"adversary");
        let pks: Vec<_> = kps.iter().map(|k| k.public()).collect();
        let msg = b"result";
        let mut cert = SerializationCert::new();
        cert.add(outsider.public(), outsider.sign(msg));
        cert.add(kps[0].public(), kps[0].sign(msg));
        assert_eq!(cert.valid_count(msg, &pks), 1);
    }

    #[test]
    fn bad_signature_does_not_count() {
        let kps = tier(3);
        let pks: Vec<_> = kps.iter().map(|k| k.public()).collect();
        let mut cert = SerializationCert::new();
        // Signature over a different message.
        cert.add(kps[0].public(), kps[0].sign(b"other"));
        cert.add(kps[1].public(), kps[1].sign(b"result"));
        assert_eq!(cert.valid_count(b"result", &pks), 1);
        assert!(!cert.verify_threshold(b"result", &pks, 2));
    }

    #[test]
    fn duplicate_signer_counted_once() {
        let kps = tier(3);
        let pks: Vec<_> = kps.iter().map(|k| k.public()).collect();
        let msg = b"result";
        let mut cert = SerializationCert::new();
        cert.add(kps[0].public(), kps[0].sign(msg));
        cert.add(kps[0].public(), kps[0].sign(msg));
        assert_eq!(cert.len(), 1);
        assert!(!cert.verify_threshold(msg, &pks, 2));
    }
}
