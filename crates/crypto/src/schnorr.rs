//! Schnorr signatures over a 61-bit Schnorr group, from scratch.
//!
//! OceanStore requires that "all writes be signed" (§4.2) and that the
//! primary tier "signs the result" of serialization (§4.4.4). The paper
//! assumes a production signature scheme (DSA/RSA). We substitute a real —
//! but *toy-security* — Schnorr scheme over the subgroup of prime order `q`
//! inside `Z_p^*` where `p = 2q + 1` is a safe prime near `2^61`. The
//! interface (key pairs, sign, verify, signatures travelling inside
//! messages) is exactly what the protocols need; no experiment depends on
//! the discrete-log being hard against a real attacker.
//!
//! Nonces are derived deterministically RFC 6979-style (HMAC of the secret
//! key and message), so signing never needs an RNG and whole-system runs are
//! reproducible.
//!
//! Signatures are in `(R, s)` form — the commitment `R = g^k` travels with
//! the response instead of the challenge hash. Fixed bases (`g` and every
//! `y` seen by a verifier) get 16×16 nibble-comb precomputation tables,
//! cutting a single exponentiation from ~180 modular multiplications to
//! ~15. That leaves the challenge hash as the dominant cost of [`verify`]
//! — a per-signature cost no batch equation amortises — so
//! [`batch_verify`] is a loop of [`verify`].
//!
//! [`KeyPair::sign_ref`] / [`verify_ref`] are the table-free reference
//! path (plain square-and-multiply), kept as the oracle tests compare the
//! fast paths with; they produce and accept the same signatures.
//!
//! For byte accounting in the simulator we charge each signature
//! [`Signature::WIRE_SIZE`] bytes and each public key
//! [`PublicKey::WIRE_SIZE`] bytes — the sizes of the DSA equivalents the
//! paper would have used — rather than the smaller toy representation.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::hmac::hmac_sha256;
use crate::sha256::sha256_concat;

/// Group parameters: a safe prime `p = 2q + 1` and a generator `g` of the
/// order-`q` subgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    /// Safe prime modulus.
    pub p: u64,
    /// Prime order of the subgroup, `(p - 1) / 2`.
    pub q: u64,
    /// Generator of the order-`q` subgroup.
    pub g: u64,
}

/// Returns the shared group used by the whole system.
///
/// The parameters are found deterministically at first use: the smallest
/// safe prime `p > 2^60` and the generator derived from the smallest
/// quadratic residue ≠ 1.
pub fn group() -> &'static Group {
    static GROUP: OnceLock<Group> = OnceLock::new();
    GROUP.get_or_init(|| {
        let mut q = (1u64 << 60) | 1; // odd candidates for q
        loop {
            if is_prime_u64(q) && is_prime_u64(2 * q + 1) {
                let p = 2 * q + 1;
                // g = h^2 mod p is in the order-q subgroup; find h with g != 1.
                let mut h = 2u64;
                loop {
                    let g = mul_mod(h, h, p);
                    if g != 1 {
                        return Group { p, q, g };
                    }
                    h += 1;
                }
            }
            q += 2;
        }
    })
}

/// A private signing key.
///
/// Deliberately does not implement `Clone`/`Copy` semantics that would make
/// accidental duplication easy to miss — except `Clone`, which the replica
/// machinery needs when a key is shared between a server object and its
/// protocol engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrivateKey {
    x: u64,
}

/// A public verification key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey {
    y: u64,
}

/// A key pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPair {
    private: PrivateKey,
    public: PublicKey,
}

/// A Schnorr signature `(R, s)`: the nonce commitment `R = g^k` and the
/// response `s = k + e·x mod q`.
///
/// `Default` is the all-zero placeholder used while a message is being
/// built, before the real signature over its canonical bytes is computed;
/// it never verifies (zero is outside the group).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Signature {
    r: u64,
    s: u64,
}

impl PublicKey {
    /// Wire size charged per public key (20-byte hash of a production key,
    /// as the paper's server GUIDs are; §4.1).
    pub const WIRE_SIZE: usize = 20;

    /// Raw group element (for hashing into GUIDs).
    pub fn to_bytes(self) -> [u8; 8] {
        self.y.to_be_bytes()
    }

    /// Reconstructs a key from bytes previously produced by
    /// [`PublicKey::to_bytes`]. Returns `None` if the element is not in the
    /// group.
    pub fn from_bytes(bytes: [u8; 8]) -> Option<Self> {
        let y = u64::from_be_bytes(bytes);
        let grp = group();
        if y == 0 || y >= grp.p || pow_mod(y, grp.q, grp.p) != 1 {
            return None;
        }
        Some(PublicKey { y })
    }
}

impl Signature {
    /// Wire size charged per signature (two 160-bit values, like DSA).
    pub const WIRE_SIZE: usize = 40;

    /// Serializes the signature (toy representation, 16 bytes).
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.r.to_be_bytes());
        out[8..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Deserializes a signature.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Signature {
            r: u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes")),
            s: u64::from_be_bytes(bytes[8..].try_into().expect("8 bytes")),
        }
    }
}

/// Fixed-base exponentiation table: 16 windows of 4 bits, so any exponent
/// below `2^64` is a product of at most 16 table entries
/// (`table[w][d] = base^(d · 16^w)`), ~15 modular multiplications instead
/// of ~180 for square-and-multiply at this group size. 2 KiB per base.
#[derive(Debug)]
struct FixedBase {
    table: [[u64; 16]; 16],
    p: u64,
}

impl FixedBase {
    fn new(base: u64, p: u64) -> Self {
        let mut table = [[1u64; 16]; 16];
        let mut b = base % p; // base^(16^w), advanced by 4 squarings per level
        for row in table.iter_mut() {
            for d in 1..16 {
                row[d] = mul_mod(row[d - 1], b, p);
            }
            b = row[15]; // base^(15·16^w) · base^(16^w) = base^(16^(w+1))
            b = mul_mod(b, row[1], p);
        }
        FixedBase { table, p }
    }

    fn pow(&self, exp: u64) -> u64 {
        let mut acc = 1u64;
        let mut e = exp;
        let mut w = 0;
        while e != 0 {
            let d = (e & 15) as usize;
            if d != 0 {
                acc = mul_mod(acc, self.table[w][d], self.p);
            }
            e >>= 4;
            w += 1;
        }
        acc
    }
}

/// The generator's comb table, shared by every signer and verifier.
fn gen_table() -> &'static FixedBase {
    static GEN: OnceLock<FixedBase> = OnceLock::new();
    GEN.get_or_init(|| {
        let grp = group();
        FixedBase::new(grp.g, grp.p)
    })
}

/// Per-public-key comb tables, built lazily on first verification against a
/// key and shared process-wide. A tier of replicas verifies against the
/// same handful of keys millions of times, so the ~300-multiplication build
/// cost amortizes immediately.
fn key_table(y: u64) -> Arc<FixedBase> {
    static TABLES: OnceLock<RwLock<HashMap<u64, Arc<FixedBase>>>> = OnceLock::new();
    let tables = TABLES.get_or_init(|| RwLock::new(HashMap::new()));
    if let Some(t) = tables.read().expect("key table lock").get(&y) {
        return Arc::clone(t);
    }
    let built = Arc::new(FixedBase::new(y, group().p));
    let mut w = tables.write().expect("key table lock");
    Arc::clone(w.entry(y).or_insert(built))
}

impl KeyPair {
    /// Derives a key pair deterministically from a seed (e.g. a server
    /// identity in the simulator).
    pub fn from_seed(seed: &[u8]) -> Self {
        let grp = group();
        let d = hmac_sha256(b"oceanstore-keygen", seed);
        let x = u64::from_be_bytes(d[..8].try_into().expect("8 bytes")) % (grp.q - 1) + 1;
        let y = pow_mod(grp.g, x, grp.p);
        KeyPair { private: PrivateKey { x }, public: PublicKey { y } }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `msg` (fast path: `g^k` through the generator comb table).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let k = self.nonce(msg);
        let r = gen_table().pow(k);
        self.finish(k, r, msg)
    }

    /// Reference signing path: identical output to [`KeyPair::sign`], but
    /// `g^k` by plain square-and-multiply and the challenge through the
    /// scalar SHA-256. A test oracle for the table-driven path.
    pub fn sign_ref(&self, msg: &[u8]) -> Signature {
        let grp = group();
        let k = self.nonce(msg);
        let r = pow_mod(grp.g, k, grp.p);
        let e = challenge_ref(r, self.public.y, msg) % grp.q;
        let s = (k as u128 + mul_mod(e, self.private.x, grp.q) as u128) % grp.q as u128;
        Signature { r, s: s as u64 }
    }

    /// Deterministic nonce; retry with a counter in the (vanishingly
    /// unlikely) event k == 0.
    fn nonce(&self, msg: &[u8]) -> u64 {
        let grp = group();
        let mut ctr = 0u32;
        loop {
            let mut seed = [0u8; 12];
            seed[..8].copy_from_slice(&self.private.x.to_be_bytes());
            seed[8..].copy_from_slice(&ctr.to_be_bytes());
            let d = hmac_sha256(&seed, msg);
            let k = u64::from_be_bytes(d[..8].try_into().expect("8 bytes")) % grp.q;
            if k != 0 {
                return k;
            }
            ctr += 1;
        }
    }

    fn finish(&self, k: u64, r: u64, msg: &[u8]) -> Signature {
        let grp = group();
        let e = challenge(r, self.public.y, msg) % grp.q;
        let s = (k as u128 + mul_mod(e, self.private.x, grp.q) as u128) % grp.q as u128;
        Signature { r, s: s as u64 }
    }
}

/// Verifies that `sig` is a valid signature on `msg` under `key`.
///
/// Fast path: both exponentiations (`g^s` and `y^e`) go through comb
/// tables; checks `g^s == R · y^e (mod p)`.
pub fn verify(key: PublicKey, msg: &[u8], sig: &Signature) -> bool {
    let grp = group();
    if sig.s >= grp.q || sig.r == 0 || sig.r >= grp.p {
        return false;
    }
    let e = challenge(sig.r, key.y, msg) % grp.q;
    let lhs = gen_table().pow(sig.s);
    let rhs = mul_mod(sig.r, key_table(key.y).pow(e), grp.p);
    lhs == rhs
}

/// Reference verification path: identical accept/reject behaviour to
/// [`verify`], but both exponentiations by plain square-and-multiply and
/// the challenge through the scalar SHA-256. A test oracle for [`verify`].
pub fn verify_ref(key: PublicKey, msg: &[u8], sig: &Signature) -> bool {
    let grp = group();
    if sig.s >= grp.q || sig.r == 0 || sig.r >= grp.p {
        return false;
    }
    let e = challenge_ref(sig.r, key.y, msg) % grp.q;
    let lhs = pow_mod(grp.g, sig.s, grp.p);
    let rhs = mul_mod(sig.r, pow_mod(key.y, e, grp.p), grp.p);
    lhs == rhs
}

/// Whether every signature in `items` is valid; the empty batch is
/// vacuously so. One [`verify`] per item, stopping at the first failure.
pub fn batch_verify(items: &[(PublicKey, &[u8], Signature)]) -> bool {
    items.iter().all(|(key, msg, sig)| verify(*key, msg, sig))
}

fn challenge(r: u64, y: u64, msg: &[u8]) -> u64 {
    let d = sha256_concat(&[&r.to_be_bytes(), &y.to_be_bytes(), msg]);
    u64::from_be_bytes(d[..8].try_into().expect("8 bytes"))
}

/// Same challenge value as [`challenge`], computed through the scalar
/// SHA-256 path so `sign_ref`/`verify_ref` share no fast-path code with
/// what they are the oracle for.
fn challenge_ref(r: u64, y: u64, msg: &[u8]) -> u64 {
    let d = crate::sha256::sha256_concat_ref(&[&r.to_be_bytes(), &y.to_be_bytes(), msg]);
    u64::from_be_bytes(d[..8].try_into().expect("8 bytes"))
}

/// `a * b mod m` without overflow.
pub(crate) fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `base ^ exp mod m` by square-and-multiply.
pub(crate) fn pow_mod(base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64;
    let mut b = base % m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, b, m);
        }
        b = mul_mod(b, b, m);
        exp >>= 1;
    }
    acc
}

/// Deterministic Miller–Rabin, exact for all `u64` with this witness set.
pub(crate) fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_parameters_are_sound() {
        let grp = group();
        assert!(is_prime_u64(grp.p));
        assert!(is_prime_u64(grp.q));
        assert_eq!(grp.p, 2 * grp.q + 1);
        // g generates the order-q subgroup: g^q == 1 and g != 1.
        assert_eq!(pow_mod(grp.g, grp.q, grp.p), 1);
        assert_ne!(grp.g, 1);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(b"server-1");
        let sig = kp.sign(b"hello oceanstore");
        assert!(verify(kp.public(), b"hello oceanstore", &sig));
    }

    #[test]
    fn fast_paths_agree_with_reference_paths() {
        for seed in 0..16u32 {
            let kp = KeyPair::from_seed(&seed.to_be_bytes());
            let msg = [seed as u8, 1, 2, 3];
            let sig = kp.sign(&msg);
            assert_eq!(sig, kp.sign_ref(&msg), "sign and sign_ref diverge");
            assert!(verify(kp.public(), &msg, &sig));
            assert!(verify_ref(kp.public(), &msg, &sig));
            let mut bad = sig;
            bad.s ^= 1;
            assert_eq!(
                verify(kp.public(), &msg, &bad),
                verify_ref(kp.public(), &msg, &bad)
            );
        }
    }

    #[test]
    fn fixed_base_table_matches_pow_mod() {
        let grp = group();
        let tbl = FixedBase::new(grp.g, grp.p);
        for exp in [0u64, 1, 2, 15, 16, 17, 255, grp.q - 1, 0x0123_4567_89ab_cdef % grp.q] {
            assert_eq!(tbl.pow(exp), pow_mod(grp.g, exp, grp.p), "exp={exp}");
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = KeyPair::from_seed(b"server-1");
        let sig = kp.sign(b"hello");
        assert!(!verify(kp.public(), b"hellp", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = KeyPair::from_seed(b"server-1");
        let kp2 = KeyPair::from_seed(b"server-2");
        let sig = kp1.sign(b"msg");
        assert!(!verify(kp2.public(), b"msg", &sig));
    }

    #[test]
    fn forged_signature_rejected() {
        let kp = KeyPair::from_seed(b"server-1");
        let mut sig = kp.sign(b"msg");
        sig.s ^= 1;
        assert!(!verify(kp.public(), b"msg", &sig));
        let mut sig2 = kp.sign(b"msg");
        sig2.r ^= 1;
        assert!(!verify(kp.public(), b"msg", &sig2));
    }

    #[test]
    fn default_signature_rejected() {
        let kp = KeyPair::from_seed(b"server-1");
        assert!(!verify(kp.public(), b"msg", &Signature::default()));
        assert!(!verify_ref(kp.public(), b"msg", &Signature::default()));
    }

    #[test]
    fn out_of_range_signature_rejected() {
        let kp = KeyPair::from_seed(b"server-1");
        let grp = group();
        assert!(!verify(kp.public(), b"msg", &Signature { r: grp.p, s: 0 }));
        assert!(!verify(kp.public(), b"msg", &Signature { r: 1, s: grp.q }));
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = KeyPair::from_seed(b"server-1");
        assert_eq!(kp.sign(b"msg"), kp.sign(b"msg"));
    }

    #[test]
    fn keygen_is_deterministic_and_seed_sensitive() {
        assert_eq!(KeyPair::from_seed(b"a"), KeyPair::from_seed(b"a"));
        assert_ne!(KeyPair::from_seed(b"a").public(), KeyPair::from_seed(b"b").public());
    }

    #[test]
    fn public_key_roundtrip() {
        let kp = KeyPair::from_seed(b"server-xyz");
        let b = kp.public().to_bytes();
        assert_eq!(PublicKey::from_bytes(b), Some(kp.public()));
    }

    #[test]
    fn public_key_from_bad_bytes_rejected() {
        assert_eq!(PublicKey::from_bytes([0u8; 8]), None);
        assert_eq!(PublicKey::from_bytes([0xff; 8]), None);
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let kp = KeyPair::from_seed(b"s");
        let sig = kp.sign(b"m");
        assert_eq!(Signature::from_bytes(sig.to_bytes()), sig);
    }

    #[test]
    fn non_subgroup_commitment_rejected() {
        // R' = p - R flips the quadratic-residue bit: the same value up to
        // sign, outside the order-q subgroup.
        let grp = group();
        let kp = KeyPair::from_seed(b"server-1");
        let mut sig = kp.sign(b"m1");
        sig.r = grp.p - sig.r;
        assert!(!verify(kp.public(), b"m1", &sig));
        assert!(!verify_ref(kp.public(), b"m1", &sig));
    }

    #[test]
    fn batch_verify_is_all_of_verify() {
        let kps: Vec<KeyPair> =
            (0..3u32).map(|i| KeyPair::from_seed(&i.to_be_bytes())).collect();
        let msgs: Vec<Vec<u8>> = (0..5u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let mut batch: Vec<(PublicKey, &[u8], Signature)> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let kp = &kps[i % kps.len()];
                (kp.public(), m.as_slice(), kp.sign(m))
            })
            .collect();
        assert!(batch_verify(&batch));
        assert!(batch_verify(&[]));
        batch[3].2.s ^= 0x10;
        assert!(!batch_verify(&batch));
    }

    #[test]
    fn miller_rabin_known_values() {
        assert!(is_prime_u64(2));
        assert!(is_prime_u64(7919));
        assert!(is_prime_u64(2_147_483_647)); // 2^31 - 1
        assert!(!is_prime_u64(1));
        assert!(!is_prime_u64(561)); // Carmichael
        assert!(!is_prime_u64(3_215_031_751)); // strong pseudoprime to 2,3,5,7
    }
}
