//! DES (Data Encryption Standard), implemented from scratch.
//!
//! The paper's measured SecComm configuration uses DES as one of its two
//! privacy micro-protocols; most of SecComm's execution time is spent in
//! these routines (§4.2), so a faithful reproduction needs a real cipher,
//! not a stub. This is FIPS 46-3 — initial/final permutations, 16 Feistel
//! rounds, and the PC-1/PC-2 key schedule — in the table-driven form every
//! library DES uses:
//!
//! * the S-boxes and the round permutation P are folded into eight
//!   combined tables (`SP`, 2 KiB), so a round is eight lookups OR-ed
//!   together instead of eight S-box reads and a 32-step bit loop;
//! * the expansion E only duplicates neighbouring bits, so its eight 6-bit
//!   groups are read straight out of two rotations of `r`;
//! * IP and FP are five delta-swaps each;
//! * round keys are stored as the two words those rotations are XOR-ed
//!   with, not as 48-bit integers to be sliced per round.
//!
//! `SP` is *derived*, not typed: a `const fn` builds it at compile time
//! from the FIPS `SBOX` and `P` tables below, so the constants to check
//! against the standard are the ones printed in it. The bit-at-a-time
//! `permute` survives only there and in the (cold) key schedule; the
//! textbook block function built on it lives in the tests, with the FIPS
//! IP, FP and E tables, as the oracle the fast path (delta-swap masks and
//! subkey layout included) is checked against bit for bit.
//!
//! Messages are padded with PKCS#7 and processed in ECB mode (sufficient
//! for the single-block-chain measurements the paper makes; DES itself is
//! of course obsolete as a security primitive).

use std::fmt;

/// Round permutation (P).
const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, 2, 8, 24, 14, 32, 27, 3, 9, 19,
    13, 30, 6, 22, 11, 4, 25,
];

/// Permuted choice 1 (PC-1): 64 → 56 bits.
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, 10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60,
    52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, 14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
];

/// Permuted choice 2 (PC-2): 56 → 48 bits.
const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, 23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, 41, 52,
    31, 37, 47, 55, 30, 40, 51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Left-rotation schedule per round.
const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// The eight S-boxes.
const SBOX: [[u8; 64]; 8] = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7, 0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12,
        11, 9, 5, 3, 8, 4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0, 15, 12, 8, 2, 4, 9,
        1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10, 3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1,
        10, 6, 9, 11, 5, 0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15, 13, 8, 10, 1, 3, 15,
        4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8, 13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5,
        14, 12, 11, 15, 1, 13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7, 1, 10, 13, 0, 6,
        9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15, 13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2,
        12, 1, 10, 14, 9, 10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4, 3, 15, 0, 6, 10, 1,
        13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9, 14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15,
        10, 3, 9, 8, 6, 4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14, 11, 8, 12, 7, 1, 14,
        2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11, 10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13,
        14, 0, 11, 3, 8, 9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6, 4, 3, 2, 12, 9, 5,
        15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1, 13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5,
        12, 2, 15, 8, 6, 1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2, 6, 11, 13, 8, 1, 4,
        10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7, 1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6,
        11, 0, 14, 9, 2, 7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8, 2, 1, 14, 7, 4, 10,
        8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
];

/// Applies a 1-based bit-selection table to the top `from_bits` bits of `v`.
const fn permute(v: u64, from_bits: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < table.len() {
        out = (out << 1) | ((v >> (from_bits - table[i] as u32)) & 1);
        i += 1;
    }
    out
}

/// Builds [`SP`]: entry `[i][x]` is S-box `i` applied to the 6-bit group
/// `x`, placed in its nibble of the 32-bit S-box output and sent through P.
const fn sp_tables() -> [[u32; 64]; 8] {
    let mut sp = [[0u32; 64]; 8];
    let mut i = 0;
    while i < 8 {
        let mut x = 0;
        while x < 64 {
            let row = ((x & 0x20) >> 4) | (x & 1);
            let col = (x >> 1) & 0xF;
            let s = (SBOX[i][row * 16 + col] as u64) << (28 - 4 * i);
            // P's 1-based indices address a 32-bit word; placing it in the
            // high half of a u64 lines them up with `permute`'s convention.
            sp[i][x] = permute(s << 32, 64, &P) as u32;
            x += 1;
        }
        i += 1;
    }
    sp
}

/// The eight combined S-box + P tables.
static SP: [[u32; 64]; 8] = sp_tables();

/// Swaps the bits of `v` selected by `mask` with those `delta` above them.
fn delta_swap(v: u64, delta: u32, mask: u64) -> u64 {
    let t = (v ^ (v >> delta)) & mask;
    v ^ t ^ (t << delta)
}

/// Initial permutation (IP) as a delta-swap network. IP permutes (and
/// complements) the six bits of a bit's *index*, so five swaps of index-bit
/// pairs compose it; a test checks the network against the FIPS table.
fn initial_permutation(mut v: u64) -> u64 {
    v = delta_swap(v, 12, 0x0000_F0F0_0000_F0F0);
    v = delta_swap(v, 33, 0x0000_0000_5555_5555);
    v = delta_swap(v, 6, 0x00CC_00CC_00CC_00CC);
    v = delta_swap(v, 3, 0x0A0A_0A0A_0A0A_0A0A);
    delta_swap(v, 3, 0x1111_1111_1111_1111)
}

/// Final permutation (IP⁻¹): the same swaps in reverse order.
fn final_permutation(mut v: u64) -> u64 {
    v = delta_swap(v, 3, 0x1111_1111_1111_1111);
    v = delta_swap(v, 3, 0x0A0A_0A0A_0A0A_0A0A);
    v = delta_swap(v, 6, 0x00CC_00CC_00CC_00CC);
    v = delta_swap(v, 33, 0x0000_0000_5555_5555);
    delta_swap(v, 12, 0x0000_F0F0_0000_F0F0)
}

/// A DES key schedule (16 round subkeys), precomputed from an 8-byte key.
#[derive(Clone, PartialEq, Eq)]
pub struct DesKey {
    /// Per round, the 48-bit subkey's eight 6-bit groups split by parity:
    /// `[0]` holds groups 0, 2, 4, 6 and `[1]` groups 1, 3, 5, 7, one per
    /// byte from the top — the positions the same groups of E(r) occupy in
    /// `r.rotate_right(3)` and `r.rotate_left(1)`.
    subkeys: [[u32; 2]; 16],
}

/// Key material never reaches a log line.
impl fmt::Debug for DesKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DesKey(..)")
    }
}

impl DesKey {
    /// Derives the key schedule from an 8-byte key (parity bits ignored,
    /// as in the standard).
    pub fn new(key: &[u8; 8]) -> Self {
        let k = u64::from_be_bytes(*key);
        let pc1 = permute(k, 64, &PC1);
        let mut c = (pc1 >> 28) & 0x0FFF_FFFF;
        let mut d = pc1 & 0x0FFF_FFFF;
        let mut subkeys = [[0u32; 2]; 16];
        for (subkey, &s) in subkeys.iter_mut().zip(&SHIFTS) {
            let s = u32::from(s);
            c = ((c << s) | (c >> (28 - s))) & 0x0FFF_FFFF;
            d = ((d << s) | (d >> (28 - s))) & 0x0FFF_FFFF;
            let k48 = permute((c << 28) | d, 56, &PC2);
            for group in 0..8 {
                let bits = ((k48 >> (42 - 6 * group)) & 0x3F) as u32;
                subkey[group % 2] |= bits << (24 - 8 * (group / 2));
            }
        }
        DesKey { subkeys }
    }

    /// Encrypts one 64-bit block.
    pub fn encrypt_block(&self, block: u64) -> u64 {
        self.crypt_block(block, false)
    }

    /// Decrypts one 64-bit block.
    pub fn decrypt_block(&self, block: u64) -> u64 {
        self.crypt_block(block, true)
    }

    fn crypt_block(&self, block: u64, decrypt: bool) -> u64 {
        let ip = initial_permutation(block);
        let mut l = (ip >> 32) as u32;
        let mut r = ip as u32;
        for round in 0..16 {
            let [k_even, k_odd] = self.subkeys[if decrypt { 15 - round } else { round }];
            // E(r) ^ subkey, four 6-bit groups to a word (see `subkeys`).
            let even = r.rotate_right(3) ^ k_even;
            let odd = r.rotate_left(1) ^ k_odd;
            let f = SP[0][(even >> 24 & 0x3F) as usize]
                | SP[1][(odd >> 24 & 0x3F) as usize]
                | SP[2][(even >> 16 & 0x3F) as usize]
                | SP[3][(odd >> 16 & 0x3F) as usize]
                | SP[4][(even >> 8 & 0x3F) as usize]
                | SP[5][(odd >> 8 & 0x3F) as usize]
                | SP[6][(even & 0x3F) as usize]
                | SP[7][(odd & 0x3F) as usize];
            (l, r) = (r, l ^ f);
        }
        // Final swap: R16 || L16.
        final_permutation((u64::from(r) << 32) | u64::from(l))
    }
}

/// Encrypts `data` under `key`, PKCS#7-padded, ECB mode.
pub fn encrypt(key: &DesKey, data: &[u8]) -> Vec<u8> {
    let mut out = vec![0; encrypted_len(data.len())];
    encrypt_into(key, data, &mut out);
    out
}

/// Length of [`encrypt`]'s output for `len` bytes of input: padded up to
/// the next whole block, a full block of padding when already whole.
pub(crate) fn encrypted_len(len: usize) -> usize {
    len + 8 - len % 8
}

/// [`encrypt`] into a buffer the caller owns, of
/// [`encrypted_len`]`(data.len())` bytes.
pub(crate) fn encrypt_into(key: &DesKey, data: &[u8], out: &mut [u8]) {
    let (body, padding) = out.split_at_mut(data.len());
    body.copy_from_slice(data);
    padding.fill(padding.len() as u8);
    for chunk in out.chunks_exact_mut(8) {
        let block = u64::from_be_bytes((&*chunk).try_into().expect("8-byte chunk"));
        chunk.copy_from_slice(&key.encrypt_block(block).to_be_bytes());
    }
}

/// Decrypts `data` (as produced by [`encrypt`]) and strips the padding.
///
/// # Errors
///
/// Returns a description when the input length or padding is invalid —
/// i.e. the ciphertext was not produced by [`encrypt`] under this key.
pub fn decrypt(key: &DesKey, data: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = vec![0; decrypted_len(key, data)?];
    decrypt_into(key, data, &mut out);
    Ok(out)
}

/// Length of the plaintext in `data`, read off its last block (the padding
/// never spans more than one), so the output can be sized before it is
/// built.
///
/// # Errors
///
/// As [`decrypt`]: every check it makes is made here.
pub(crate) fn decrypted_len(key: &DesKey, data: &[u8]) -> Result<usize, String> {
    if data.is_empty() || !data.len().is_multiple_of(8) {
        return Err(format!(
            "ciphertext length {} not a positive multiple of 8",
            data.len()
        ));
    }
    let last = data.last_chunk::<8>().expect("at least one whole block");
    let last = key.decrypt_block(u64::from_be_bytes(*last)).to_be_bytes();
    let pad = usize::from(last[7]);
    if pad == 0 || pad > 8 || last[8 - pad..].iter().any(|&b| usize::from(b) != pad) {
        return Err("invalid padding".to_string());
    }
    Ok(data.len() - pad)
}

/// [`decrypt`] into a buffer the caller owns, of
/// [`decrypted_len`]`(key, data)` bytes.
pub(crate) fn decrypt_into(key: &DesKey, data: &[u8], out: &mut [u8]) {
    // `out` ends inside (or just before) the last block: the zip stops
    // there and the short chunk takes the block's leading bytes.
    for (plain, chunk) in out.chunks_mut(8).zip(data.chunks_exact(8)) {
        let block = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        plain.copy_from_slice(&key.decrypt_block(block).to_be_bytes()[..plain.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Initial permutation (IP).
    const IP: [u8; 64] = [
        58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, 62, 54, 46, 38, 30, 22, 14,
        6, 64, 56, 48, 40, 32, 24, 16, 8, 57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11,
        3, 61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
    ];

    /// Final permutation (IP⁻¹).
    const FP: [u8; 64] = [
        40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31, 38, 6, 46, 14, 54, 22, 62,
        30, 37, 5, 45, 13, 53, 21, 61, 29, 36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19,
        59, 27, 34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
    ];

    /// Expansion (E): 32 → 48 bits.
    const E: [u8; 48] = [
        32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17, 16, 17,
        18, 19, 20, 21, 20, 21, 22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
    ];

    /// The textbook form this module used to ship: 48-bit subkeys and every
    /// permutation (IP, E, P, FP) as a bit-at-a-time [`permute`] loop. The
    /// oracle for the table-driven path.
    struct Reference {
        subkeys: [u64; 16],
    }

    impl Reference {
        fn new(key: &[u8; 8]) -> Self {
            let pc1 = permute(u64::from_be_bytes(*key), 64, &PC1);
            let mut c = (pc1 >> 28) & 0x0FFF_FFFF;
            let mut d = pc1 & 0x0FFF_FFFF;
            let mut subkeys = [0u64; 16];
            for (i, &s) in SHIFTS.iter().enumerate() {
                let s = u32::from(s);
                c = ((c << s) | (c >> (28 - s))) & 0x0FFF_FFFF;
                d = ((d << s) | (d >> (28 - s))) & 0x0FFF_FFFF;
                subkeys[i] = permute((c << 28) | d, 56, &PC2);
            }
            Reference { subkeys }
        }

        fn reference_crypt_block(&self, block: u64, decrypt: bool) -> u64 {
            let ip = permute(block, 64, &IP);
            let mut l = (ip >> 32) as u32;
            let mut r = (ip & 0xFFFF_FFFF) as u32;
            for round in 0..16 {
                let k = if decrypt {
                    self.subkeys[15 - round]
                } else {
                    self.subkeys[round]
                };
                let f = feistel(r, k);
                let new_r = l ^ f;
                l = r;
                r = new_r;
            }
            // Final swap: R16 || L16.
            let pre = (u64::from(r) << 32) | u64::from(l);
            permute(pre, 64, &FP)
        }

        /// [`encrypt`] in the textbook form: pad, then block by block.
        fn encrypt(&self, data: &[u8]) -> Vec<u8> {
            let pad = 8 - data.len() % 8;
            let mut buf = data.to_vec();
            buf.resize(data.len() + pad, pad as u8);
            self.ecb(&buf, false)
        }

        fn ecb(&self, data: &[u8], decrypt: bool) -> Vec<u8> {
            data.chunks(8)
                .flat_map(|c| {
                    let block = u64::from_be_bytes(c.try_into().unwrap());
                    self.reference_crypt_block(block, decrypt).to_be_bytes()
                })
                .collect()
        }
    }

    fn feistel(r: u32, subkey: u64) -> u32 {
        let expanded = permute(u64::from(r) << 32, 64, &E);
        let x = expanded ^ subkey;
        let mut out = 0u32;
        for (box_idx, sbox) in SBOX.iter().enumerate() {
            let chunk = ((x >> (42 - 6 * box_idx)) & 0x3F) as usize;
            let row = ((chunk & 0x20) >> 4) | (chunk & 1);
            let col = (chunk >> 1) & 0xF;
            out = (out << 4) | u32::from(sbox[row * 16 + col]);
        }
        permute(u64::from(out) << 32, 64, &P) as u32
    }

    fn assert_matches_reference(key: u64, block: u64) {
        let key = key.to_be_bytes();
        let (fast, slow) = (DesKey::new(&key), Reference::new(&key));
        for decrypt in [false, true] {
            assert_eq!(
                fast.crypt_block(block, decrypt),
                slow.reference_crypt_block(block, decrypt),
                "key {key:02X?} block {block:016X} decrypt {decrypt}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn fast_matches_reference(key in any::<u64>(), block in any::<u64>()) {
            assert_matches_reference(key, block);
        }
    }

    #[test]
    fn single_bit_plaintexts_and_keys_match_reference() {
        for bit in 0..64 {
            assert_matches_reference(0x0101_0101_0101_0101, 1 << bit);
            assert_matches_reference(1 << bit, 0);
            assert_matches_reference(0x1334_5779_9BBC_DFF1 ^ (1 << bit), 0x0123_4567_89AB_CDEF);
        }
    }

    #[test]
    fn messages_of_every_length_match_reference() {
        let key = b"8bytekey";
        let (fast, slow) = (DesKey::new(key), Reference::new(key));
        for len in (0..=65).chain([1000]) {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let ct = encrypt(&fast, &msg);
            assert_eq!(ct, slow.encrypt(&msg), "len {len}");
            let padded = slow.ecb(&ct, true);
            assert_eq!(&padded[..len], &msg[..], "len {len}");
            assert_eq!(decrypt(&fast, &ct).unwrap(), msg, "len {len}");
        }
    }

    /// The delta-swap networks are the FIPS IP and FP tables.
    #[test]
    fn delta_swaps_are_the_fips_permutations() {
        for bit in 0..64 {
            let v = 1u64 << bit;
            assert_eq!(initial_permutation(v), permute(v, 64, &IP), "IP bit {bit}");
            assert_eq!(final_permutation(v), permute(v, 64, &FP), "FP bit {bit}");
        }
    }

    /// Published known answers (NBS SP 500-20 variable-plaintext and
    /// variable-key tables).
    #[test]
    fn published_known_answers() {
        let weak = DesKey::new(&0x0101_0101_0101_0101u64.to_be_bytes());
        for (pt, ct) in [
            (0x8000_0000_0000_0000u64, 0x95F8_A5E5_DD31_D900u64),
            (0x4000_0000_0000_0000, 0xDD7F_121C_A501_5619),
            (0x2000_0000_0000_0000, 0x2E86_5310_4F38_34EA),
            (0x1000_0000_0000_0000, 0x4BD3_88FF_6CD8_1D4F),
            (0x0800_0000_0000_0000, 0x20B9_E767_B2FB_1456),
            (0x0000_0000_0000_0001, 0x166B_40B4_4ABA_4BD6),
        ] {
            assert_eq!(weak.encrypt_block(pt), ct, "plaintext {pt:016X}");
            assert_eq!(weak.decrypt_block(ct), pt, "ciphertext {ct:016X}");
        }
        for (key, ct) in [
            (0x8001_0101_0101_0101u64, 0x95A8_D728_13DA_A94Du64),
            (0x4001_0101_0101_0101, 0x0EEC_1487_DD8C_26D5),
            (0x0101_0101_0101_0102, 0x869E_FD7F_9F26_5A09),
        ] {
            let k = DesKey::new(&key.to_be_bytes());
            assert_eq!(k.encrypt_block(0), ct, "key {key:016X}");
            assert_eq!(k.decrypt_block(ct), 0, "key {key:016X}");
        }
    }

    #[test]
    fn debug_redacts_the_key_schedule() {
        let key = DesKey::new(b"8bytekey");
        assert_eq!(format!("{key:?}"), "DesKey(..)");
        assert_eq!(format!("{key:#?}"), "DesKey(..)");
    }

    /// The classic worked example (used in countless DES tutorials).
    #[test]
    fn fips_test_vector() {
        let key = DesKey::new(&0x133457799BBCDFF1u64.to_be_bytes());
        let ct = key.encrypt_block(0x0123456789ABCDEF);
        assert_eq!(ct, 0x85E813540F0AB405);
        assert_eq!(key.decrypt_block(ct), 0x0123456789ABCDEF);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let key = DesKey::new(b"8bytekey");
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let ct = encrypt(&key, &msg);
            assert_eq!(ct.len() % 8, 0);
            assert!(ct.len() > msg.len(), "padding always added");
            assert_eq!(decrypt(&key, &ct).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let key = DesKey::new(b"8bytekey");
        let msg = vec![0u8; 64];
        let ct = encrypt(&key, &msg);
        assert_ne!(&ct[..64], &msg[..]);
    }

    #[test]
    fn wrong_key_fails_roundtrip() {
        let k1 = DesKey::new(b"8bytekey");
        let k2 = DesKey::new(b"otherkey");
        let ct = encrypt(&k1, b"attack at dawn");
        if let Ok(pt) = decrypt(&k2, &ct) {
            // Padding usually fails outright; if it happens to parse, the
            // plaintext must still be wrong.
            assert_ne!(pt, b"attack at dawn".to_vec());
        }
    }

    #[test]
    fn malformed_ciphertext_rejected() {
        let key = DesKey::new(b"8bytekey");
        assert!(decrypt(&key, &[]).is_err());
        assert!(decrypt(&key, &[1, 2, 3]).is_err());
        // A last block whose padding byte is zero, longer than a block, or
        // not repeated.
        for last in [*b"abcdefg\x00", *b"abcdefg\x09", *b"abcde\x02\x03\x03"] {
            let ct = key.encrypt_block(u64::from_be_bytes(last)).to_be_bytes();
            assert_eq!(decrypt(&key, &ct), Err("invalid padding".to_string()));
        }
    }
}
