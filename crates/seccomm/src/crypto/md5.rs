//! MD5 (RFC 1321), implemented from scratch.
//!
//! Used by the `KeyedMD5Integrity` micro-protocol of the richer SecComm
//! configuration (paper Fig 2). Obsolete as a security primitive; faithful
//! as a workload.
//!
//! The digest is a streaming state ([`Md5`]): whole 64-byte blocks are
//! compressed straight out of the caller's slice, and only a trailing
//! partial block (and, at the end, the one or two padding blocks) ever
//! sits in the 64-byte stack buffer. Nothing is copied to the heap, and
//! [`keyed_md5`] feeds key, message and key through one state instead of
//! concatenating them first. The two tables below are RFC 1321's own
//! (shift amounts and `floor(2^32 * |sin(i + 1)|)`), printed as in the RFC
//! so they can be checked against it line by line.

/// Per-round left-rotation amounts.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9,
    14, 20, 5, 9, 14, 20, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 6, 10, 15,
    21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived constants.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// One 64-byte block through the compression function.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (w, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
    }
    let [mut a, mut b, mut c, mut d] = *state;
    for i in 0..64 {
        let (f, g) = match i / 16 {
            0 => ((b & c) | (!b & d), i),
            1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
            2 => (b ^ c ^ d, (3 * i + 5) % 16),
            _ => (c ^ (b | !d), (7 * i) % 16),
        };
        let tmp = d;
        d = c;
        c = b;
        b = b.wrapping_add(
            a.wrapping_add(f)
                .wrapping_add(K[i])
                .wrapping_add(m[g])
                .rotate_left(S[i]),
        );
        a = tmp;
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d]) {
        *s = s.wrapping_add(v);
    }
}

/// An incremental MD5 computation: [`Md5::update`] any number of times,
/// then [`Md5::finish`].
pub struct Md5 {
    state: [u32; 4],
    /// Total bytes fed so far; `len % 64` of them wait in `tail`.
    len: u64,
    tail: [u8; 64],
}

impl Default for Md5 {
    fn default() -> Self {
        Md5::new()
    }
}

impl Md5 {
    /// The initial state.
    pub fn new() -> Md5 {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            len: 0,
            tail: [0; 64],
        }
    }

    /// Feeds `data` into the digest.
    pub fn update(&mut self, mut data: &[u8]) {
        let held = (self.len % 64) as usize;
        self.len = self.len.wrapping_add(data.len() as u64);
        if held > 0 {
            let take = data.len().min(64 - held);
            self.tail[held..held + take].copy_from_slice(&data[..take]);
            data = &data[take..];
            if held + take < 64 {
                return;
            }
            compress(&mut self.state, &self.tail);
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64 bytes"));
        }
        let rest = blocks.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
    }

    /// Pads (0x80, zeros, 64-bit little-endian bit length) and returns the
    /// digest.
    pub fn finish(mut self) -> [u8; 16] {
        let held = (self.len % 64) as usize;
        let bit_len = self.len.wrapping_mul(8);
        self.tail[held] = 0x80;
        self.tail[held + 1..].fill(0);
        if held >= 56 {
            // No room for the length: it goes in a second padding block.
            compress(&mut self.state, &self.tail);
            self.tail.fill(0);
        }
        self.tail[56..].copy_from_slice(&bit_len.to_le_bytes());
        compress(&mut self.state, &self.tail);

        digest(self.state)
    }
}

/// The four state words as the 16 little-endian digest bytes.
fn digest(state: [u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Computes the MD5 digest of `data`.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finish()
}

/// Keyed MD5 MAC in the envelope form `MD5(key ‖ message ‖ key)` — the
/// construction contemporary with the paper's `KeyedMD5Integrity`.
pub fn keyed_md5(key: &[u8], message: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(key);
    h.update(message);
    h.update(key);
    h.finish()
}

fn hex(d: &[u8]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

/// Formats a digest as lowercase hex (for diagnostics and tests).
pub fn digest_hex(digest: &[u8; 16]) -> String {
    hex(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1321_vectors() {
        assert_eq!(digest_hex(&md5(b"")), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(digest_hex(&md5(b"a")), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(digest_hex(&md5(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            digest_hex(&md5(b"message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0"
        );
        assert_eq!(
            digest_hex(&md5(b"abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            digest_hex(&md5(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            )),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries must not panic
        // and must be distinct.
        let digests: Vec<_> = (50..70).map(|n| md5(&vec![b'x'; n])).collect();
        for w in digests.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn keyed_md5_depends_on_key_and_message() {
        let m1 = keyed_md5(b"k1", b"msg");
        let m2 = keyed_md5(b"k2", b"msg");
        let m3 = keyed_md5(b"k1", b"msh");
        assert_ne!(m1, m2);
        assert_ne!(m1, m3);
        assert_eq!(m1, keyed_md5(b"k1", b"msg"));
    }

    /// The digest the pre-streaming `md5` computed: pad a copy of the whole
    /// message, then compress it block by block.
    fn one_shot(data: &[u8]) -> [u8; 16] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_le_bytes());
        let mut state = Md5::new().state;
        for block in msg.chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        digest(state)
    }

    #[test]
    fn streaming_matches_one_shot_at_padding_boundaries() {
        for len in [0usize, 55, 56, 63, 64, 65, 119, 120, 1024] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 11 + 5) as u8).collect();
            assert_eq!(md5(&msg), one_shot(&msg), "len {len}");
        }
    }

    #[test]
    fn update_split_at_every_offset() {
        let msg: Vec<u8> = (0..130u8).map(|i| i.wrapping_mul(29)).collect();
        let whole = one_shot(&msg);
        for cut in 0..=msg.len() {
            let mut h = Md5::new();
            h.update(&msg[..cut]);
            h.update(&msg[cut..]);
            assert_eq!(h.finish(), whole, "cut {cut}");
        }
        // Byte at a time, the most fragmented feed there is.
        let mut h = Md5::new();
        for b in &msg {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finish(), whole);
    }

    #[test]
    fn keyed_md5_is_the_digest_of_the_concatenation() {
        for len in [0usize, 30, 38, 64, 1000] {
            let msg = vec![0xA5u8; len];
            let cat = [&b"integrity-key"[..], &msg, b"integrity-key"].concat();
            assert_eq!(
                keyed_md5(b"integrity-key", &msg),
                one_shot(&cat),
                "len {len}"
            );
        }
    }
}
