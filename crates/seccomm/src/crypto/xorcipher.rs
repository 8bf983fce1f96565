//! The "trivial XOR with a key" cipher of the paper's measured SecComm
//! configuration (§4.2). Zero security, non-zero cost — exactly its role in
//! the evaluation.

/// XORs `data` with `key` repeated cyclically. Self-inverse.
pub fn xor_cipher(key: &[u8], data: &[u8]) -> Vec<u8> {
    let mut out = vec![0; data.len()];
    xor_into(key, data, &mut out);
    out
}

/// [`xor_cipher`] into a buffer the caller owns, of `data`'s length.
pub(crate) fn xor_into(key: &[u8], data: &[u8], out: &mut [u8]) {
    out.copy_from_slice(data);
    if key.is_empty() {
        return;
    }
    // One key-length piece at a time: the inner loop is a plain zip of two
    // slices, with no per-byte wrap-around check.
    for piece in out.chunks_mut(key.len()) {
        for (b, k) in piece.iter_mut().zip(key) {
            *b ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_inverse() {
        let key = b"sekrit";
        let msg: Vec<u8> = (0..100).collect();
        let ct = xor_cipher(key, &msg);
        assert_ne!(ct, msg);
        assert_eq!(xor_cipher(key, &ct), msg);
    }

    #[test]
    fn empty_key_is_identity() {
        assert_eq!(xor_cipher(&[], &[1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn empty_data() {
        assert!(xor_cipher(b"k", &[]).is_empty());
    }

    #[test]
    fn key_cycles() {
        let ct = xor_cipher(&[0xFF, 0x00], &[0xAA, 0xAA, 0xAA]);
        assert_eq!(ct, vec![0x55, 0xAA, 0x55]);
    }
}
