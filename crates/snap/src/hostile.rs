//! The one hostile-bytes sweep every frame decoder is tested with.
//!
//! [`check`] holds one [`Codec`] value to the whole contract — it
//! round-trips, its encoding is canonical, and no corruption of its frame
//! decodes. [`sweep`] is the corruption half on its own, for decoders that
//! sit behind another API (a server restoring an image, the ingress
//! decoding a wire frame): the caller supplies the frame and a closure that
//! unwraps its own error type down to the [`SnapshotError`] underneath.

use crate::{decode, encode, Codec, SnapshotError};
use std::fmt::Debug;

/// Asserts that `decode` accepts `frame` and rejects every corruption of
/// it with the error class the framing promises: every strict prefix is
/// `Truncated`; one flipped bit in each byte is `BadMagic` in the magic
/// (bytes 0..8), `UnsupportedVersion` in the version (8..12), a length
/// error in the payload length (12..20) and `ChecksumMismatch` anywhere
/// after; one trailing byte is `TrailingBytes`. Returns the value the
/// intact frame decodes to.
///
/// # Panics
///
/// On any corruption that decodes, or fails with the wrong class.
pub fn sweep<T: Debug>(frame: &[u8], decode: impl Fn(&[u8]) -> Result<T, SnapshotError>) -> T {
    use SnapshotError::*;
    for cut in 0..frame.len() {
        match decode(&frame[..cut]) {
            Err(Truncated { .. }) => {}
            other => panic!("prefix of {cut} bytes must be Truncated, got {other:?}"),
        }
    }
    for byte in 0..frame.len() {
        let mut bad = frame.to_vec();
        bad[byte] ^= 1 << (byte % 8);
        let err = match decode(&bad) {
            Err(e) => e,
            Ok(v) => panic!("bit flip in byte {byte} decoded to {v:?}"),
        };
        let expected = match byte {
            0..=7 => matches!(err, BadMagic),
            8..=11 => matches!(err, UnsupportedVersion(_)),
            12..=19 => matches!(err, Truncated { .. } | TrailingBytes | Malformed(_)),
            _ => matches!(err, ChecksumMismatch { .. }),
        };
        assert!(expected, "bit flip in byte {byte} gave {err}");
    }
    let mut long = frame.to_vec();
    long.push(0);
    match decode(&long) {
        Err(TrailingBytes) => {}
        other => panic!("a trailing byte must be TrailingBytes, got {other:?}"),
    }
    decode(frame).expect("the intact frame decodes")
}

/// The whole codec contract for one value: `encode` → `decode` is
/// identity, re-encoding the decoded value reproduces the frame (one
/// encoding per state), and the frame survives [`sweep`].
///
/// # Panics
///
/// When `value` breaks any part of the contract.
pub fn check<T: Codec + PartialEq + Debug>(value: &T) {
    let frame = encode(value);
    let back = sweep(&frame, decode::<T>);
    assert_eq!(&back, value, "decode(encode(v)) != v");
    assert_eq!(encode(&back), frame, "re-encoding is not byte-identical");
}
