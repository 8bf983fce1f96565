//! # pdo-snap — durable snapshot framing
//!
//! A small, dependency-light binary format for persisting session and
//! server snapshots. The frame layout is
//!
//! ```text
//! magic (8 bytes) | version (u32 LE) | payload_len (u64 LE)
//! | payload | xxh64(all preceding bytes) (u64 LE)
//! ```
//!
//! so a reader can reject foreign files ([`SnapshotError::BadMagic`]),
//! other formats ([`SnapshotError::UnsupportedVersion`]), torn writes
//! ([`SnapshotError::Truncated`]) and bit rot
//! ([`SnapshotError::ChecksumMismatch`]) before decoding a single payload
//! byte — always as a typed error, never a panic. The checksum is
//! [`xxh64`] (seed 0) for every frame: durable images, profile files and
//! ingress wire frames. A frame of an earlier version is refused by its
//! version field; there is no decode path for old formats.
//!
//! [`SnapWriter`] and [`SnapReader`] provide the primitive vocabulary
//! (fixed-width little-endian integers, length-prefixed byte strings,
//! tagged [`Value`]s, and whole [`Module`]s carried as IR text, which
//! round-trips exactly; a shared `Arc<Module>` is printed and parsed once
//! per frame however often it occurs, with the same bytes). Everything
//! larger is a [`Codec`]: each encoded type declares its layout once — a
//! [`codec_struct!`] or [`codec_enum!`] field table next to the type — and
//! both directions are derived from that one table, so encode and decode
//! cannot drift. [`encode`] and [`decode`] frame a whole `Codec` value;
//! [`hostile`] is the one corruption sweep every encoded type is tested
//! with. [`write_atomic`] persists a frame with the write-temp-then-rename
//! discipline so a crash mid-write leaves either the old file or the new
//! one, never a torn hybrid.

mod codec;
pub mod hostile;

pub use codec::{Codec, Tag, Via};

use pdo_ir::{display::write_module, parse::parse_module, Module, Value};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Leading bytes of every snapshot frame.
pub const MAGIC: [u8; 8] = *b"PDOSNAP\0";

/// Current frame version.
pub const VERSION: u32 = 4;

/// A typed decode/persistence failure. Corrupt or truncated input must
/// surface as one of these — decoding never panics.
#[derive(Debug)]
pub enum SnapshotError {
    /// Input ended before a field's bytes: `needed` more than `available`.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The leading bytes are not [`MAGIC`] — not a snapshot file.
    BadMagic,
    /// The frame declares a version this build does not understand.
    UnsupportedVersion(u32),
    /// The trailing [`xxh64`] checksum does not match the frame contents.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        expected: u64,
        /// Checksum recomputed over the frame.
        actual: u64,
    },
    /// A field decoded but its value is invalid (bad tag, bad UTF-8,
    /// unparsable module text, inconsistent counts...).
    Malformed(String),
    /// Bytes remained after the decoder consumed the full payload.
    TrailingBytes,
    /// The filesystem failed underneath persistence.
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated snapshot: needed {needed} bytes, {available} available"
                )
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
            ),
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
            SnapshotError::TrailingBytes => {
                write!(f, "snapshot has trailing bytes after the payload")
            }
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// XXH64 with seed 0 over `bytes`: 32-byte stripes through four
/// independent multiply lanes, so the checksum runs at memory speed
/// rather than one dependent multiply per byte.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let mut tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le64(word));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| xxh_merge(h, lane))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    while tail.len() >= 8 {
        h = (h ^ xxh_round(0, le64(tail)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        h = (h ^ u64::from(word).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Bytes before the payload: magic, version, payload length.
const HEADER_LEN: usize = MAGIC.len() + 4 + 8;

/// Builds a snapshot payload and frames it.
#[derive(Debug)]
pub struct SnapWriter {
    /// The frame under construction: [`HEADER_LEN`] reserved bytes that
    /// [`SnapWriter::finish_frame`] fills in, then the payload.
    buf: Vec<u8>,
    /// Where each shared module written so far was first encoded, by the
    /// address of its allocation. The entry holds the `Arc`, so the
    /// address cannot be reused while the frame is being written.
    modules: HashMap<usize, (Arc<Module>, Range<usize>)>,
    /// The IR text of the module being written: one string that every
    /// module of the frame is printed into before it is appended.
    text: String,
}

impl Default for SnapWriter {
    fn default() -> Self {
        SnapWriter::new()
    }
}

impl SnapWriter {
    /// An empty writer. It starts with one 64-byte block, which holds a
    /// whole wire request or reply that carries no bulk argument.
    pub fn new() -> SnapWriter {
        SnapWriter::with_capacity(64 - HEADER_LEN - 8)
    }

    /// An empty writer with room for `payload_bytes` of payload (plus the
    /// frame around it), for callers that know roughly how large the frame
    /// will be — a server's previous image, say.
    pub fn with_capacity(payload_bytes: usize) -> SnapWriter {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload_bytes + 8);
        buf.resize(HEADER_LEN, 0);
        SnapWriter {
            buf,
            modules: HashMap::new(),
            text: String::new(),
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a collection length (the count every sequence and map
    /// starts with).
    pub fn len_prefix(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Appends a length-prefixed byte string. A bulk field is what grows a
    /// frame, so it also reserves room for the trailing checksum:
    /// [`SnapWriter::finish_frame`] then appends it without a copy.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.reserve(8 + v.len() + 8);
        self.len_prefix(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a tagged [`Value`]: its [`Tag`] byte, then its body.
    pub fn value(&mut self, v: &Value) {
        v.put(self);
    }

    /// Appends a whole [`Module`] as its IR text (which parses back to an
    /// identical module).
    pub fn module(&mut self, m: &Module) {
        let mut text = std::mem::take(&mut self.text);
        text.clear();
        write_module(&mut text, m).expect("writing to a String cannot fail");
        self.str(&text);
        self.text = text;
    }

    /// Appends a shared module: printed the first time this allocation is
    /// written to the frame, copied from that first encoding afterwards.
    /// The bytes are those of [`SnapWriter::module`] either way.
    pub(crate) fn shared_module(&mut self, m: &Arc<Module>) {
        let address = Arc::as_ptr(m) as usize;
        if let Some((_, first)) = self.modules.get(&address) {
            self.buf.extend_from_within(first.clone());
            return;
        }
        let start = self.buf.len();
        self.module(m);
        self.modules
            .insert(address, (Arc::clone(m), start..self.buf.len()));
    }

    /// Payload bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() - HEADER_LEN
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Frames the payload: magic, version, length, payload, checksum.
    pub fn finish(self) -> Vec<u8> {
        self.finish_frame(&MAGIC, VERSION)
    }

    /// As [`SnapWriter::finish`], but under a caller-supplied magic and
    /// version — the same framing discipline reused by other formats
    /// (the `pdo-ingress` wire protocol frames with its own magic so a
    /// network peer can never confuse a wire frame with a durable image).
    pub fn finish_frame(self, magic: &[u8; 8], version: u32) -> Vec<u8> {
        let payload_len = self.len() as u64;
        let mut out = self.buf;
        out[..8].copy_from_slice(magic);
        out[8..12].copy_from_slice(&version.to_le_bytes());
        out[12..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let sum = xxh64(&out);
        // Exactly: a buffer a bulk field grew to fit must not double for
        // the last eight bytes.
        out.reserve_exact(8);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }
}

/// Total framed length (header + payload + checksum) declared by the
/// frame starting at `bytes`, or `None` when too few bytes have arrived
/// to read the header yet. This is the stream-reassembly primitive: a
/// socket reader calls it on its receive buffer to learn how many bytes
/// to accumulate before handing the exact slice to
/// [`SnapReader::framed`].
///
/// # Errors
///
/// [`SnapshotError::BadMagic`] as soon as the available prefix provably
/// mismatches `magic` (no point buffering more of a foreign stream), and
/// [`SnapshotError::Malformed`] when the declared length cannot fit in
/// memory.
pub fn peek_frame_len(bytes: &[u8], magic: &[u8; 8]) -> Result<Option<usize>, SnapshotError> {
    let probe = bytes.len().min(magic.len());
    if bytes[..probe] != magic[..probe] {
        return Err(SnapshotError::BadMagic);
    }
    let header = HEADER_LEN;
    if bytes.len() < header {
        return Ok(None);
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload_len = usize::try_from(payload_len)
        .map_err(|_| SnapshotError::Malformed("payload length overflows usize".into()))?;
    let framed = header
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(8))
        .ok_or_else(|| SnapshotError::Malformed("payload length overflows usize".into()))?;
    Ok(Some(framed))
}

/// Decodes a framed snapshot: validates magic, version, length, and
/// checksum up front, then hands out payload fields.
#[derive(Debug)]
pub struct SnapReader<'a> {
    payload: &'a [u8],
    pos: usize,
    /// Shared modules decoded so far, by their text in the payload.
    modules: HashMap<&'a [u8], Arc<Module>>,
}

impl<'a> SnapReader<'a> {
    /// Validates the frame around `bytes` and positions a reader at the
    /// start of the payload.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`BadMagic`](SnapshotError::BadMagic)
    /// / [`UnsupportedVersion`](SnapshotError::UnsupportedVersion) /
    /// [`ChecksumMismatch`](SnapshotError::ChecksumMismatch) /
    /// [`TrailingBytes`](SnapshotError::TrailingBytes) describe exactly how
    /// the frame is unusable.
    pub fn new(bytes: &'a [u8]) -> Result<SnapReader<'a>, SnapshotError> {
        SnapReader::framed(bytes, &MAGIC, VERSION)
    }

    /// As [`SnapReader::new`], but validating against a caller-supplied
    /// magic and version (see [`SnapWriter::finish_frame`]).
    ///
    /// # Errors
    ///
    /// As [`SnapReader::new`].
    pub fn framed(
        bytes: &'a [u8],
        magic: &[u8; 8],
        expect_version: u32,
    ) -> Result<SnapReader<'a>, SnapshotError> {
        let header = HEADER_LEN;
        if bytes.len() < header {
            return Err(SnapshotError::Truncated {
                needed: header,
                available: bytes.len(),
            });
        }
        if bytes[..magic.len()] != *magic {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != expect_version {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let payload_len = usize::try_from(payload_len)
            .map_err(|_| SnapshotError::Malformed("payload length overflows usize".into()))?;
        let framed = header
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(8))
            .ok_or_else(|| SnapshotError::Malformed("payload length overflows usize".into()))?;
        if bytes.len() < framed {
            return Err(SnapshotError::Truncated {
                needed: framed,
                available: bytes.len(),
            });
        }
        if bytes.len() > framed {
            return Err(SnapshotError::TrailingBytes);
        }
        let body = &bytes[..framed - 8];
        let expected = u64::from_le_bytes(bytes[framed - 8..framed].try_into().expect("8 bytes"));
        let actual = xxh64(body);
        if expected != actual {
            return Err(SnapshotError::ChecksumMismatch { expected, actual });
        }
        Ok(SnapReader {
            payload: &bytes[header..framed - 8],
            pos: 0,
            modules: HashMap::new(),
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let available = self.payload.len() - self.pos;
        if available < n {
            return Err(SnapshotError::Truncated {
                needed: n,
                available,
            });
        }
        let out = &self.payload[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the payload is exhausted. The same
    /// holds for every `take_*` method below.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`SnapReader::take_u8`].
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`SnapReader::take_u8`].
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// See [`SnapReader::take_u8`].
    pub fn take_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a bool byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a byte that is neither 0 nor 1, and
    /// truncation as in [`SnapReader::take_u8`].
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Malformed(format!(
                "invalid bool byte {b:#04x}"
            ))),
        }
    }

    /// Reads a collection length — the single length-prefix policy for
    /// every sequence, map and byte string in both the snapshot and the
    /// wire decoders. Every encoded element occupies at least one byte,
    /// so a count larger than the remaining payload is provably a lie and
    /// is rejected here, before the caller allocates anything for it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a count that exceeds the remaining
    /// payload, plus truncation.
    pub fn take_len(&mut self) -> Result<usize, SnapshotError> {
        let declared = self.take_u64()?;
        match usize::try_from(declared) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(SnapshotError::Malformed(format!(
                "declared length {declared} exceeds remaining payload ({} bytes)",
                self.remaining()
            ))),
        }
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// See [`SnapReader::take_len`].
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        Ok(self.take_prefixed()?.to_vec())
    }

    /// A length-prefixed byte string, borrowed from the payload.
    fn take_prefixed(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.take_len()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on invalid UTF-8, plus
    /// [`SnapReader::take_len`]'s.
    pub fn take_str(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.take_bytes()?)
            .map_err(|e| SnapshotError::Malformed(format!("invalid UTF-8 string: {e}")))
    }

    /// Reads a tagged [`Value`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on an unknown tag, plus truncation.
    pub fn take_value(&mut self) -> Result<Value, SnapshotError> {
        Value::take(self)
    }

    /// Reads a [`Module`] from its IR text.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when the text does not parse, plus
    /// truncation.
    pub fn take_module(&mut self) -> Result<Module, SnapshotError> {
        parse_module_text(self.take_prefixed()?)
    }

    /// Reads a shared module: parsed the first time its text occurs in the
    /// frame, the same allocation every time after.
    pub(crate) fn take_shared_module(&mut self) -> Result<Arc<Module>, SnapshotError> {
        let text = self.take_prefixed()?;
        Ok(match self.modules.entry(text) {
            Entry::Occupied(seen) => Arc::clone(seen.get()),
            Entry::Vacant(first) => Arc::clone(first.insert(Arc::new(parse_module_text(text)?))),
        })
    }

    /// Payload bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TrailingBytes`] if fields remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes)
        }
    }

    /// Decodes the whole remaining payload as one `T`.
    ///
    /// # Errors
    ///
    /// `T`'s decode errors, and [`SnapshotError::TrailingBytes`] if bytes
    /// remain after it — a checksum-valid frame with trailing bytes means
    /// the sender speaks a different grammar.
    pub fn finish_as<T: Codec>(mut self) -> Result<T, SnapshotError> {
        let value = T::take(&mut self)?;
        self.finish()?;
        Ok(value)
    }
}

fn parse_module_text(text: &[u8]) -> Result<Module, SnapshotError> {
    let text = std::str::from_utf8(text)
        .map_err(|e| SnapshotError::Malformed(format!("invalid UTF-8 string: {e}")))?;
    parse_module(text).map_err(|e| SnapshotError::Malformed(format!("module does not parse: {e}")))
}

/// Encodes `value` as one complete snapshot frame.
pub fn encode<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    value.put(&mut w);
    w.finish()
}

/// Decodes a frame produced by [`encode`].
///
/// # Errors
///
/// Framing errors as [`SnapReader::new`], then `T`'s decode errors as
/// [`SnapReader::finish_as`].
pub fn decode<T: Codec>(bytes: &[u8]) -> Result<T, SnapshotError> {
    SnapReader::new(bytes)?.finish_as()
}

/// Persists `bytes` at `path` atomically: writes a sibling temp file,
/// syncs it, renames it over `path`, then (on unix) syncs the parent
/// directory so the rename itself is on disk. A crash mid-write leaves
/// either the previous file or the complete new one, and once this
/// returns `Ok` a power loss cannot bring the previous file back.
///
/// # Errors
///
/// [`SnapshotError::Io`] on any filesystem failure, including a parent
/// directory that does not exist (nothing is created then).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let tmp = match path.file_name() {
        Some(name) => {
            let mut n = name.to_os_string();
            n.push(".tmp");
            path.with_file_name(n)
        }
        None => {
            return Err(SnapshotError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "snapshot path has no file name",
            )))
        }
    };
    let mut f = fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        // The rename is an entry in the parent directory: until that
        // directory is synced, a power loss can undo it. A bare file
        // name's parent is the empty path, which means `.`.
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Reads a snapshot file whole.
///
/// # Errors
///
/// [`SnapshotError::Io`] on any filesystem failure. The bytes are returned
/// unvalidated; frame validation happens in [`SnapReader::new`].
pub fn read(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    Ok(fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdo_ir::display::print_module;
    use pdo_ir::{EventId, FuncId, FunctionBuilder, RaiseMode};
    use std::collections::BTreeMap;

    fn sample_frame() -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.bool(true);
        w.bytes(b"raw bytes");
        w.str("a string");
        w.value(&Value::Unit);
        w.value(&Value::Int(-7));
        w.value(&Value::Bool(false));
        w.value(&Value::bytes(vec![1, 2, 3]));
        w.value(&Value::str("hello"));
        w.finish()
    }

    /// XXH64's published seed-0 values: the empty input, a tail-only
    /// input, and one that takes the stripe loop and a 7-byte tail.
    #[test]
    fn xxh64_matches_known_answers() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    /// Every length up to three stripes — the stripe loop and each of
    /// the 8-, 4- and 1-byte tails — notices any single flipped bit and
    /// one appended zero byte.
    #[test]
    fn xxh64_detects_every_single_bit_flip_and_an_appended_zero() {
        for len in 0..=96usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let sum = xxh64(&data);
            for bit in 0..len * 8 {
                let mut flipped = data.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(xxh64(&flipped), sum, "length {len}, bit {bit}");
            }
            let mut longer = data.clone();
            longer.push(0);
            assert_ne!(xxh64(&longer), sum, "length {len}, appended zero");
        }
    }

    #[test]
    fn primitives_round_trip() {
        let frame = sample_frame();
        let mut r = SnapReader::new(&frame).unwrap();
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take_i64().unwrap(), -42);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_bytes().unwrap(), b"raw bytes");
        assert_eq!(r.take_str().unwrap(), "a string");
        assert_eq!(r.take_value().unwrap(), Value::Unit);
        assert_eq!(r.take_value().unwrap(), Value::Int(-7));
        assert_eq!(r.take_value().unwrap(), Value::Bool(false));
        assert_eq!(r.take_value().unwrap(), Value::bytes(vec![1, 2, 3]));
        assert_eq!(r.take_value().unwrap(), Value::str("hello"));
        r.finish().unwrap();
    }

    #[test]
    fn module_round_trips_exactly() {
        let mut m = Module::new();
        let ev = m.add_event("Tick");
        let g = m.add_global("count", Value::Int(0));
        let mut f = FunctionBuilder::new("on_tick", 1);
        let c = f.load_global(g);
        let p = f.param(0);
        let sum = f.bin(pdo_ir::BinOp::Add, c, p);
        f.store_global(g, sum);
        f.raise(ev, RaiseMode::Async, &[]);
        f.ret(None);
        m.add_function(f.finish());

        let mut w = SnapWriter::new();
        w.module(&m);
        let frame = w.finish();
        let mut r = SnapReader::new(&frame).unwrap();
        assert_eq!(r.take_module().unwrap(), m);
        r.finish().unwrap();
    }

    /// A module travels as exactly `print_module`'s bytes, and the writer's
    /// one text buffer carries nothing from a module into the next: the
    /// committed `optimize` outputs (`tests/fixtures/optimized_*.pdo` at the
    /// workspace root), longest first, in one frame.
    #[test]
    fn module_text_in_a_frame_is_print_module_byte_for_byte() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
        let modules: Vec<Module> = ["ctp_video", "xclient", "seccomm"]
            .iter()
            .map(|name| {
                let text = fs::read_to_string(format!("{dir}/optimized_{name}.pdo")).unwrap();
                parse_module(&text).unwrap()
            })
            .collect();
        let mut payload = SnapWriter::new();
        payload.len_prefix(modules.len());
        for m in &modules {
            let text = print_module(m);
            assert_eq!(encode(m)[HEADER_LEN + 8..][..text.len()], *text.as_bytes());
            payload.str(&text);
        }
        assert_eq!(encode(&modules), payload.finish());
    }

    fn counter_module(step: i64) -> Module {
        let mut m = Module::new();
        let g = m.add_global("count", Value::Int(0));
        let mut f = FunctionBuilder::new("bump", 0);
        let c = f.load_global(g);
        let k = f.const_int(step);
        let sum = f.bin(pdo_ir::BinOp::Add, c, k);
        f.store_global(g, sum);
        f.ret(None);
        m.add_function(f.finish());
        m
    }

    /// Sharing changes the work, not the bytes: N clones of one
    /// `Arc<Module>` encode exactly as N separately built equal modules do
    /// (and as N plain `Module`s), and decoding either frame hands every
    /// occurrence the same allocation.
    #[test]
    fn shared_modules_encode_to_the_same_bytes_and_decode_to_one_allocation() {
        let one = Arc::new(counter_module(1));
        let shared: Vec<(u64, Arc<Module>)> = (0..4).map(|i| (i, Arc::clone(&one))).collect();
        let separate: Vec<(u64, Arc<Module>)> =
            (0..4).map(|i| (i, Arc::new(counter_module(1)))).collect();
        let plain: Vec<(u64, Module)> = (0..4).map(|i| (i, counter_module(1))).collect();
        let frame = encode(&shared);
        assert_eq!(frame, encode(&separate));
        assert_eq!(frame, encode(&plain));

        let decoded: Vec<(u64, Arc<Module>)> = decode(&frame).unwrap();
        assert_eq!(decoded, shared);
        assert!(decoded.iter().all(|(_, m)| Arc::ptr_eq(m, &decoded[0].1)));
        assert_eq!(
            Arc::strong_count(&decoded[0].1),
            4,
            "the reader's memo is gone"
        );
        hostile::check(&shared);
    }

    /// The memo is keyed by the whole text (decode) and by the allocation
    /// (encode): a module that merely shares a prefix with another — one
    /// literal edited, or a function appended — is its own module in both
    /// directions, in either order.
    #[test]
    fn modules_sharing_a_textual_prefix_are_not_conflated() {
        let base = Arc::new(counter_module(1));
        let edited = Arc::new(counter_module(10));
        let extended = {
            let mut m = counter_module(1);
            let mut f = FunctionBuilder::new("noop", 0);
            f.ret(None);
            m.add_function(f.finish());
            Arc::new(m)
        };
        let base_text = print_module(&base);
        assert!(print_module(&extended).starts_with(&base_text));
        assert_eq!(print_module(&edited).len(), base_text.len() + 1);

        for order in [
            [&base, &edited, &extended, &base, &extended, &edited],
            [&extended, &edited, &base, &edited, &base, &extended],
        ] {
            let value: Vec<Arc<Module>> = order.into_iter().cloned().collect();
            let decoded: Vec<Arc<Module>> = decode(&encode(&value)).unwrap();
            assert_eq!(decoded, value);
            for (i, a) in decoded.iter().enumerate() {
                for (j, b) in decoded.iter().enumerate() {
                    assert_eq!(
                        Arc::ptr_eq(a, b),
                        Arc::ptr_eq(&value[i], &value[j]),
                        "occurrences {i} and {j}"
                    );
                }
            }
        }
    }

    /// The header is reserved in place: `len` counts payload only, and the
    /// frame is the same whatever capacity the writer started with.
    #[test]
    fn writer_len_counts_payload_only() {
        let mut w = SnapWriter::with_capacity(1 << 12);
        assert!(w.is_empty());
        w.u32(7);
        w.str("abc");
        assert_eq!(w.len(), 4 + 8 + 3);
        let mut small = SnapWriter::new();
        small.u32(7);
        small.str("abc");
        let frame = w.finish();
        assert_eq!(frame, small.finish());
        assert_eq!(frame.len(), HEADER_LEN + 15 + 8);
    }

    /// A value touching every built-in impl, and local types through both
    /// macros: a generic struct with a skipped rider and a `Via` field, and
    /// an enum with unit, struct and tuple variants.
    #[derive(Debug, Default, PartialEq)]
    struct Rider(u32);

    #[derive(Debug, PartialEq)]
    struct Sample<T> {
        small: u16,
        signed: i32,
        size: usize,
        payload: T,
        parity: Parity,
        rider: Rider,
    }
    codec_struct!(Sample<T> { small, signed, size, payload, parity as bool } skip { rider });

    #[derive(Debug, PartialEq)]
    enum Parity {
        Even,
        Odd,
    }
    impl Via<bool> for Parity {
        fn to_wire(&self) -> bool {
            *self == Parity::Odd
        }
        fn from_wire(odd: bool) -> Result<Self, SnapshotError> {
            Ok(if odd { Parity::Odd } else { Parity::Even })
        }
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Empty,
        Named { key: [u8; 4], text: String },
        Pair(u8, Option<Box<i64>>),
    }
    codec_enum!(Shape {
        0 => Empty,
        3 => Named { key, text },
        7 => Pair(a, b),
    });

    type Payload = (Vec<Value>, BTreeMap<(EventId, FuncId), Vec<u8>>, Vec<Shape>);

    fn sample() -> Sample<Payload> {
        Sample {
            small: u16::MAX,
            signed: i32::MIN,
            size: 12,
            payload: (
                vec![
                    Value::Unit,
                    Value::Int(-7),
                    Value::Bool(false),
                    Value::bytes(vec![1, 2, 3]),
                    Value::str("hello"),
                ],
                BTreeMap::from([
                    ((EventId(0), FuncId(9)), vec![]),
                    ((EventId(1), FuncId(0)), vec![0xFF; 5]),
                ]),
                vec![
                    Shape::Empty,
                    Shape::Named {
                        key: *b"abcd",
                        text: "a string".into(),
                    },
                    Shape::Pair(7, Some(Box::new(-42))),
                    Shape::Pair(0, None),
                ],
            ),
            parity: Parity::Odd,
            rider: Rider::default(),
        }
    }

    /// Round trip, canonical re-encoding, every truncation, a bit flip in
    /// every byte, and a trailing byte — for the primitive frame and for
    /// the macro-derived types.
    #[test]
    fn codecs_survive_the_hostile_sweep() {
        hostile::check(&sample());
        hostile::sweep(&sample_frame(), |b| SnapReader::new(b).map(|_| ()));
    }

    /// A shared byte block is a byte string: the same bytes as the equal
    /// `Vec<u8>`, alone and inside the structures payloads travel in.
    #[test]
    fn shared_byte_blocks_encode_as_the_equal_vec() {
        for bytes in [vec![], vec![0u8], (0..=255u8).collect::<Vec<u8>>()] {
            let block: Arc<[u8]> = Arc::from(&bytes[..]);
            assert_eq!(encode(&block), encode(&bytes));
            assert_eq!(decode::<Arc<[u8]>>(&encode(&bytes)).unwrap(), block);
            assert_eq!(
                encode(&Value::Bytes(Arc::clone(&block))),
                encode(&(3u8, bytes.clone())),
                "a bytes value is its tag, then the byte string"
            );
            let log = vec![(7i64, Arc::clone(&block)), (8, block)];
            assert_eq!(
                encode(&log),
                encode(&vec![(7i64, bytes.clone()), (8, bytes)])
            );
            hostile::check(&log);
        }
    }

    #[test]
    fn derived_layout_is_table_order_and_skips_riders() {
        let mut value = sample();
        value.rider = Rider(99); // not encoded; decodes to its Default
        let frame = encode(&value);
        let mut r = SnapReader::new(&frame).unwrap();
        assert_eq!(r.take_u32().unwrap(), u32::from(u16::MAX));
        assert_eq!(r.take_i64().unwrap(), i64::from(i32::MIN));
        assert_eq!(r.take_u64().unwrap(), 12);
        assert_eq!(decode::<Sample<Payload>>(&frame).unwrap(), sample());

        // An enum is its tag byte then the variant's fields in table order.
        let mut w = SnapWriter::new();
        w.u8(3);
        w.bytes(b"abcd");
        w.str("x");
        let named = Shape::Named {
            key: *b"abcd",
            text: "x".into(),
        };
        assert_eq!(w.finish(), encode(&named));
    }

    fn decode_payload<T: Codec>(build: impl FnOnce(&mut SnapWriter)) -> Result<T, SnapshotError> {
        let mut w = SnapWriter::new();
        build(&mut w);
        decode(&w.finish())
    }

    fn is_malformed<T>(result: Result<T, SnapshotError>) -> bool {
        matches!(result, Err(SnapshotError::Malformed(_)))
    }

    /// One policy for every collection: a count the remaining payload
    /// cannot hold is `Malformed` before anything is allocated for it.
    #[test]
    fn oversized_length_prefixes_are_rejected_before_allocation() {
        for declared in [9, u64::MAX] {
            let lie = |w: &mut SnapWriter| {
                w.u64(declared);
                w.u64(0); // 8 bytes remain: fewer than any declared count
            };
            assert!(is_malformed(decode_payload::<Vec<u64>>(lie)));
            assert!(is_malformed(decode_payload::<Vec<u8>>(lie)));
            assert!(is_malformed(decode_payload::<Arc<[u8]>>(lie)));
            assert!(is_malformed(decode_payload::<String>(lie)));
            assert!(is_malformed(decode_payload::<BTreeMap<u64, u64>>(lie)));
        }
    }

    /// A repeated or out-of-order map key would decode (last wins) to a
    /// state that re-encodes differently: not an image this format writes.
    #[test]
    fn non_canonical_maps_are_rejected() {
        let map_of = |keys: &'static [u64]| {
            decode_payload::<BTreeMap<u64, bool>>(move |w| {
                w.len_prefix(keys.len());
                for &k in keys {
                    w.u64(k);
                    w.bool(true);
                }
            })
        };
        assert_eq!(map_of(&[1, 2, 5]).unwrap().len(), 3);
        assert!(is_malformed(map_of(&[1, 2, 2])));
        assert!(is_malformed(map_of(&[1, 5, 2])));
        let hash_map_of = |keys: &'static [u64]| {
            decode_payload::<HashMap<u64, bool>>(move |w| {
                w.len_prefix(keys.len());
                for &k in keys {
                    w.u64(k);
                    w.bool(true);
                }
            })
        };
        assert_eq!(hash_map_of(&[1, 2, 5]).unwrap().len(), 3);
        // A hash map decodes in place, holding the last entry back for the
        // check: a bad key is refused first, in the middle and last.
        assert!(is_malformed(hash_map_of(&[2, 2, 5])));
        assert!(is_malformed(hash_map_of(&[2, 1, 5])));
        assert!(is_malformed(hash_map_of(&[1, 2, 2])));
        assert!(is_malformed(hash_map_of(&[1, 5, 2])));
    }

    /// A hash map is written in key order, whatever its iteration order:
    /// the bytes of the equal `BTreeMap`.
    #[test]
    fn hash_maps_encode_as_the_equal_btree_map() {
        let sorted: BTreeMap<i64, Vec<u8>> =
            (0..64).map(|k| (k * 7 - 200, vec![k as u8])).collect();
        let hashed: HashMap<i64, Vec<u8>> = sorted.clone().into_iter().collect();
        assert_eq!(encode(&hashed), encode(&sorted));
        hostile::check(&hashed);
        for n in 0..3 {
            hostile::check(&(0..n).map(|k| (k, k)).collect::<HashMap<u64, u64>>());
        }
    }

    #[test]
    fn invalid_field_values_are_malformed() {
        assert!(is_malformed(decode_payload::<u16>(|w| w.u32(1 << 16))));
        assert!(is_malformed(decode_payload::<i32>(|w| w.i64(1 << 31))));
        assert!(is_malformed(decode_payload::<[u8; 4]>(|w| w.bytes(b"abc"))));
        assert!(is_malformed(decode_payload::<Shape>(|w| w.u8(1))));
        assert!(is_malformed(decode_payload::<Value>(|w| w.u8(5))));
        assert!(is_malformed(decode_payload::<Tag>(|w| w.u8(0xFF))));
        for tag in [Tag::Unit, Tag::Int, Tag::Bool, Tag::Bytes, Tag::Str] {
            assert_eq!(decode::<Tag>(&encode(&tag)).unwrap(), tag);
        }
    }

    #[test]
    fn foreign_version_is_rejected() {
        let mut frame = SnapWriter::new().finish();
        frame[8] = 99;
        assert!(matches!(
            SnapReader::new(&frame),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn reader_rejects_overconsumption_and_bad_tags() {
        let mut w = SnapWriter::new();
        w.u8(200); // not a bool, not a value tag
        let frame = w.finish();

        let mut r = SnapReader::new(&frame).unwrap();
        assert!(matches!(r.take_bool(), Err(SnapshotError::Malformed(_))));

        let mut r = SnapReader::new(&frame).unwrap();
        assert!(matches!(r.take_value(), Err(SnapshotError::Malformed(_))));

        let mut r = SnapReader::new(&frame).unwrap();
        assert!(matches!(
            r.take_u64(),
            Err(SnapshotError::Truncated {
                needed: 8,
                available: 1
            })
        ));

        let r = SnapReader::new(&frame).unwrap();
        assert!(matches!(r.finish(), Err(SnapshotError::TrailingBytes)));
    }

    #[test]
    fn foreign_magic_frames_round_trip_and_stay_disjoint() {
        const WIRE: [u8; 8] = *b"PDOWIRE\0";
        let mut w = SnapWriter::new();
        w.u64(42);
        w.str("hello");
        let frame = w.finish_frame(&WIRE, 3);

        // Streams reassemble via peek: short prefixes ask for more bytes,
        // the full header declares the exact framed length.
        for cut in 0..20.min(frame.len()) {
            assert!(matches!(peek_frame_len(&frame[..cut], &WIRE), Ok(None)));
        }
        assert_eq!(peek_frame_len(&frame, &WIRE).unwrap(), Some(frame.len()));
        // A provably foreign prefix fails fast, even before 8 bytes.
        assert!(matches!(
            peek_frame_len(b"NOTPDO", &WIRE),
            Err(SnapshotError::BadMagic)
        ));

        let mut r = SnapReader::framed(&frame, &WIRE, 3).unwrap();
        assert_eq!(r.take_u64().unwrap(), 42);
        assert_eq!(r.take_str().unwrap(), "hello");
        r.finish().unwrap();

        // Wrong magic or wrong version is typed, and a wire frame is
        // never readable as a durable image.
        assert!(matches!(
            SnapReader::framed(&frame, &MAGIC, 3),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            SnapReader::framed(&frame, &WIRE, 4),
            Err(SnapshotError::UnsupportedVersion(3))
        ));
        assert!(matches!(
            SnapReader::new(&frame),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        let dir = std::env::temp_dir().join(format!("pdo-snap-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("image.pdosnap");

        let frame = sample_frame();
        write_atomic(&path, &frame).unwrap();
        assert_eq!(read(&path).unwrap(), frame);

        // Overwrite goes through the same temp+rename path.
        let frame2 = SnapWriter::new().finish();
        write_atomic(&path, &frame2).unwrap();
        assert_eq!(read(&path).unwrap(), frame2);
        assert!(!dir.join("image.pdosnap.tmp").exists());

        // A parent directory that does not exist is an i/o error, and
        // neither it nor the file nor a temp sibling is created.
        let missing = dir.join("absent");
        assert!(matches!(
            write_atomic(&missing.join("image.pdosnap"), &frame),
            Err(SnapshotError::Io(_))
        ));
        assert!(!missing.exists());

        fs::remove_dir_all(&dir).unwrap();
    }
}
