//! Versioned binary snapshot codec for the persistent collections.
//!
//! A snapshot is a self-describing byte string a collection can be saved to
//! and rebuilt from — across processes, machines, or shard layouts. The
//! format exploits the tries' canonical form: a trie's shape is a function
//! of its *contents* only (not of its edit history), so a snapshot stores
//! just the flat element sequence and the decoder rebuilds through the
//! [`TransientOps`] bulk path, yielding a trie
//! that is `==` to the source. Nothing trie-internal (bitmaps, node
//! layout, value-bag strategy) is on the wire, which is also what lets a
//! sharded snapshot restore at a different shard count.
//!
//! # Framing
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"AXSN"
//! 4       2     format version (little-endian u16, currently 2)
//! 6       1     kind   (1 = set, 2 = map, 3 = multi-map)
//! 7       1     reserved (0)
//! 8       4     shard count N (little-endian u32; 1 for plain collections)
//! 12      24·N  shard table: per shard, item count u64 + payload bytes u64
//!               + FNV-1a-64 payload checksum u64
//! 12+24N  ...   the N shard payloads, concatenated in table order
//! ```
//!
//! Only the current version parses. A version-1 frame (16-byte table
//! entries, no checksum column) is rejected with
//! [`SnapshotError::UnsupportedVersion`]: its payloads could not be
//! verified, so a flipped byte could restore as different data.
//!
//! Every length is validated against the actual buffer before any element
//! is decoded ([`inspect`] performs exactly this validation), each shard
//! payload is checksummed against its table entry, all arithmetic is
//! checked, and nothing is preallocated from attacker-chosen counts —
//! corrupt input yields a [`SnapshotError`], never a panic or an
//! allocation spike.
//!
//! # Payload encoding
//!
//! Each payload is its section's items encoded back-to-back with a small
//! tagged binary codec driven through the in-tree `serde` data model
//! ([`BinSerializer`] / value readers): every value is one type tag byte
//! followed by its body — LEB128 varints for integers (zig-zag for
//! signed), raw little-endian bits for floats, length-prefixed UTF-8 for
//! strings, count-prefixed element lists for sequences and maps. Any
//! element type that implements the shim's `Serialize`/`Deserialize`
//! round-trips; keys keep their native types on the wire (no JSON
//! string-key coercion — see the `serde_json` shim docs for that
//! limitation, which this codec exists to route around).

use serde::de::{self, Deserialize, Deserializer, MapAccess, SeqAccess, Visitor};
use serde::ser::{self, Serialize, SerializeMap, SerializeSeq, Serializer};

use crate::ops::{Builder, TransientOps};

/// First four bytes of every snapshot.
pub const MAGIC: [u8; 4] = *b"AXSN";

/// Current format version, the only one that parses. Version 2 added the
/// per-shard payload checksum column to the shard table.
pub const VERSION: u16 = 2;

/// Size of the fixed header that precedes the shard table.
pub const HEADER_BYTES: usize = 12;

/// Bytes per shard-table entry in the current format (item count +
/// payload length + payload checksum).
pub const SHARD_ENTRY_BYTES: usize = 24;

/// The FNV-1a 64-bit hash used as the per-shard payload checksum.
///
/// Not cryptographic — it exists to catch torn writes and bit rot, and a
/// single-bit flip anywhere in a payload always changes it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The collection shape a snapshot holds. Sharded wrappers reuse the
/// element kind (a sharded multi-map writes [`Kind::MultiMap`] with more
/// than one shard section), so snapshots move freely between the sharded
/// and plain layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Elements `T`.
    Set = 1,
    /// Entries `(K, V)`, unique keys.
    Map = 2,
    /// Tuples `(K, V)`, duplicate keys allowed.
    MultiMap = 3,
}

impl Kind {
    fn from_u8(byte: u8) -> Result<Kind, SnapshotError> {
        match byte {
            1 => Ok(Kind::Set),
            2 => Ok(Kind::Map),
            3 => Ok(Kind::MultiMap),
            other => Err(SnapshotError::UnknownKind(other)),
        }
    }
}

/// Everything that can go wrong saving or restoring a snapshot.
///
/// Restores never panic and never allocate proportionally to corrupt
/// length fields; they return one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before a required field or payload.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually left.
        have: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The format version is not [`VERSION`], the only one this build
    /// reads.
    UnsupportedVersion(u16),
    /// The kind byte is none of the defined [`Kind`]s.
    UnknownKind(u8),
    /// The snapshot holds a different collection shape than requested.
    WrongKind {
        /// What the caller asked to restore.
        expected: Kind,
        /// What the snapshot holds.
        found: Kind,
    },
    /// A length or count field overflows the addressable buffer.
    LengthOverflow,
    /// The shard payloads do not cover the rest of the buffer exactly.
    SectionSizeMismatch {
        /// Sum of the shard-table payload lengths.
        declared: u64,
        /// Bytes actually present after the shard table.
        have: u64,
    },
    /// A shard payload held bytes beyond its declared item count.
    TrailingBytes {
        /// Which shard section.
        shard: usize,
        /// How many bytes were left over.
        left: usize,
    },
    /// A shard payload does not match its shard-table checksum (torn
    /// write, bit rot, or tampering). Only version ≥ 2 frames carry
    /// checksums.
    ChecksumMismatch {
        /// Which shard section.
        shard: usize,
        /// The checksum stored in the shard table.
        stored: u64,
        /// The checksum computed over the actual payload bytes.
        computed: u64,
    },
    /// An element failed to encode or decode (bad tag, invalid UTF-8,
    /// value out of range for the target type, …).
    Codec(String),
    /// A parallel snapshot worker thread panicked; the save or restore
    /// was abandoned (nothing was published or partially written).
    WorkerPanicked,
    /// Reading or writing the snapshot file failed.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { needed, have } => {
                write!(
                    f,
                    "snapshot truncated: needed {needed} more bytes, have {have}"
                )
            }
            SnapshotError::BadMagic(found) => {
                write!(
                    f,
                    "not a snapshot: magic {found:02x?} (expected {MAGIC:02x?})"
                )
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads version {VERSION} only)"
                )
            }
            SnapshotError::UnknownKind(byte) => write!(f, "unknown collection kind {byte}"),
            SnapshotError::WrongKind { expected, found } => {
                write!(f, "snapshot holds a {found:?}, expected a {expected:?}")
            }
            SnapshotError::LengthOverflow => f.write_str("length field overflows the buffer"),
            SnapshotError::SectionSizeMismatch { declared, have } => write!(
                f,
                "shard table declares {declared} payload bytes but {have} are present"
            ),
            SnapshotError::TrailingBytes { shard, left } => {
                write!(
                    f,
                    "shard {shard} payload has {left} bytes past its declared items"
                )
            }
            SnapshotError::ChecksumMismatch {
                shard,
                stored,
                computed,
            } => write!(
                f,
                "shard {shard} payload checksum mismatch: table says {stored:#018x}, \
                 payload hashes to {computed:#018x}"
            ),
            SnapshotError::Codec(msg) => write!(f, "element codec: {msg}"),
            SnapshotError::WorkerPanicked => {
                f.write_str("a snapshot worker thread panicked; the operation was abandoned")
            }
            SnapshotError::Io(msg) => write!(f, "snapshot i/o: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl ser::Error for SnapshotError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        SnapshotError::Codec(msg.to_string())
    }
}

impl de::Error for SnapshotError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        SnapshotError::Codec(msg.to_string())
    }
}

/// A collection that can serialize itself into the snapshot format.
pub trait SnapshotWrite {
    /// The shape tag this collection writes into the header.
    const KIND: Kind;

    /// Appends a complete snapshot of `self` to `out`.
    fn write_snapshot(&self, out: &mut Vec<u8>) -> Result<(), SnapshotError>;

    /// A complete snapshot of `self` as a fresh byte vector.
    fn snapshot_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut out = Vec::new();
        self.write_snapshot(&mut out)?;
        Ok(out)
    }

    /// Atomically writes a snapshot of `self` to `path` via
    /// [`save_atomic`]: a crash mid-save leaves either the previous file
    /// or the new one, never a torn mixture.
    fn save_to_path(&self, path: impl AsRef<std::path::Path>) -> Result<(), SnapshotError> {
        save_atomic(path.as_ref(), &self.snapshot_bytes()?)
    }
}

/// A collection that can rebuild itself from the snapshot format.
///
/// Decoding always goes through the transient bulk-build path, so the
/// restored trie is canonical — structurally identical to (and `==` with)
/// any trie holding the same elements. Plain collections accept
/// multi-shard snapshots too, merging every section into one trie.
pub trait SnapshotRead: Sized {
    /// Validates `bytes` and rebuilds the collection.
    fn read_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError>;

    /// Reads a snapshot file and rebuilds the collection from it.
    fn load_from_path(path: impl AsRef<std::path::Path>) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Self::read_snapshot(&bytes)
    }
}

/// Writes `bytes` to `path` atomically: the data goes to a unique
/// temporary sibling first, is `fsync`ed, and only then renamed over
/// `path` (with a best-effort directory sync so the rename itself is
/// durable). A crash at any point leaves either the old file or the new
/// one — never a torn mixture — and the temporary is cleaned up on error.
pub fn save_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};

    static SEQ: AtomicU64 = AtomicU64::new(0);
    let io_err = |e: std::io::Error| SnapshotError::Io(e.to_string());
    let file_name = path
        .file_name()
        .ok_or_else(|| SnapshotError::Io(format!("save path {path:?} has no file name")))?;
    // pid + process-wide counter keeps concurrent savers (and crashed
    // predecessors) from colliding on the temporary name.
    let tmp_name = format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    );
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp_path = match dir {
        Some(dir) => dir.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut file = std::fs::File::create(&tmp_path).map_err(io_err)?;
        file.write_all(bytes).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        drop(file);
        std::fs::rename(&tmp_path, path).map_err(io_err)?;
        if let Some(dir) = dir {
            // Directory sync is best-effort: not all platforms allow
            // opening a directory for sync, and the rename already
            // guarantees atomicity — this only hardens durability.
            if let Ok(dir_file) = std::fs::File::open(dir) {
                let _ = dir_file.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp_path);
    }
    result
}

// ---------------------------------------------------------------- framing

/// One encoded shard section: its item count and payload bytes.
#[derive(Debug, Clone)]
pub struct Section {
    /// Number of items encoded in `bytes`.
    pub count: u64,
    /// The back-to-back item encodings.
    pub bytes: Vec<u8>,
}

/// Encodes an item stream into one [`Section`] (the per-shard unit of
/// parallel encoding).
pub fn encode_section<T: Serialize>(
    items: impl IntoIterator<Item = T>,
) -> Result<Section, SnapshotError> {
    let mut bytes = Vec::new();
    let mut count = 0u64;
    for item in items {
        item.serialize(BinSerializer { out: &mut bytes })?;
        count += 1;
    }
    Ok(Section { count, bytes })
}

/// Assembles a complete snapshot from pre-encoded sections.
pub fn write_frame(
    kind: Kind,
    sections: &[Section],
    out: &mut Vec<u8>,
) -> Result<(), SnapshotError> {
    let shard_count = u32::try_from(sections.len()).map_err(|_| SnapshotError::LengthOverflow)?;
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind as u8);
    out.push(0);
    out.extend_from_slice(&shard_count.to_le_bytes());
    for section in sections {
        out.extend_from_slice(&section.count.to_le_bytes());
        out.extend_from_slice(&(section.bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&section.bytes).to_le_bytes());
    }
    for section in sections {
        out.extend_from_slice(&section.bytes);
    }
    Ok(())
}

/// One-call encode for a plain (single-section) collection.
pub fn write_collection<T: Serialize>(
    kind: Kind,
    items: impl IntoIterator<Item = T>,
    out: &mut Vec<u8>,
) -> Result<(), SnapshotError> {
    let section = encode_section(items)?;
    write_frame(kind, std::slice::from_ref(&section), out)
}

/// A parsed, length-validated view of a snapshot buffer. Holding a `Frame`
/// means the framing (magic, version, kind, shard table, payload bounds)
/// is sound; element decoding can still fail per section.
#[derive(Debug, Clone)]
pub struct Frame<'a> {
    kind: Kind,
    sections: Vec<FrameSection<'a>>,
}

/// One shard section of a parsed [`Frame`]: a declared item count plus the
/// exact payload slice. Cheap to copy across worker threads.
#[derive(Debug, Clone, Copy)]
pub struct FrameSection<'a> {
    /// Which shard-table slot this section came from.
    pub index: usize,
    /// Declared number of items.
    pub count: u64,
    payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Parses and validates the framing of `bytes` (no element decoding).
    pub fn parse(bytes: &'a [u8]) -> Result<Frame<'a>, SnapshotError> {
        let mut reader = ByteReader::new(bytes);
        let magic = reader.take(4)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic([
                magic[0], magic[1], magic[2], magic[3],
            ]));
        }
        let version = u16::from_le_bytes(reader.take(2)?.try_into().expect("2 bytes"));
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let kind = Kind::from_u8(reader.u8()?);
        let _reserved = reader.u8()?;
        let kind = kind?;
        let shard_count = u32::from_le_bytes(reader.take(4)?.try_into().expect("4 bytes"));
        // Table entries are read (not preallocated) one by one, so a corrupt
        // shard count costs at most one failed entry-sized read.
        let mut table = Vec::new();
        for _ in 0..shard_count {
            let count = u64::from_le_bytes(reader.take(8)?.try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(reader.take(8)?.try_into().expect("8 bytes"));
            let checksum = u64::from_le_bytes(reader.take(8)?.try_into().expect("8 bytes"));
            table.push((count, len, checksum));
        }
        let declared = table
            .iter()
            .try_fold(0u64, |sum, (_, len, _)| sum.checked_add(*len))
            .ok_or(SnapshotError::LengthOverflow)?;
        if declared != reader.remaining() as u64 {
            return Err(SnapshotError::SectionSizeMismatch {
                declared,
                have: reader.remaining() as u64,
            });
        }
        let mut sections = Vec::with_capacity(table.len());
        for (index, (count, len, checksum)) in table.into_iter().enumerate() {
            let len = usize::try_from(len).map_err(|_| SnapshotError::LengthOverflow)?;
            let payload = reader.take(len)?;
            let computed = fnv1a64(payload);
            if checksum != computed {
                return Err(SnapshotError::ChecksumMismatch {
                    shard: index,
                    stored: checksum,
                    computed,
                });
            }
            sections.push(FrameSection {
                index,
                count,
                payload,
            });
        }
        Ok(Frame { kind, sections })
    }

    /// The collection shape this snapshot holds.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Errors unless the snapshot holds `expected`.
    pub fn expect_kind(&self, expected: Kind) -> Result<(), SnapshotError> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(SnapshotError::WrongKind {
                expected,
                found: self.kind,
            })
        }
    }

    /// The validated shard sections, in table order.
    pub fn sections(&self) -> &[FrameSection<'a>] {
        &self.sections
    }
}

impl<'a> FrameSection<'a> {
    /// Payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.payload.len()
    }

    /// Decodes exactly the declared number of items, passing each to `f`.
    ///
    /// Fails (without panicking) if the payload runs short, holds malformed
    /// encodings, or has bytes left over after the last item.
    pub fn decode_each<Item, F>(&self, mut f: F) -> Result<(), SnapshotError>
    where
        Item: for<'de> Deserialize<'de>,
        F: FnMut(Item),
    {
        let mut reader = ByteReader::new(self.payload);
        for _ in 0..self.count {
            f(Item::deserialize(BinReader {
                reader: &mut reader,
            })?);
        }
        let left = reader.remaining();
        if left != 0 {
            return Err(SnapshotError::TrailingBytes {
                shard: self.index,
                left,
            });
        }
        Ok(())
    }
}

/// Validated summary of a snapshot: the framing fields without any element
/// decoding. This is the "validate before building" entry point — if
/// `inspect` succeeds, the shard table and payload bounds are sound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The collection shape.
    pub kind: Kind,
    /// Per-shard `(item count, payload bytes)`.
    pub shards: Vec<(u64, u64)>,
}

impl SnapshotInfo {
    /// Total item count across shards.
    pub fn items(&self) -> u64 {
        self.shards.iter().map(|(n, _)| n).sum()
    }
}

/// Parses and validates the framing, returning the snapshot's summary.
pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    let frame = Frame::parse(bytes)?;
    Ok(SnapshotInfo {
        kind: frame.kind(),
        shards: frame
            .sections()
            .iter()
            .map(|s| (s.count, s.byte_len() as u64))
            .collect(),
    })
}

/// One-call decode for a plain collection: validates the frame, then
/// rebuilds through the transient builder, merging every shard section
/// (so a sharded snapshot restores into a single trie too).
pub fn read_collection<C, Item>(kind: Kind, bytes: &[u8]) -> Result<C, SnapshotError>
where
    C: TransientOps<Item>,
    Item: for<'de> Deserialize<'de>,
{
    let frame = Frame::parse(bytes)?;
    frame.expect_kind(kind)?;
    let mut builder = C::transient_builder();
    for section in frame.sections() {
        section.decode_each(|item| {
            builder.insert_mut(item);
        })?;
    }
    Ok(builder.build())
}

// ----------------------------------------------------------- byte reader

/// Bounds-checked cursor over a snapshot buffer.
#[derive(Debug)]
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// LEB128 varint with strict overflow checking (at most 10 bytes, the
    /// final byte at most 1).
    fn uvarint(&mut self) -> Result<u64, SnapshotError> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(SnapshotError::LengthOverflow);
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
            if shift > 63 {
                return Err(SnapshotError::LengthOverflow);
            }
        }
    }
}

fn push_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(n: u64) -> i64 {
    ((n >> 1) as i64) ^ -((n & 1) as i64)
}

// ------------------------------------------------------- the value codec

mod tag {
    pub const UNIT: u8 = 0x00;
    pub const FALSE: u8 = 0x01;
    pub const TRUE: u8 = 0x02;
    pub const U64: u8 = 0x03;
    pub const I64: u8 = 0x04;
    pub const F64: u8 = 0x05;
    pub const STR: u8 = 0x06;
    pub const SEQ: u8 = 0x07;
    pub const MAP: u8 = 0x08;
}

/// The binary format driver: a `serde` `Serializer` appending tagged
/// values to a byte vector. Usually driven through [`encode_section`];
/// public so other layers can encode auxiliary values in the same format.
#[derive(Debug)]
pub struct BinSerializer<'a> {
    /// Destination buffer.
    pub out: &'a mut Vec<u8>,
}

/// In-progress sequence for [`BinSerializer`].
#[derive(Debug)]
pub struct BinSeq<'a> {
    out: &'a mut Vec<u8>,
    /// `Some` when the element count was declared up front (written
    /// immediately); `None` buffers elements until `end`.
    declared: Option<u64>,
    written: u64,
    buffer: Vec<u8>,
}

impl SerializeSeq for BinSeq<'_> {
    type Ok = ();
    type Error = SnapshotError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), SnapshotError> {
        let target = if self.declared.is_some() {
            &mut *self.out
        } else {
            &mut self.buffer
        };
        value.serialize(BinSerializer { out: target })?;
        self.written += 1;
        Ok(())
    }

    fn end(self) -> Result<(), SnapshotError> {
        match self.declared {
            Some(declared) if declared == self.written => Ok(()),
            Some(declared) => Err(SnapshotError::Codec(format!(
                "sequence declared {declared} elements but wrote {}",
                self.written
            ))),
            None => {
                push_uvarint(self.out, self.written);
                self.out.extend_from_slice(&self.buffer);
                Ok(())
            }
        }
    }
}

/// In-progress map for [`BinSerializer`]. Entries buffer until `end` (maps
/// rarely declare reliable lengths); keys keep their native encoded types.
#[derive(Debug)]
pub struct BinMap<'a> {
    out: &'a mut Vec<u8>,
    written: u64,
    buffer: Vec<u8>,
}

impl SerializeMap for BinMap<'_> {
    type Ok = ();
    type Error = SnapshotError;

    fn serialize_entry<K, V>(&mut self, key: &K, value: &V) -> Result<(), SnapshotError>
    where
        K: Serialize + ?Sized,
        V: Serialize + ?Sized,
    {
        key.serialize(BinSerializer {
            out: &mut self.buffer,
        })?;
        value.serialize(BinSerializer {
            out: &mut self.buffer,
        })?;
        self.written += 1;
        Ok(())
    }

    fn end(self) -> Result<(), SnapshotError> {
        push_uvarint(self.out, self.written);
        self.out.extend_from_slice(&self.buffer);
        Ok(())
    }
}

impl<'a> Serializer for BinSerializer<'a> {
    type Ok = ();
    type Error = SnapshotError;
    type SerializeSeq = BinSeq<'a>;
    type SerializeMap = BinMap<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), SnapshotError> {
        self.out.push(if v { tag::TRUE } else { tag::FALSE });
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<(), SnapshotError> {
        self.out.push(tag::U64);
        push_uvarint(self.out, v);
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<(), SnapshotError> {
        self.out.push(tag::I64);
        push_uvarint(self.out, zigzag(v));
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), SnapshotError> {
        self.out.push(tag::F64);
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), SnapshotError> {
        self.out.push(tag::STR);
        push_uvarint(self.out, v.len() as u64);
        self.out.extend_from_slice(v.as_bytes());
        Ok(())
    }

    fn serialize_unit(self) -> Result<(), SnapshotError> {
        self.out.push(tag::UNIT);
        Ok(())
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<BinSeq<'a>, SnapshotError> {
        self.out.push(tag::SEQ);
        let declared = match len {
            Some(n) => {
                let n = n as u64;
                push_uvarint(self.out, n);
                Some(n)
            }
            None => None,
        };
        Ok(BinSeq {
            out: self.out,
            declared,
            written: 0,
            buffer: Vec::new(),
        })
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<BinMap<'a>, SnapshotError> {
        self.out.push(tag::MAP);
        Ok(BinMap {
            out: self.out,
            written: 0,
            buffer: Vec::new(),
        })
    }
}

// The decoding driver: reads one tagged value and feeds the visitor.
struct BinReader<'r, 'a> {
    reader: &'r mut ByteReader<'a>,
}

impl<'r, 'a> BinReader<'r, 'a> {
    /// Skips one complete tagged value (used to drain sequence elements a
    /// fixed-arity visitor did not consume). `depth` caps input-driven
    /// recursion so crafted nesting cannot overflow the stack.
    fn skip_value(reader: &mut ByteReader<'a>, depth: u32) -> Result<(), SnapshotError> {
        if depth == 0 {
            return Err(SnapshotError::Codec("value nesting too deep".into()));
        }
        match reader.u8()? {
            tag::UNIT | tag::FALSE | tag::TRUE => Ok(()),
            tag::U64 | tag::I64 => reader.uvarint().map(|_| ()),
            tag::F64 => reader.take(8).map(|_| ()),
            tag::STR => {
                let len = reader.uvarint()?;
                let len = usize::try_from(len).map_err(|_| SnapshotError::LengthOverflow)?;
                reader.take(len).map(|_| ())
            }
            tag::SEQ => {
                let n = reader.uvarint()?;
                for _ in 0..n {
                    Self::skip_value(reader, depth - 1)?;
                }
                Ok(())
            }
            tag::MAP => {
                let n = reader.uvarint()?;
                for _ in 0..n {
                    Self::skip_value(reader, depth - 1)?;
                    Self::skip_value(reader, depth - 1)?;
                }
                Ok(())
            }
            other => Err(SnapshotError::Codec(format!(
                "unknown value tag {other:#04x}"
            ))),
        }
    }

    fn visit_seq_then_drain<'de, V: Visitor<'de>>(
        self,
        count: u64,
        visitor: V,
    ) -> Result<V::Value, SnapshotError> {
        let mut access = BinSeqAccess {
            reader: self.reader,
            left: count,
        };
        let value = visitor.visit_seq(&mut access)?;
        // Fixed-arity visitors (tuples) may stop early; drain what they left
        // so the next item starts at the right offset.
        let left = access.left;
        for _ in 0..left {
            Self::skip_value(access.reader, 64)?;
        }
        Ok(value)
    }

    fn visit_map_then_drain<'de, V: Visitor<'de>>(
        self,
        count: u64,
        visitor: V,
    ) -> Result<V::Value, SnapshotError> {
        let mut access = BinMapAccess {
            reader: self.reader,
            left: count,
        };
        let value = visitor.visit_map(&mut access)?;
        let left = access.left;
        for _ in 0..left {
            Self::skip_value(access.reader, 64)?;
            Self::skip_value(access.reader, 64)?;
        }
        Ok(value)
    }
}

struct BinSeqAccess<'r, 'a> {
    reader: &'r mut ByteReader<'a>,
    left: u64,
}

impl<'de> SeqAccess<'de> for &mut BinSeqAccess<'_, '_> {
    type Error = SnapshotError;

    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, SnapshotError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        T::deserialize(BinReader {
            reader: self.reader,
        })
        .map(Some)
    }
}

struct BinMapAccess<'r, 'a> {
    reader: &'r mut ByteReader<'a>,
    left: u64,
}

impl<'de> MapAccess<'de> for &mut BinMapAccess<'_, '_> {
    type Error = SnapshotError;

    fn next_entry<K, V>(&mut self) -> Result<Option<(K, V)>, SnapshotError>
    where
        K: Deserialize<'de>,
        V: Deserialize<'de>,
    {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        let key = K::deserialize(BinReader {
            reader: self.reader,
        })?;
        let value = V::deserialize(BinReader {
            reader: self.reader,
        })?;
        Ok(Some((key, value)))
    }
}

impl<'de> Deserializer<'de> for BinReader<'_, '_> {
    type Error = SnapshotError;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SnapshotError> {
        match self.reader.u8()? {
            tag::UNIT => visitor.visit_unit(),
            tag::FALSE => visitor.visit_bool(false),
            tag::TRUE => visitor.visit_bool(true),
            tag::U64 => {
                let v = self.reader.uvarint()?;
                visitor.visit_u64(v)
            }
            tag::I64 => {
                let v = unzigzag(self.reader.uvarint()?);
                visitor.visit_i64(v)
            }
            tag::F64 => {
                let bits = u64::from_le_bytes(self.reader.take(8)?.try_into().expect("8 bytes"));
                visitor.visit_f64(f64::from_bits(bits))
            }
            tag::STR => {
                let len = self.reader.uvarint()?;
                let len = usize::try_from(len).map_err(|_| SnapshotError::LengthOverflow)?;
                let bytes = self.reader.take(len)?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| SnapshotError::Codec("invalid UTF-8 in string".into()))?;
                visitor.visit_str(s)
            }
            tag::SEQ => {
                let count = self.reader.uvarint()?;
                let reader = self.reader;
                BinReader { reader }.visit_seq_then_drain(count, visitor)
            }
            tag::MAP => {
                let count = self.reader.uvarint()?;
                let reader = self.reader;
                BinReader { reader }.visit_map_then_drain(count, visitor)
            }
            other => Err(SnapshotError::Codec(format!(
                "unknown value tag {other:#04x}"
            ))),
        }
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SnapshotError> {
        match self.reader.u8()? {
            tag::SEQ => {
                let count = self.reader.uvarint()?;
                let reader = self.reader;
                BinReader { reader }.visit_seq_then_drain(count, visitor)
            }
            other => Err(SnapshotError::Codec(format!(
                "expected a sequence, found tag {other:#04x}"
            ))),
        }
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, SnapshotError> {
        match self.reader.u8()? {
            tag::MAP => {
                let count = self.reader.uvarint()?;
                let reader = self.reader;
                BinReader { reader }.visit_map_then_drain(count, visitor)
            }
            other => Err(SnapshotError::Codec(format!(
                "expected a map, found tag {other:#04x}"
            ))),
        }
    }
}

/// Encodes one value in the snapshot value codec (header-less; used by
/// tests and auxiliary metadata).
pub fn encode_value<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, SnapshotError> {
    let mut out = Vec::new();
    value.serialize(BinSerializer { out: &mut out })?;
    Ok(out)
}

/// Decodes one value in the snapshot value codec, requiring the buffer to
/// be fully consumed.
pub fn decode_value<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Result<T, SnapshotError> {
    let mut reader = ByteReader::new(bytes);
    let value = T::deserialize(BinReader {
        reader: &mut reader,
    })?;
    let left = reader.remaining();
    if left != 0 {
        return Err(SnapshotError::TrailingBytes { shard: 0, left });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_roundtrip() {
        assert_eq!(
            decode_value::<u64>(&encode_value(&7u64).unwrap()).unwrap(),
            7
        );
        assert_eq!(
            decode_value::<i64>(&encode_value(&-40_000i64).unwrap()).unwrap(),
            -40_000
        );
        assert_eq!(
            decode_value::<u32>(&encode_value(&u32::MAX).unwrap()).unwrap(),
            u32::MAX
        );
        assert!(decode_value::<bool>(&encode_value(&true).unwrap()).unwrap());
        assert_eq!(
            decode_value::<String>(&encode_value("héllo ☃").unwrap()).unwrap(),
            "héllo ☃"
        );
        let pair: (u32, String) = (9, "nine".into());
        assert_eq!(
            decode_value::<(u32, String)>(&encode_value(&(9u32, "nine")).unwrap()).unwrap(),
            pair
        );
        let nested: Vec<(u64, Vec<i64>)> = vec![(1, vec![-1, 1]), (2, vec![])];
        assert_eq!(
            decode_value::<Vec<(u64, Vec<i64>)>>(&encode_value(&nested).unwrap()).unwrap(),
            nested
        );
        let f = decode_value::<f64>(&encode_value(&2.5f64).unwrap()).unwrap();
        assert_eq!(f, 2.5);
    }

    #[test]
    fn maps_keep_native_key_types() {
        let mut m = std::collections::BTreeMap::new();
        m.insert(300u32, vec![1u64, 2]);
        m.insert(2, vec![]);
        let bytes = encode_value(&m).unwrap();
        let back: std::collections::BTreeMap<u32, Vec<u64>> = decode_value(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn varint_edges() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let bytes = encode_value(&v).unwrap();
            assert_eq!(decode_value::<u64>(&bytes).unwrap(), v);
        }
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            let bytes = encode_value(&v).unwrap();
            assert_eq!(decode_value::<i64>(&bytes).unwrap(), v);
        }
        // An 11-byte varint is rejected, not wrapped.
        let overlong = [
            tag::U64,
            0xff,
            0xff,
            0xff,
            0xff,
            0xff,
            0xff,
            0xff,
            0xff,
            0xff,
            0x7f,
        ];
        assert!(decode_value::<u64>(&overlong).is_err());
    }

    #[test]
    fn truncated_values_error() {
        let bytes = encode_value(&(17u32, "seventeen")).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode_value::<(u32, String)>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn frame_roundtrip_and_inspect() {
        let sections = [
            encode_section((0..5u32).map(|i| (i, i * 10))).unwrap(),
            encode_section(std::iter::empty::<(u32, u32)>()).unwrap(),
        ];
        let mut bytes = Vec::new();
        write_frame(Kind::MultiMap, &sections, &mut bytes).unwrap();

        let info = inspect(&bytes).unwrap();
        assert_eq!(info.kind, Kind::MultiMap);
        assert_eq!(info.items(), 5);
        assert_eq!(info.shards.len(), 2);
        assert_eq!(info.shards[1], (0, 0));

        let frame = Frame::parse(&bytes).unwrap();
        assert!(frame.expect_kind(Kind::Map).is_err());
        let mut seen = Vec::new();
        for section in frame.sections() {
            section.decode_each(|t: (u32, u32)| seen.push(t)).unwrap();
        }
        assert_eq!(seen, vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
    }

    /// Builds a version-1 frame (16-byte table entries, no checksums) the
    /// way pre-checksum builds wrote them.
    fn write_frame_v1(kind: Kind, sections: &[Section]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&1u16.to_le_bytes());
        out.push(kind as u8);
        out.push(0);
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for section in sections {
            out.extend_from_slice(&section.count.to_le_bytes());
            out.extend_from_slice(&(section.bytes.len() as u64).to_le_bytes());
        }
        for section in sections {
            out.extend_from_slice(&section.bytes);
        }
        out
    }

    #[test]
    fn versions_past_current_are_rejected() {
        let section = encode_section([(1u32, 2u32)]).unwrap();
        let mut bytes = Vec::new();
        write_frame(Kind::Map, std::slice::from_ref(&section), &mut bytes).unwrap();
        bytes[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert_eq!(
            Frame::parse(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(VERSION + 1)
        );
        bytes[4..6].copy_from_slice(&0u16.to_le_bytes());
        assert_eq!(
            Frame::parse(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(0)
        );
        // A genuine version-1 frame (no checksum column) is refused too.
        let v1 = write_frame_v1(Kind::Map, std::slice::from_ref(&section));
        assert_eq!(
            Frame::parse(&v1).unwrap_err(),
            SnapshotError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn payload_bit_flips_fail_the_checksum() {
        let sections = [
            encode_section((0..8u32).map(|i| (i, i * 3))).unwrap(),
            encode_section((8..16u32).map(|i| (i, i * 3))).unwrap(),
        ];
        let mut good = Vec::new();
        write_frame(Kind::Map, &sections, &mut good).unwrap();
        let payload_start = HEADER_BYTES + 2 * SHARD_ENTRY_BYTES;
        let second_payload = payload_start + sections[0].bytes.len();
        for (offset, bit, shard) in [
            (payload_start, 0, 0),
            (payload_start + 3, 5, 0),
            (second_payload, 7, 1),
            (good.len() - 1, 1, 1),
        ] {
            let mut bad = good.clone();
            bad[offset] ^= 1 << bit;
            match Frame::parse(&bad).unwrap_err() {
                SnapshotError::ChecksumMismatch {
                    shard: named,
                    stored,
                    computed,
                } => {
                    assert_eq!(named, shard, "flip at {offset} blamed the wrong shard");
                    assert_ne!(stored, computed);
                }
                other => panic!("flip at {offset} gave {other:?}, not a checksum mismatch"),
            }
        }
        assert!(Frame::parse(&good).is_ok(), "unflipped frame must parse");
    }

    #[test]
    fn save_atomic_roundtrips_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("axsn_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.axsn");
        save_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        // Overwrite: readers see either the old or the new bytes, and no
        // temporary survives the save.
        save_atomic(&path, b"second-longer-payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second-longer-payload");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|name| name.to_string_lossy() != "snap.axsn")
            .collect();
        assert!(leftovers.is_empty(), "stray files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tuple_arity_mismatch_is_detected_not_misaligned() {
        // Encode 3-tuples, decode as 2-tuples: the extra element is drained
        // per item, so both items decode and the stream stays aligned.
        let section = encode_section([(1u32, 2u32, 3u32), (4, 5, 6)]).unwrap();
        let mut pairs = Vec::new();
        let mut bytes = Vec::new();
        write_frame(Kind::Map, std::slice::from_ref(&section), &mut bytes).unwrap();
        let frame = Frame::parse(&bytes).unwrap();
        frame.sections()[0]
            .decode_each(|t: (u32, u32)| pairs.push(t))
            .unwrap();
        assert_eq!(pairs, vec![(1, 2), (4, 5)]);
        // The reverse — decoding wider than encoded — errors cleanly.
        let narrow = encode_section([(1u32, 2u32)]).unwrap();
        let mut bytes = Vec::new();
        write_frame(Kind::Map, std::slice::from_ref(&narrow), &mut bytes).unwrap();
        let frame = Frame::parse(&bytes).unwrap();
        assert!(frame.sections()[0]
            .decode_each(|_: (u32, u32, u32)| ())
            .is_err());
    }
}
