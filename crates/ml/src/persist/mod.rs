//! Versioned binary persistence for the incremental trainer.
//!
//! The paper's wearable personalizes its forest over days of wear, but until
//! this module the [`IncrementalTrainer`]'s sample pool lived only in process
//! memory — one power cycle and the accumulated personalization was gone.
//! This module is a self-contained little-endian codec that snapshots and
//! restores the full [`IncrementalTrainer`] state, so a device can power
//! down mid-lifetime and resume retraining exactly where it left off.
//! `seizure-core` nests that trainer snapshot inside its detector and
//! pipeline snapshots.
//!
//! Full snapshots are O(pool) to write; the [`journal`] submodule layers an
//! append-only delta journal of `retrain` batches on top, so the per-seizure
//! Flash write of a self-learning wearable is O(batch) between full
//! snapshots, and the [`store`] submodule lays both out crash-proof on Flash.
//!
//! # Envelope format
//!
//! Every snapshot is a byte string with the layout (all integers
//! little-endian):
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `b"SZRSNAP\0"` |
//! | 8      | 2    | format version ([`FORMAT_VERSION`]) |
//! | 10     | 2    | payload kind ([`SnapshotKind`]) |
//! | 12     | 8    | payload length `L` |
//! | 20     | `L`  | payload |
//! | 20+L   | 8    | FNV-1a 64 checksum of bytes `0 .. 20+L` |
//!
//! One checked parser reads this layout, for snapshots, journal entries and
//! the Flash store's bases alike. It frames the envelope at the front of a
//! byte string through one bounds-checked little-endian cursor, so no decode
//! path indexes a byte it has not checked. [`SnapshotReader::open`] then
//! validates front to back — magic, version, length consistency, checksum,
//! kind — and returns a **typed** [`PersistError`] for every way a file can
//! be wrong (truncated, foreign, from a future format, bit-flipped, or of
//! another payload kind). Corrupted input never panics and never allocates
//! unbounded buffers: every array length read from a payload is
//! bounds-checked against the bytes that are actually present before
//! anything is reserved.
//!
//! # Versioning policy
//!
//! The format version is bumped on **any** layout change; readers accept
//! exactly the version they were built for (wearable firmware pins one
//! format, migration happens off-device). The magic and the envelope layout
//! up to the version field are frozen forever, so any reader can at least
//! say "this is a snapshot, but from another format generation".
//!
//! # What is (and isn't) stored
//!
//! [`IncrementalTrainer`] snapshots hold the config, the seed, the training
//! pool, every cached per-tree arena together with its
//! `(blocks_owned, pool_len)` draw-stream fingerprint, and the last refit
//! count.
//!
//! * The pool's design matrix is serialized feature-major, the in-memory
//!   layout, next to the bit-packed labels.
//! * The per-feature sorted id runs are **rebuilt** on load rather than
//!   stored. They are fully determined by the columns (`f64::total_cmp`
//!   with stable ties), rebuilding takes one sort per feature, and dropping
//!   them shrinks the snapshot — the deciding factor against a 384 KB-Flash
//!   budget (see `seizure-edge`'s `MemoryModel::trainer_snapshot_bytes`). A
//!   pool past [`TrainingSet::MAX_SAMPLES`] samples is rejected as
//!   corrupted.
//!
//! A restored trainer is `==`-identical to the saved one, so
//! `save → load → retrain(new rows)` emits a forest node-identical to the
//! uninterrupted trainer for **any** split point of any grow schedule
//! (property-tested; see `crates/ml/tests/properties.rs`).
//!
//! # Example
//!
//! ```
//! use seizure_ml::persist::{trainer_from_bytes, trainer_to_bytes};
//! use seizure_ml::training::{IncrementalTrainer, IncrementalTrainerConfig};
//! use seizure_ml::RandomForestConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = IncrementalTrainerConfig {
//!     forest: RandomForestConfig { n_trees: 4, ..RandomForestConfig::default() },
//!     block_size: 8,
//! };
//! let mut trainer = IncrementalTrainer::new(config, 7);
//! let rows: Vec<f64> = (0..32).map(f64::from).collect();
//! let labels: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
//! trainer.retrain(&rows, 1, &labels)?;
//!
//! // Across a process boundary the pool and every fitted tree survive.
//! let snapshot = trainer_to_bytes(&trainer);
//! let restored = trainer_from_bytes(&snapshot)?;
//! assert_eq!(restored, trainer);
//! # Ok(())
//! # }
//! ```

use crate::flat::LEAF;
use crate::forest::RandomForestConfig;
use crate::incremental::{IncrementalTrainer, IncrementalTrainerConfig, TreeState};
use crate::training::{NodeArena, TrainingSet};
use std::error::Error;
use std::fmt;

pub mod journal;
pub mod store;

/// Magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"SZRSNAP\0";

/// Current snapshot format version. Bumped on any layout change; readers
/// accept exactly this version (see the module docs for the policy).
/// Version 2 added the real-time detector's quality-gate block (enable flag
/// plus calibrated amplitude reference) ahead of the model marker.
pub const FORMAT_VERSION: u16 = 2;

/// Size of the envelope header (magic + version + kind + payload length).
const HEADER_LEN: usize = 8 + 2 + 2 + 8;

/// Size of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// Total envelope overhead around a payload.
pub const ENVELOPE_LEN: usize = HEADER_LEN + CHECKSUM_LEN;

/// What a snapshot contains, stored in the envelope header so a reader can
/// refuse payloads of the wrong kind before decoding a single body byte.
/// Tags 1 and 2 belonged to the retired standalone flat-forest and
/// training-set snapshots and stay unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum SnapshotKind {
    /// A full [`IncrementalTrainer`] (pool + cached trees + fingerprints).
    IncrementalTrainer = 3,
    /// A `seizure-core` real-time detector (gate calibration plus the
    /// trainer); the payload is encoded by that crate.
    RealTimeDetector = 4,
    /// A `seizure-core` self-learning pipeline; the payload is encoded by
    /// that crate.
    SelfLearningPipeline = 5,
    /// One delta-journal entry (a single `retrain` batch bound to its base
    /// snapshot); see [`journal`].
    JournalEntry = 6,
}

/// Typed decoding failure. Corrupted input of any shape maps to one of these
/// variants — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The byte string ends before the envelope or a declared payload does.
    Truncated {
        /// Bytes required by the structure being read.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The first eight bytes are not [`MAGIC`] — not a snapshot at all.
    BadMagic {
        /// The bytes found in place of the magic.
        found: [u8; 8],
    },
    /// The snapshot was written by a different format generation.
    UnsupportedVersion {
        /// The version stored in the envelope.
        found: u16,
    },
    /// The envelope is authentic but holds another payload kind.
    WrongKind {
        /// The kind the caller asked for.
        expected: SnapshotKind,
        /// The kind tag stored in the envelope.
        found: u16,
    },
    /// The trailing checksum does not match the stored bytes.
    ChecksumMismatch {
        /// Checksum stored in the snapshot.
        stored: u64,
        /// Checksum recomputed over the received bytes.
        computed: u64,
    },
    /// The payload decodes to structurally inconsistent data.
    Corrupted {
        /// Description of the inconsistency.
        detail: String,
    },
    /// Neither base slot of a dual-slot Flash store holds a committed
    /// snapshot — the store cannot mount (see [`store::FlashStore::mount`]).
    NoValidSlot {
        /// Why slot A was rejected.
        slot_a: String,
        /// Why slot B was rejected.
        slot_b: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated { needed, available } => {
                write!(
                    f,
                    "snapshot truncated: needed {needed} bytes, got {available}"
                )
            }
            PersistError::BadMagic { found } => {
                write!(f, "not a snapshot: bad magic {found:02x?}")
            }
            PersistError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {FORMAT_VERSION})"
            ),
            PersistError::WrongKind { expected, found } => write!(
                f,
                "snapshot holds payload kind {found}, expected {expected:?}"
            ),
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            PersistError::Corrupted { detail } => write!(f, "corrupted snapshot: {detail}"),
            PersistError::NoValidSlot { slot_a, slot_b } => write!(
                f,
                "no valid base slot: slot A rejected ({slot_a}); slot B rejected ({slot_b})"
            ),
        }
    }
}

impl Error for PersistError {}

/// FNV-1a 64-bit hash — the envelope checksum. Public so tests (and external
/// tooling) can craft or verify envelopes byte by byte.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Little-endian payload writer. The envelope header is laid down up front
/// and the payload is written **directly behind it** in one buffer;
/// [`SnapshotWriter::finish`] back-patches the kind and length fields and
/// appends the checksum, so producing a snapshot never copies the payload.
/// Compound snapshots nest children the same way: [`SnapshotWriter::begin_nested`] /
/// [`SnapshotWriter::end_nested`] write the child envelope in place and
/// back-patch its length prefix, length field and checksum, instead of
/// materializing the child in its own buffer and memcpying it into the
/// parent (which cost ~4 extra O(pool) copies per pipeline save).
#[derive(Debug)]
pub struct SnapshotWriter {
    /// Envelope header followed by the payload written so far. The kind and
    /// payload-length fields hold placeholders until `finish`.
    buf: Vec<u8>,
    /// Number of nested envelopes currently open — sealing is strictly
    /// LIFO, so closing a handle out of order (which would checksum another
    /// child's placeholder header) panics at write time instead of emitting
    /// a corrupt snapshot.
    open_nested: usize,
}

/// Handle for a nested envelope opened with [`SnapshotWriter::begin_nested`];
/// must be closed with [`SnapshotWriter::end_nested`]. Nested envelopes may
/// nest further, but handles must be closed innermost-first —
/// `end_nested` panics on a handle closed out of order.
#[derive(Debug)]
#[must_use = "a nested envelope must be closed with end_nested"]
pub struct NestedEnvelope {
    /// Offset of the 8-byte nested length prefix.
    prefix_at: usize,
    /// Offset of the child envelope's first byte (its magic).
    start: usize,
    /// The kind back-patched into the child header on close.
    kind: SnapshotKind,
    /// Nesting depth at which this handle was opened (for the LIFO check).
    depth: usize,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// Creates a writer with an empty payload.
    pub fn new() -> Self {
        let mut buf = Vec::new();
        push_envelope_header(&mut buf);
        Self {
            buf,
            open_nested: 0,
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64` (the format is
    /// pointer-width independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` through its IEEE-754 bit pattern (bit-exact for
    /// every value, NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn slice_u32(&mut self, s: &[u32]) {
        self.usize(s.len());
        for &v in s {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a length-prefixed `f64` slice (bit-exact).
    pub fn slice_f64(&mut self, s: &[f64]) {
        self.usize(s.len());
        for &v in s {
            self.f64(v);
        }
    }

    /// Appends a length-prefixed, bit-packed `bool` slice (eight labels per
    /// byte — labels dominate no snapshot, but a wearable's Flash budget is
    /// small enough to care).
    pub fn bools(&mut self, s: &[bool]) {
        self.usize(s.len());
        let mut byte = 0u8;
        for (i, &b) in s.iter().enumerate() {
            byte |= (b as u8) << (i % 8);
            if i % 8 == 7 {
                self.buf.push(byte);
                byte = 0;
            }
        }
        if !s.len().is_multiple_of(8) {
            self.buf.push(byte);
        }
    }

    /// Appends a length-prefixed opaque byte block — used to nest one
    /// complete pre-built snapshot (envelope included) inside another, so
    /// compound payloads get defense-in-depth validation of their parts.
    /// When the child is encoded by this crate prefer
    /// [`SnapshotWriter::begin_nested`], which produces the same bytes
    /// without materializing the child in its own buffer first.
    pub fn nested(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Opens a nested child envelope **in place**: writes the length prefix
    /// and the child header directly into this writer's buffer and returns a
    /// handle. Everything written until the matching
    /// [`SnapshotWriter::end_nested`] becomes the child's payload. The bytes
    /// produced are identical to `self.nested(&child.finish(kind))` with a
    /// separately built child writer — minus the extra payload-sized copies.
    pub fn begin_nested(&mut self, kind: SnapshotKind) -> NestedEnvelope {
        let prefix_at = self.buf.len();
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        let start = self.buf.len();
        push_envelope_header(&mut self.buf);
        self.open_nested += 1;
        NestedEnvelope {
            prefix_at,
            start,
            kind,
            depth: self.open_nested,
        }
    }

    /// Closes a nested child envelope: back-patches the child's kind and
    /// payload-length fields, appends its checksum, and back-patches the
    /// outer length prefix written by [`SnapshotWriter::begin_nested`].
    ///
    /// # Panics
    ///
    /// When `child` is not the innermost open envelope — sealing out of
    /// order would checksum another child's placeholder header, emitting a
    /// snapshot that only fails at decode time (or worse, after it reached
    /// device Flash).
    pub fn end_nested(&mut self, child: NestedEnvelope) {
        let NestedEnvelope {
            prefix_at,
            start,
            kind,
            depth,
        } = child;
        assert_eq!(
            depth, self.open_nested,
            "nested envelopes must be closed innermost-first"
        );
        self.open_nested -= 1;
        seal_envelope(&mut self.buf, start, kind);
        let nested_len = (self.buf.len() - start) as u64;
        self.buf[prefix_at..prefix_at + 8].copy_from_slice(&nested_len.to_le_bytes());
    }

    /// Seals the envelope: back-patches the `kind` and payload-length fields
    /// of the header written at creation, appends the checksum, and returns
    /// the snapshot bytes. The payload is never copied.
    ///
    /// # Panics
    ///
    /// When a nested envelope opened with [`SnapshotWriter::begin_nested`]
    /// was never closed (its length and checksum fields still hold
    /// placeholders).
    pub fn finish(mut self, kind: SnapshotKind) -> Vec<u8> {
        assert_eq!(
            self.open_nested, 0,
            "every nested envelope must be closed before finish"
        );
        seal_envelope(&mut self.buf, 0, kind);
        self.buf
    }
}

/// Appends an envelope header with placeholder kind and payload-length
/// fields (back-patched by [`seal_envelope`]).
fn push_envelope_header(buf: &mut Vec<u8>) {
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes()); // kind, patched on seal
    buf.extend_from_slice(&0u64.to_le_bytes()); // payload length, patched on seal
}

/// Seals the envelope starting at `start` (whose header was written by
/// [`push_envelope_header`] and whose payload ends at the buffer's current
/// end): back-patches kind and payload length, then appends the FNV-1a
/// checksum of the envelope bytes.
fn seal_envelope(buf: &mut Vec<u8>, start: usize, kind: SnapshotKind) {
    let payload_len = (buf.len() - start - HEADER_LEN) as u64;
    buf[start + 10..start + 12].copy_from_slice(&(kind as u16).to_le_bytes());
    buf[start + 12..start + 20].copy_from_slice(&payload_len.to_le_bytes());
    let checksum = fnv1a(&buf[start..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
}

/// Bounds-checked little-endian cursor over untrusted bytes, under the
/// envelope parser, the payload reader and the Flash store's slot header
/// alike. A read that would run past the end returns `None` and consumes
/// nothing.
#[derive(Debug)]
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let taken = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(taken)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// The bytes read so far.
    fn consumed(&self) -> &'a [u8] {
        self.bytes.get(..self.pos).unwrap_or_default()
    }

    /// How many bytes are left to read.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// One envelope framed at the front of a byte string by
/// [`Envelope::parse`], which verifies only the magic and that the declared
/// length is present. Decoders go on through [`Envelope::open`]; the Flash
/// store checks only the checksum of a base it treats as opaque.
#[derive(Debug, Clone, Copy)]
struct Envelope<'a> {
    /// Format version stored in the header.
    version: u16,
    /// Payload kind tag stored in the header.
    kind: u16,
    payload: &'a [u8],
    /// Header plus payload: the bytes the checksum covers.
    signed: &'a [u8],
    /// FNV-1a checksum stored behind the payload; a journal entry's base
    /// fingerprint.
    checksum: u64,
}

impl<'a> Envelope<'a> {
    /// Frames the envelope at the front of `bytes`, leaving any bytes behind
    /// it to the caller. This is the one reader of the header layout.
    ///
    /// # Errors
    ///
    /// [`PersistError::BadMagic`] when `bytes` do not open with [`MAGIC`] (or,
    /// when shorter, with a prefix of it). When `bytes` end before the
    /// envelope they declare: [`PersistError::UnsupportedVersion`] if the
    /// version field survived and names another format generation, otherwise
    /// [`PersistError::Truncated`]. `Truncated` therefore means a strict
    /// prefix of an envelope of this format — what a torn write leaves.
    fn parse(bytes: &'a [u8]) -> Result<Self, PersistError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take(MAGIC.len());
        let head = magic.unwrap_or(bytes);
        if !MAGIC.starts_with(head) {
            let mut found = [0u8; 8];
            found.iter_mut().zip(head).for_each(|(f, &b)| *f = b);
            return Err(PersistError::BadMagic { found });
        }
        let version = magic.and_then(|_| r.u16());
        let kind = version.and_then(|_| r.u16());
        let declared = kind.and_then(|_| r.u64());
        let payload = declared.and_then(|len| r.take(usize::try_from(len).ok()?));
        let signed = r.consumed();
        let checksum = payload.and_then(|_| r.u64());
        match (version, kind, payload, checksum) {
            (Some(version), Some(kind), Some(payload), Some(checksum)) => Ok(Self {
                version,
                kind,
                payload,
                signed,
                checksum,
            }),
            (Some(found), ..) if found != FORMAT_VERSION => {
                Err(PersistError::UnsupportedVersion { found })
            }
            _ => Err(PersistError::Truncated {
                // Saturate: a corrupt length field must produce this typed
                // error, not an overflow panic while describing it.
                needed: declared.map_or(ENVELOPE_LEN, |len| {
                    usize::try_from(len)
                        .unwrap_or(usize::MAX)
                        .saturating_add(ENVELOPE_LEN)
                }),
                available: bytes.len(),
            }),
        }
    }

    /// Frames `bytes` as exactly one envelope.
    ///
    /// # Errors
    ///
    /// Those of [`Envelope::parse`], plus [`PersistError::Corrupted`] when
    /// bytes follow the declared envelope.
    fn whole(bytes: &'a [u8]) -> Result<Self, PersistError> {
        let envelope = Self::parse(bytes)?;
        if envelope.len() < bytes.len() {
            return Err(PersistError::Corrupted {
                detail: format!(
                    "payload declares {} bytes but {} are present",
                    envelope.payload.len(),
                    bytes.len() - ENVELOPE_LEN
                ),
            });
        }
        Ok(envelope)
    }

    /// Bytes the envelope occupies, checksum included.
    fn len(&self) -> usize {
        self.signed.len() + CHECKSUM_LEN
    }

    /// Recomputes the checksum over the signed bytes.
    ///
    /// # Errors
    ///
    /// [`PersistError::ChecksumMismatch`] when it differs from the stored one.
    fn verify_checksum(&self) -> Result<(), PersistError> {
        let computed = fnv1a(self.signed);
        if computed != self.checksum {
            return Err(PersistError::ChecksumMismatch {
                stored: self.checksum,
                computed,
            });
        }
        Ok(())
    }

    /// Validates version, checksum and kind, in that order, and returns a
    /// reader over the payload.
    ///
    /// # Errors
    ///
    /// [`PersistError::UnsupportedVersion`],
    /// [`PersistError::ChecksumMismatch`] or [`PersistError::WrongKind`].
    fn open(self, kind: SnapshotKind) -> Result<SnapshotReader<'a>, PersistError> {
        if self.version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: self.version,
            });
        }
        self.verify_checksum()?;
        if self.kind != kind as u16 {
            return Err(PersistError::WrongKind {
                expected: kind,
                found: self.kind,
            });
        }
        Ok(SnapshotReader {
            payload: ByteReader::new(self.payload),
        })
    }
}

/// Little-endian payload reader over a validated envelope.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    payload: ByteReader<'a>,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the envelope that `bytes` must hold exactly — magic,
    /// version, declared payload length, checksum, kind — and returns a
    /// reader over the payload.
    ///
    /// # Errors
    ///
    /// One typed [`PersistError`] per failure mode; see the variant docs.
    pub fn open(bytes: &'a [u8], kind: SnapshotKind) -> Result<Self, PersistError> {
        Envelope::whole(bytes)?.open(kind)
    }

    /// The value `read` takes from the payload, or
    /// [`PersistError::Corrupted`] when fewer than the `n` bytes it needs
    /// remain.
    fn field<T>(
        &mut self,
        n: usize,
        read: impl FnOnce(&mut ByteReader<'a>) -> Option<T>,
    ) -> Result<T, PersistError> {
        read(&mut self.payload).ok_or_else(|| PersistError::Corrupted {
            detail: format!(
                "payload field needs {n} bytes at offset {} but only {} remain",
                self.payload.pos,
                self.payload.remaining()
            ),
        })
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupted`] when the payload is exhausted.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        self.field(1, ByteReader::u8)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupted`] when the payload is exhausted.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        self.field(8, ByteReader::u64)
    }

    /// Reads a `u64` and narrows it to `usize`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupted`] on exhaustion or when the value exceeds
    /// the platform's address width.
    pub fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| PersistError::Corrupted {
            detail: format!("length {v} exceeds this platform's address width"),
        })
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupted`] when the payload is exhausted.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool` (rejecting bytes other than 0/1, which can only come
    /// from corruption).
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupted`] on exhaustion or a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(PersistError::Corrupted {
                detail: format!("boolean field holds byte {b}"),
            }),
        }
    }

    /// The next `n` payload bytes. Every length prefix is checked against
    /// the remaining payload here, **before** anything is allocated, so
    /// corrupt lengths cannot trigger huge reservations.
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        self.field(n, |r| r.take(n))
    }

    /// Reads a length prefix and the `N`-byte elements behind it.
    fn elements<const N: usize>(&mut self) -> Result<&'a [[u8; N]], PersistError> {
        let len = self.usize()?;
        let bytes = len.checked_mul(N).ok_or(PersistError::Corrupted {
            detail: format!("slice length {len} overflows"),
        })?;
        Ok(self.take(bytes)?.as_chunks().0)
    }

    /// Reads a length-prefixed `u32` slice.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupted`] on exhaustion or an oversized length.
    pub fn slice_u32(&mut self) -> Result<Vec<u32>, PersistError> {
        let elements = self.elements()?;
        Ok(elements.iter().map(|&b| u32::from_le_bytes(b)).collect())
    }

    /// Reads a length-prefixed `f64` slice (bit-exact).
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupted`] on exhaustion or an oversized length.
    pub fn slice_f64(&mut self) -> Result<Vec<f64>, PersistError> {
        let elements = self.elements()?;
        Ok(elements.iter().map(|&b| f64::from_le_bytes(b)).collect())
    }

    /// Reads a length-prefixed, bit-packed `bool` slice.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupted`] on exhaustion or an oversized length.
    pub fn bools(&mut self) -> Result<Vec<bool>, PersistError> {
        let len = self.usize()?;
        let bytes = self.take(len.div_ceil(8))?;
        Ok((0..len).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
    }

    /// Reads a length-prefixed opaque byte block (a nested snapshot).
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupted`] on exhaustion or an oversized length.
    pub fn nested(&mut self) -> Result<&'a [u8], PersistError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Asserts the payload was consumed exactly — trailing bytes mean the
    /// reader and writer disagree about the layout.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupted`] when bytes remain.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.payload.remaining() != 0 {
            return Err(PersistError::Corrupted {
                detail: format!(
                    "{} unread trailing bytes after the payload",
                    self.payload.remaining()
                ),
            });
        }
        Ok(())
    }
}

/// Writes a [`RandomForestConfig`] in fixed-size form (41 bytes: the
/// `max_features` option always occupies flag + value). Public so
/// `seizure-core` can embed detector configurations in its own payloads.
pub fn write_forest_config(w: &mut SnapshotWriter, config: &RandomForestConfig) {
    w.usize(config.n_trees);
    w.usize(config.max_depth);
    w.usize(config.min_samples_split);
    w.bool(config.max_features.is_some());
    w.usize(config.max_features.unwrap_or(0));
    w.f64(config.bootstrap_fraction);
}

/// Reads a [`RandomForestConfig`] written by [`write_forest_config`].
///
/// # Errors
///
/// Propagates the reader's [`PersistError`]s.
pub fn read_forest_config(r: &mut SnapshotReader<'_>) -> Result<RandomForestConfig, PersistError> {
    let n_trees = r.usize()?;
    let max_depth = r.usize()?;
    let min_samples_split = r.usize()?;
    let has_max_features = r.bool()?;
    let max_features_value = r.usize()?;
    let bootstrap_fraction = r.f64()?;
    Ok(RandomForestConfig {
        n_trees,
        max_depth,
        min_samples_split,
        max_features: has_max_features.then_some(max_features_value),
        bootstrap_fraction,
    })
}

fn write_arena(w: &mut SnapshotWriter, arena: &NodeArena) {
    w.slice_u32(&arena.feature);
    w.slice_f64(&arena.threshold);
    w.slice_u32(&arena.left);
    w.slice_u32(&arena.right);
    w.slice_f64(&arena.leaf_prob);
}

fn read_arena(r: &mut SnapshotReader<'_>) -> Result<NodeArena, PersistError> {
    let feature = r.slice_u32()?;
    let threshold = r.slice_f64()?;
    let left = r.slice_u32()?;
    let right = r.slice_u32()?;
    let leaf_prob = r.slice_f64()?;
    let n = feature.len();
    if [threshold.len(), left.len(), right.len(), leaf_prob.len()] != [n; 4] {
        return Err(PersistError::Corrupted {
            detail: "tree arena arrays disagree on node count".to_string(),
        });
    }
    Ok(NodeArena {
        feature,
        threshold,
        left,
        right,
        leaf_prob,
    })
}

/// Validates the structural invariants of a tree arena: in-bounds split
/// features and children that point strictly forward. The tree builder
/// emits nodes in DFS preorder from root 0, so every authentic child index
/// exceeds its parent's; enforcing that here makes decoded trees provably
/// acyclic — a crafted snapshot with a back-pointing child must fail with a
/// typed error, not hang the first prediction.
fn check_arena(num_features: usize, arena: &NodeArena) -> Result<(), PersistError> {
    let n = arena.feature.len();
    let splits = arena.feature.iter().zip(&arena.left).zip(&arena.right);
    for (i, ((&feature, &left), &right)) in splits.enumerate() {
        if feature == LEAF {
            continue;
        }
        if feature as usize >= num_features || left as usize >= n || right as usize >= n {
            return Err(PersistError::Corrupted {
                detail: format!("split node {i} references out-of-bounds data"),
            });
        }
        if left as usize <= i || right as usize <= i {
            return Err(PersistError::Corrupted {
                detail: format!(
                    "split node {i} has a non-forward child, breaking DFS preorder acyclicity"
                ),
            });
        }
    }
    Ok(())
}

fn write_training_set_body(w: &mut SnapshotWriter, set: &TrainingSet) {
    w.usize(set.num_features());
    w.bools(set.labels());
    w.slice_f64(set.columns());
}

fn read_training_set_body(r: &mut SnapshotReader<'_>) -> Result<TrainingSet, PersistError> {
    let num_features = r.usize()?;
    let labels = r.bools()?;
    let columns = r.slice_f64()?;
    TrainingSet::from_columns(columns, num_features, labels).map_err(|e| PersistError::Corrupted {
        detail: format!("training set does not reconstruct: {e}"),
    })
}

/// Writes the payload of an [`IncrementalTrainer`] snapshot into `w` —
/// configuration, seed, the accumulated pool, every cached tree arena with
/// its `(blocks_owned, pool_len)` draw-stream fingerprint, and the last
/// refit count. Public so `seizure-core` can nest a trainer inside its own
/// envelopes through [`SnapshotWriter::begin_nested`] without materializing
/// the O(pool) payload in a separate buffer first.
pub fn write_trainer_body(w: &mut SnapshotWriter, trainer: &IncrementalTrainer) {
    let (config, seed, set, trees, last_refit) = trainer.snapshot_parts();
    write_forest_config(w, &config.forest);
    w.usize(config.block_size);
    w.u64(seed);
    w.usize(last_refit);
    w.bool(set.is_some());
    if let Some(set) = set {
        write_training_set_body(w, set);
    }
    w.usize(trees.len());
    for t in trees {
        w.usize(t.blocks_owned);
        w.usize(t.pool_len);
        write_arena(w, &t.arena);
    }
}

/// Snapshots the full state of an [`IncrementalTrainer`]: configuration,
/// seed, the accumulated pool, every cached tree arena with its
/// `(blocks_owned, pool_len)` draw-stream fingerprint, and the last refit
/// count.
pub fn trainer_to_bytes(trainer: &IncrementalTrainer) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    write_trainer_body(&mut w, trainer);
    w.finish(SnapshotKind::IncrementalTrainer)
}

/// Restores an [`IncrementalTrainer`] snapshot. The restored trainer is
/// `==`-identical to the saved one, so continuing to retrain it is
/// node-identical to never having stopped (property-tested).
///
/// # Errors
///
/// A typed [`PersistError`] for any malformed input; see the module docs.
pub fn trainer_from_bytes(bytes: &[u8]) -> Result<IncrementalTrainer, PersistError> {
    let mut r = SnapshotReader::open(bytes, SnapshotKind::IncrementalTrainer)?;
    let forest = read_forest_config(&mut r)?;
    let block_size = r.usize()?;
    let seed = r.u64()?;
    let last_refit = r.usize()?;
    let set = if r.bool()? {
        Some(read_training_set_body(&mut r)?)
    } else {
        None
    };
    let n_trees = r.usize()?;
    let mut trees = Vec::with_capacity(n_trees.min(1024));
    for _ in 0..n_trees {
        let blocks_owned = r.usize()?;
        let pool_len = r.usize()?;
        let arena = read_arena(&mut r)?;
        trees.push(TreeState {
            arena,
            blocks_owned,
            pool_len,
        });
    }
    r.finish()?;
    if !trees.is_empty() && trees.len() != forest.n_trees {
        return Err(PersistError::Corrupted {
            detail: format!(
                "snapshot caches {} trees but the configuration declares {}",
                trees.len(),
                forest.n_trees
            ),
        });
    }
    // A pool without trees is reachable (a retrain that failed hyper-
    // parameter validation after installing the pool); trees without a pool
    // are not.
    if !trees.is_empty() && set.is_none() {
        return Err(PersistError::Corrupted {
            detail: "cached trees require the training pool they were fitted on".to_string(),
        });
    }
    if last_refit > trees.len() {
        return Err(PersistError::Corrupted {
            detail: format!(
                "last refit count {last_refit} exceeds the {} cached trees",
                trees.len()
            ),
        });
    }
    if let Some(set) = &set {
        let num_features = set.num_features();
        for (t, state) in trees.iter().enumerate() {
            if state.pool_len > set.len() {
                return Err(PersistError::Corrupted {
                    detail: format!("tree {t} fingerprints a pool larger than the training set"),
                });
            }
            check_arena(num_features, &state.arena).map_err(|e| PersistError::Corrupted {
                detail: format!("tree {t}: {e}"),
            })?;
        }
    }
    Ok(IncrementalTrainer::from_snapshot_parts(
        IncrementalTrainerConfig { forest, block_size },
        seed,
        set,
        trees,
        last_refit,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::journal::JournalWriter;

    fn rows_and_labels(n: usize) -> (Vec<f64>, Vec<bool>) {
        let mut rows = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let noise = ((i * 37 + 11) % 23) as f64 / 23.0;
            let positive = i % 2 == 0;
            rows.push(if positive { 4.0 + noise } else { noise });
            rows.push(((i * 7) % 13) as f64);
            labels.push(positive);
        }
        (rows, labels)
    }

    fn small_trainer(n: usize) -> IncrementalTrainer {
        let (rows, labels) = rows_and_labels(n);
        let config = IncrementalTrainerConfig {
            forest: RandomForestConfig {
                n_trees: 5,
                max_depth: 5,
                ..RandomForestConfig::default()
            },
            block_size: 16,
        };
        let mut trainer = IncrementalTrainer::new(config, 11);
        trainer.retrain(&rows, 2, &labels).unwrap();
        trainer
    }

    #[test]
    fn trainer_round_trips_with_rebuilt_orders() {
        // Heavy ties + a NaN exercise the presort rebuild's total order.
        let mut rows: Vec<f64> = (0..120).map(|i| ((i * 7) % 5) as f64 * 0.5).collect();
        rows[13] = f64::NAN;
        let labels: Vec<bool> = (0..60).map(|i| i % 3 == 0).collect();
        let config = IncrementalTrainerConfig {
            forest: RandomForestConfig {
                n_trees: 3,
                max_depth: 4,
                ..RandomForestConfig::default()
            },
            block_size: 16,
        };
        let mut trainer = IncrementalTrainer::new(config, 2);
        trainer.retrain(&rows, 2, &labels).unwrap();
        let restored = trainer_from_bytes(&trainer_to_bytes(&trainer)).unwrap();
        // Structural identity covering columns, labels AND the presorted
        // order arrays; compared through Debug because derived `PartialEq`
        // can never equate the NaN column with itself.
        assert_eq!(format!("{restored:?}"), format!("{trainer:?}"));
    }

    #[test]
    fn grown_trainer_round_trips_like_a_rebuilt_one() {
        // The pool's runs absorb the second batch through a merge; the
        // decoder rebuilds every run with one sort.
        let (rows, labels) = rows_and_labels(50);
        let mut grown = small_trainer(20);
        grown.retrain(&rows[40..], 2, &labels[20..]).unwrap();
        let restored = trainer_from_bytes(&trainer_to_bytes(&grown)).unwrap();
        assert_eq!(restored, grown);
    }

    #[test]
    fn empty_trainer_round_trips() {
        let config = IncrementalTrainerConfig::default();
        let trainer = IncrementalTrainer::new(config, 99);
        let restored = trainer_from_bytes(&trainer_to_bytes(&trainer)).unwrap();
        assert_eq!(restored, trainer);
        assert_eq!(restored.num_samples(), 0);
        assert!(restored.current_forest().is_none());
    }

    #[test]
    fn pool_without_trees_round_trips() {
        // A first retrain that fails hyper-parameter validation leaves the
        // pool installed with no fitted trees — a reachable state that must
        // survive persistence too.
        let config = IncrementalTrainerConfig {
            forest: RandomForestConfig {
                n_trees: 0,
                ..RandomForestConfig::default()
            },
            block_size: 16,
        };
        let (rows, labels) = rows_and_labels(30);
        let mut trainer = IncrementalTrainer::new(config, 1);
        assert!(trainer.retrain(&rows, 2, &labels).is_err());
        assert_eq!(trainer.num_samples(), 30);
        let restored = trainer_from_bytes(&trainer_to_bytes(&trainer)).unwrap();
        assert_eq!(restored, trainer);
    }

    #[test]
    fn fitted_trainer_round_trips_and_keeps_its_forest() {
        let trainer = small_trainer(100);
        let restored = trainer_from_bytes(&trainer_to_bytes(&trainer)).unwrap();
        assert_eq!(restored, trainer);
        assert_eq!(restored.current_forest(), trainer.current_forest());
        assert_eq!(restored.last_refit_count(), trainer.last_refit_count());
    }

    #[test]
    fn resumed_trainer_retrains_node_identically() {
        let (rows, labels) = rows_and_labels(200);
        let config = IncrementalTrainerConfig {
            forest: RandomForestConfig {
                n_trees: 6,
                max_depth: 5,
                ..RandomForestConfig::default()
            },
            block_size: 16,
        };
        let mut uninterrupted = IncrementalTrainer::new(config, 4);
        uninterrupted
            .retrain(&rows[..240], 2, &labels[..120])
            .unwrap();
        let snapshot = trainer_to_bytes(&uninterrupted);
        let reference = uninterrupted
            .retrain(&rows[240..], 2, &labels[120..])
            .unwrap();

        let mut resumed = trainer_from_bytes(&snapshot).unwrap();
        let continued = resumed.retrain(&rows[240..], 2, &labels[120..]).unwrap();
        assert_eq!(continued, reference);
        assert_eq!(resumed, uninterrupted);
    }

    /// The zero-copy nesting path (`begin_nested` / `end_nested` writing the
    /// child payload straight into the parent buffer and back-patching
    /// length + checksum) must emit exactly the bytes of the copying path
    /// (`nested` over a separately finished child) — the compound snapshot
    /// formats of `seizure-core` are pinned to that layout.
    #[test]
    fn in_place_nesting_is_byte_identical_to_the_copying_path() {
        let trainer = small_trainer(60);

        let mut copying = SnapshotWriter::new();
        copying.u64(7);
        copying.nested(&trainer_to_bytes(&trainer));
        copying.u8(9);
        let copying = copying.finish(SnapshotKind::RealTimeDetector);

        let mut in_place = SnapshotWriter::new();
        in_place.u64(7);
        let child = in_place.begin_nested(SnapshotKind::IncrementalTrainer);
        write_trainer_body(&mut in_place, &trainer);
        in_place.end_nested(child);
        in_place.u8(9);
        let in_place = in_place.finish(SnapshotKind::RealTimeDetector);
        assert_eq!(in_place, copying);

        // The nested block still round-trips through the validating reader.
        let mut r = SnapshotReader::open(&in_place, SnapshotKind::RealTimeDetector).unwrap();
        assert_eq!(r.u64().unwrap(), 7);
        let restored = trainer_from_bytes(r.nested().unwrap()).unwrap();
        assert_eq!(restored, trainer);
        assert_eq!(r.u8().unwrap(), 9);
        r.finish().unwrap();
    }

    /// Two levels of in-place nesting (the pipeline > detector > trainer
    /// shape) seal inner envelopes first and keep every checksum valid.
    #[test]
    fn doubly_nested_envelopes_seal_inside_out() {
        let trainer = small_trainer(40);

        let mut copying = SnapshotWriter::new();
        let mut inner = SnapshotWriter::new();
        inner.bool(true);
        inner.nested(&trainer_to_bytes(&trainer));
        copying.nested(&inner.finish(SnapshotKind::RealTimeDetector));
        let copying = copying.finish(SnapshotKind::SelfLearningPipeline);

        let mut w = SnapshotWriter::new();
        let detector = w.begin_nested(SnapshotKind::RealTimeDetector);
        w.bool(true);
        let inner = w.begin_nested(SnapshotKind::IncrementalTrainer);
        write_trainer_body(&mut w, &trainer);
        w.end_nested(inner);
        w.end_nested(detector);
        let bytes = w.finish(SnapshotKind::SelfLearningPipeline);
        assert_eq!(bytes, copying);

        let mut outer = SnapshotReader::open(&bytes, SnapshotKind::SelfLearningPipeline).unwrap();
        let detector_bytes = outer.nested().unwrap();
        outer.finish().unwrap();
        let mut mid = SnapshotReader::open(detector_bytes, SnapshotKind::RealTimeDetector).unwrap();
        assert!(mid.bool().unwrap());
        assert_eq!(trainer_from_bytes(mid.nested().unwrap()).unwrap(), trainer);
        mid.finish().unwrap();
    }

    /// Sealing out of order would checksum the outer child's placeholder
    /// header — the writer must refuse at write time, not hand corrupt
    /// bytes to the device.
    #[test]
    #[should_panic(expected = "innermost-first")]
    fn out_of_order_nested_closure_panics() {
        let mut w = SnapshotWriter::new();
        let outer = w.begin_nested(SnapshotKind::RealTimeDetector);
        let inner = w.begin_nested(SnapshotKind::IncrementalTrainer);
        w.end_nested(outer);
        w.end_nested(inner);
    }

    #[test]
    #[should_panic(expected = "must be closed")]
    fn unclosed_nested_envelope_panics_at_finish() {
        let mut w = SnapshotWriter::new();
        let _open = w.begin_nested(SnapshotKind::IncrementalTrainer);
        let _ = w.finish(SnapshotKind::RealTimeDetector);
    }

    #[test]
    fn truncated_snapshots_are_rejected_at_every_length() {
        let trainer = small_trainer(60);
        let bytes = trainer_to_bytes(&trainer);
        // A handful of prefixes across the whole envelope, including cuts
        // inside the header, the payload and the checksum.
        for cut in [0, 7, 12, 19, 27, bytes.len() / 2, bytes.len() - 1] {
            let err = trainer_from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. } | PersistError::ChecksumMismatch { .. }
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn foreign_bytes_are_rejected_as_bad_magic() {
        let err = trainer_from_bytes(b"definitely not a snapshot, way too long").unwrap_err();
        assert!(matches!(err, PersistError::BadMagic { .. }), "{err}");
        // Too short for an envelope, yet no prefix of the magic either.
        let err = trainer_from_bytes(b"nope").unwrap_err();
        assert!(matches!(err, PersistError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn future_format_versions_are_rejected() {
        let mut bytes = trainer_to_bytes(&small_trainer(40));
        // Bump the version field and re-sign the envelope, emulating a
        // snapshot from a future build whose checksum is itself valid.
        bytes[8..10].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let body_end = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&checksum);
        let err = trainer_from_bytes(&bytes).unwrap_err();
        assert_eq!(
            err,
            PersistError::UnsupportedVersion {
                found: FORMAT_VERSION + 1
            }
        );
    }

    #[test]
    fn corrupt_length_fields_do_not_overflow() {
        // An all-ones payload-length field must yield the typed truncation
        // error, not an integer-overflow panic while building it.
        let mut bytes = trainer_to_bytes(&small_trainer(40));
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = trainer_from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Truncated { .. }), "{err}");

        // A checksum-valid pool of 4 labels x 2^62 features holding no
        // values: the shape product overflows to 0 and must not match the
        // empty column slice.
        let mut w = SnapshotWriter::new();
        write_forest_config(&mut w, &RandomForestConfig::default());
        w.usize(16); // block_size
        w.u64(0); // seed
        w.usize(0); // last refit count
        w.bool(true); // the pool
        w.usize(1 << 62);
        w.bools(&[true, false, true, false]);
        w.slice_f64(&[]);
        w.usize(0); // no cached trees
        let err = trainer_from_bytes(&w.finish(SnapshotKind::IncrementalTrainer)).unwrap_err();
        assert!(matches!(err, PersistError::Corrupted { .. }), "{err}");
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let mut bytes = trainer_to_bytes(&small_trainer(40));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = trainer_from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, PersistError::ChecksumMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn cyclic_node_graphs_are_rejected() {
        // A validly-signed trainer snapshot whose one cached tree has a
        // split node pointing at itself: bounds-legal, but traversal would
        // never terminate.
        let mut w = SnapshotWriter::new();
        write_forest_config(
            &mut w,
            &RandomForestConfig {
                n_trees: 1,
                ..RandomForestConfig::default()
            },
        );
        w.usize(16); // block_size
        w.u64(0); // seed
        w.usize(0); // last refit count
        w.bool(true); // the pool
        w.usize(1);
        w.bools(&[true, false]);
        w.slice_f64(&[0.0, 1.0]);
        w.usize(1); // one cached tree
        w.usize(1); // blocks owned
        w.usize(2); // pool length
        let cyclic = NodeArena {
            feature: vec![0],
            threshold: vec![0.5],
            left: vec![0],
            right: vec![0],
            leaf_prob: vec![0.0],
        };
        write_arena(&mut w, &cyclic);
        let err = trainer_from_bytes(&w.finish(SnapshotKind::IncrementalTrainer)).unwrap_err();
        assert!(matches!(err, PersistError::Corrupted { .. }), "{err}");
        assert!(err.to_string().contains("non-forward child"), "{err}");
    }

    #[test]
    fn wrong_payload_kinds_are_rejected() {
        let base = trainer_to_bytes(&small_trainer(30));
        let (rows, labels) = rows_and_labels(4);
        let mut writer = JournalWriter::new(&base, 30).unwrap();
        writer.append(&rows, 2, &labels, &[]).unwrap();
        let err = trainer_from_bytes(writer.unflushed()).unwrap_err();
        assert_eq!(
            err,
            PersistError::WrongKind {
                expected: SnapshotKind::IncrementalTrainer,
                found: SnapshotKind::JournalEntry as u16,
            }
        );
    }

    #[test]
    fn error_display_is_informative() {
        for (err, needle) in [
            (
                PersistError::Truncated {
                    needed: 28,
                    available: 3,
                },
                "truncated",
            ),
            (PersistError::BadMagic { found: [0; 8] }, "magic"),
            (PersistError::UnsupportedVersion { found: 9 }, "version 9"),
            (
                PersistError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "checksum",
            ),
            (
                PersistError::Corrupted {
                    detail: "boom".into(),
                },
                "boom",
            ),
            (
                PersistError::WrongKind {
                    expected: SnapshotKind::IncrementalTrainer,
                    found: 6,
                },
                "kind",
            ),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
