//! Crash-proof A/B Flash store for base snapshots plus a delta journal.
//!
//! The delta-journal layer ([`crate::persist::journal`]) already survives a
//! torn *append*: a power loss mid-entry leaves a recognizable partial frame
//! that replay drops. What it cannot survive is a torn *compaction* — the
//! naive device rewrites its single base region in place, and a power loss
//! halfway through the rewrite destroys the only copy of the pool.
//!
//! [`FlashStore`] closes that hole with the classic dual-bank scheme:
//!
//! * Two **base slots** (A and B) alternate. A compaction writes the fresh
//!   base into the *inactive* slot while the active slot stays untouched,
//!   then commits by programming a slot header whose wrapping **sequence
//!   number** is one above the active slot's. The header is the last thing
//!   written — until it lands (magic, checksum and base fingerprint all
//!   valid), mount keeps selecting the old slot, so a crash at any byte of
//!   the rewrite can only lose the *new* base, never the old one.
//! * A **journal region** follows the slots. Entries bind to their base by
//!   fingerprint (the base's trailing FNV-1a checksum, see
//!   [`journal::base_fingerprint`]), so mount can always tell whether the
//!   journal belongs to the slot it selected: after a crash between the
//!   header commit and the journal erase, the stale entries point at the
//!   now-inactive slot and are discarded instead of mis-applied.
//!
//! Mount arbitration validates, per slot: header magic + header checksum,
//! base length against the slot capacity, the base's envelope framing (magic
//! and declared length, read by the one envelope parser), the header
//! fingerprint against the base's stored checksum, and that checksum against
//! the base bytes. The base stays opaque otherwise: its format version and
//! payload kind are for the decoder to judge, not the arbitration. Of the
//! valid slots the one with the newer sequence (serial-number arithmetic, so
//! the order survives wraparound) wins; if the newer slot is corrupt the
//! store falls back to the older slot and the journal prefix bound to it. If
//! neither slot validates, mount returns the typed
//! [`PersistError::NoValidSlot`] — never a panic.
//!
//! The Flash itself is abstracted behind the byte-addressed [`Flash`] trait
//! so tests can swap the real device for [`FaultyFlash`], a test double that
//! injects power loss at any byte offset, torn multi-sector writes (sectors
//! programmed out of order) and bit flips. The crash-injection suite sweeps
//! a power-loss cut across every byte of a save/compact/append stream and
//! asserts the invariant: remount yields either the pre-operation or the
//! fully committed state, never a panic and never silent corruption.

use super::journal;
use super::{fnv1a, ByteReader, Envelope, PersistError, ENVELOPE_LEN};

/// Magic opening a slot header: `SZRSLOT\0`.
pub const SLOT_MAGIC: [u8; 8] = *b"SZRSLOT\0";

/// Byte length of a slot header: magic (8) + sequence (8) + base length (8)
/// + base fingerprint (8) + FNV-1a checksum over the first 32 bytes (8).
///
/// `seizure-edge`'s memory model mirrors this constant in its dual-slot
/// Flash budget; `tests/edge_platform.rs` pins the two against each other.
pub const SLOT_HEADER_LEN: usize = 40;

/// Which of the two alternating base slots is meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotId {
    /// First slot, at byte offset 0 of the Flash image.
    A,
    /// Second slot, directly after slot A.
    B,
}

impl SlotId {
    /// The other slot — compaction always writes there.
    pub fn other(self) -> SlotId {
        match self {
            SlotId::A => SlotId::B,
            SlotId::B => SlotId::A,
        }
    }
}

/// Byte layout of a [`FlashStore`] image: two equally sized base slots
/// followed by one journal region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Bytes reserved per base slot, *including* the [`SLOT_HEADER_LEN`]
    /// header.
    pub slot_bytes: usize,
    /// Bytes reserved for the journal region.
    pub journal_bytes: usize,
}

impl FlashGeometry {
    /// Geometry sized for base snapshots up to `base_capacity` bytes plus a
    /// journal region of `journal_bytes`.
    pub fn for_base(base_capacity: usize, journal_bytes: usize) -> FlashGeometry {
        FlashGeometry {
            slot_bytes: SLOT_HEADER_LEN + base_capacity,
            journal_bytes,
        }
    }

    /// Largest base snapshot a slot can hold.
    pub fn base_capacity(&self) -> usize {
        self.slot_bytes.saturating_sub(SLOT_HEADER_LEN)
    }

    /// Total bytes of Flash the layout occupies.
    pub fn total_bytes(&self) -> usize {
        2 * self.slot_bytes + self.journal_bytes
    }

    /// Byte offset of a slot's header.
    pub fn slot_offset(&self, slot: SlotId) -> usize {
        match slot {
            SlotId::A => 0,
            SlotId::B => self.slot_bytes,
        }
    }

    /// Byte offset of the journal region.
    pub fn journal_offset(&self) -> usize {
        2 * self.slot_bytes
    }

    fn validate(&self, flash_capacity: usize) -> Result<(), PersistError> {
        if self.base_capacity() < ENVELOPE_LEN {
            return Err(PersistError::Corrupted {
                detail: format!(
                    "slot of {} bytes cannot hold a header plus any envelope",
                    self.slot_bytes
                ),
            });
        }
        if self.total_bytes() > flash_capacity {
            return Err(PersistError::Truncated {
                needed: self.total_bytes(),
                available: flash_capacity,
            });
        }
        Ok(())
    }
}

/// Byte-addressed Flash device: the store reads anywhere and programs or
/// erases byte ranges. Real NOR parts program in pages and erase in blocks;
/// the trait keeps byte granularity so the fault injector can cut a write at
/// *any* byte, which is strictly harsher than page granularity.
pub trait Flash {
    /// Total device capacity in bytes.
    fn capacity(&self) -> usize;

    /// Reads `len` bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] when the range leaves the device, or the
    /// implementation's failure mode (a dead [`FaultyFlash`] refuses reads).
    fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, PersistError>;

    /// Programs `data` at `offset`, overwriting what is there.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] out of range, or an injected fault.
    fn program(&mut self, offset: usize, data: &[u8]) -> Result<(), PersistError>;

    /// Erases `len` bytes at `offset` back to `0xFF`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] out of range, or an injected fault.
    fn erase(&mut self, offset: usize, len: usize) -> Result<(), PersistError>;
}

/// In-memory [`Flash`] with no failure modes — the baseline backing store
/// for hosts, benches and happy-path tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemFlash {
    image: Vec<u8>,
}

impl MemFlash {
    /// A device of `capacity` bytes, fully erased.
    pub fn new(capacity: usize) -> MemFlash {
        MemFlash {
            image: vec![0xFF; capacity],
        }
    }

    /// Wraps an existing image (for example bytes read back from a file).
    pub fn from_image(image: Vec<u8>) -> MemFlash {
        MemFlash { image }
    }

    /// The raw device contents.
    pub fn image(&self) -> &[u8] {
        &self.image
    }
}

fn check_range(capacity: usize, offset: usize, len: usize) -> Result<(), PersistError> {
    let end = offset.saturating_add(len);
    if end > capacity {
        return Err(PersistError::Truncated {
            needed: end,
            available: capacity,
        });
    }
    Ok(())
}

impl Flash for MemFlash {
    fn capacity(&self) -> usize {
        self.image.len()
    }

    fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, PersistError> {
        check_range(self.image.len(), offset, len)?;
        Ok(self.image[offset..offset + len].to_vec())
    }

    fn program(&mut self, offset: usize, data: &[u8]) -> Result<(), PersistError> {
        check_range(self.image.len(), offset, data.len())?;
        self.image[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn erase(&mut self, offset: usize, len: usize) -> Result<(), PersistError> {
        check_range(self.image.len(), offset, len)?;
        self.image[offset..offset + len].fill(0xFF);
        Ok(())
    }
}

/// Fault-injecting [`Flash`] test double.
///
/// Three fault families, all deterministic:
///
/// * **Power loss at any byte offset** — [`FaultyFlash::power_loss_after`]
///   arms a budget of bytes that may still be programmed or erased; the
///   write that exhausts it lands only partially and every later operation
///   (including reads) fails, modelling a dead device. Sweep the budget
///   across `0..=bytes_written` of a fault-free run to hit every possible
///   tear point.
/// * **Torn multi-sector writes** — [`FaultyFlash::scrambled`] programs the
///   sectors of each multi-sector write in a seed-dependent order, so a
///   power loss can leave *later* sectors written while *earlier* ones are
///   not, as real controllers with write reordering do.
/// * **Bit flips** — [`FaultyFlash::flip_bit`] corrupts retention directly.
///
/// After a simulated crash, [`FaultyFlash::reboot`] keeps the (possibly
/// torn) image but clears the fault plan, modelling the next power cycle.
#[derive(Debug, Clone)]
pub struct FaultyFlash {
    image: Vec<u8>,
    sector_bytes: usize,
    budget: Option<usize>,
    scramble_seed: Option<u64>,
    dead: bool,
    bytes_written: usize,
    write_ops: u64,
}

impl FaultyFlash {
    /// Default sector size for torn-write splitting.
    pub const DEFAULT_SECTOR_BYTES: usize = 64;

    /// A fault-free device of `capacity` erased bytes.
    pub fn new(capacity: usize) -> FaultyFlash {
        FaultyFlash::from_image(vec![0xFF; capacity])
    }

    /// Wraps an existing image with no faults armed.
    pub fn from_image(image: Vec<u8>) -> FaultyFlash {
        FaultyFlash {
            image,
            sector_bytes: FaultyFlash::DEFAULT_SECTOR_BYTES,
            budget: None,
            scramble_seed: None,
            dead: false,
            bytes_written: 0,
            write_ops: 0,
        }
    }

    /// Overrides the sector size used to split multi-sector writes.
    pub fn with_sector_bytes(mut self, sector_bytes: usize) -> FaultyFlash {
        assert!(sector_bytes > 0, "sector size must be positive");
        self.sector_bytes = sector_bytes;
        self
    }

    /// Arms a power loss: after `bytes` more programmed or erased bytes the
    /// device dies mid-write.
    pub fn power_loss_after(mut self, bytes: usize) -> FaultyFlash {
        self.budget = Some(bytes);
        self
    }

    /// Arms torn multi-sector writes: sectors of each write are programmed
    /// in a `seed`-dependent order.
    pub fn scrambled(mut self, seed: u64) -> FaultyFlash {
        self.scramble_seed = Some(seed);
        self
    }

    /// Flips one bit of the image in place (retention corruption).
    pub fn flip_bit(&mut self, offset: usize, bit: u32) {
        self.image[offset] ^= 1u8 << (bit % 8);
    }

    /// Total bytes programmed or erased so far (partial writes count the
    /// bytes that actually landed). Run an operation stream fault-free and
    /// use this to size a power-loss sweep.
    pub fn bytes_written(&self) -> usize {
        self.bytes_written
    }

    /// `true` once an armed power loss has fired.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The raw device contents, torn writes and all.
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// Power-cycles the device: the image (including any torn write) is
    /// kept, the fault plan and death flag are cleared.
    pub fn reboot(self) -> FaultyFlash {
        FaultyFlash {
            sector_bytes: self.sector_bytes,
            ..FaultyFlash::from_image(self.image)
        }
    }

    fn power_loss_error(offset: usize) -> PersistError {
        PersistError::Corrupted {
            detail: format!("injected power loss during Flash write at offset {offset}"),
        }
    }

    /// Splits `[offset, offset + len)` at sector boundaries and returns the
    /// chunks in program order (scrambled when armed).
    fn chunks(&mut self, offset: usize, len: usize) -> Vec<(usize, usize)> {
        let mut chunks = Vec::new();
        let mut at = offset;
        while at < offset + len {
            let sector_end = (at / self.sector_bytes + 1) * self.sector_bytes;
            let end = sector_end.min(offset + len);
            chunks.push((at, end - at));
            at = end;
        }
        if let Some(seed) = self.scramble_seed {
            // Deterministic Fisher–Yates driven by SplitMix64 over the seed
            // and a per-write counter, so each write gets its own order.
            self.write_ops += 1;
            let mut state = seed ^ self.write_ops.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for i in (1..chunks.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                chunks.swap(i, j);
            }
        }
        chunks
    }

    /// Applies one write-like operation (`value = None` programs `data`,
    /// `Some(0xFF)` erases) under the fault plan.
    fn write_bytes(
        &mut self,
        offset: usize,
        data: Option<&[u8]>,
        len: usize,
    ) -> Result<(), PersistError> {
        if self.dead {
            return Err(FaultyFlash::power_loss_error(offset));
        }
        check_range(self.image.len(), offset, len)?;
        for (at, chunk_len) in self.chunks(offset, len) {
            let writable = match self.budget {
                Some(budget) => budget.min(chunk_len),
                None => chunk_len,
            };
            for i in 0..writable {
                self.image[at + i] = match data {
                    Some(bytes) => bytes[at - offset + i],
                    None => 0xFF,
                };
            }
            self.bytes_written += writable;
            if let Some(budget) = self.budget.as_mut() {
                *budget -= writable;
                if writable < chunk_len {
                    self.dead = true;
                    return Err(FaultyFlash::power_loss_error(at + writable));
                }
            }
        }
        Ok(())
    }
}

impl Flash for FaultyFlash {
    fn capacity(&self) -> usize {
        self.image.len()
    }

    fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, PersistError> {
        if self.dead {
            return Err(FaultyFlash::power_loss_error(offset));
        }
        check_range(self.image.len(), offset, len)?;
        Ok(self.image[offset..offset + len].to_vec())
    }

    fn program(&mut self, offset: usize, data: &[u8]) -> Result<(), PersistError> {
        self.write_bytes(offset, Some(data), data.len())
    }

    fn erase(&mut self, offset: usize, len: usize) -> Result<(), PersistError> {
        self.write_bytes(offset, None, len)
    }
}

/// What a store-routed delta save actually wrote — returned by
/// `seizure-core`'s `SelfLearningPipeline::save_to_store`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreSave {
    /// Nothing changed since the last save; nothing was written.
    Clean,
    /// The entries journaled since the last save (one per learned seizure,
    /// each O(batch)) landed in the journal region in one append.
    Appended,
    /// The state was compacted into the inactive base slot (A/B commit).
    Rebased,
}

/// Decoded slot header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotHeader {
    sequence: u64,
    base_len: u64,
    base_fingerprint: u64,
}

impl SlotHeader {
    fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(SLOT_HEADER_LEN);
        bytes.extend_from_slice(&SLOT_MAGIC);
        for field in [self.sequence, self.base_len, self.base_fingerprint] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    fn decode(bytes: &[u8]) -> Result<SlotHeader, PersistError> {
        let mut r = ByteReader::new(bytes);
        let (magic, sequence, base_len, base_fingerprint) = (r.array(), r.u64(), r.u64(), r.u64());
        let signed = r.consumed();
        let (Some(magic), Some(sequence), Some(base_len), Some(base_fingerprint), Some(stored)) =
            (magic, sequence, base_len, base_fingerprint, r.u64())
        else {
            return Err(PersistError::Truncated {
                needed: SLOT_HEADER_LEN,
                available: bytes.len(),
            });
        };
        if magic != SLOT_MAGIC {
            return Err(PersistError::BadMagic { found: magic });
        }
        let computed = fnv1a(signed);
        if stored != computed {
            return Err(PersistError::ChecksumMismatch { stored, computed });
        }
        Ok(SlotHeader {
            sequence,
            base_len,
            base_fingerprint,
        })
    }
}

/// `true` when sequence `a` is newer than `b` under serial-number
/// arithmetic, so the A/B ordering survives `u64` wraparound (a slot at
/// `u64::MAX` loses to a slot at `0`).
fn sequence_newer(a: u64, b: u64) -> bool {
    a != b && a.wrapping_sub(b) < u64::MAX / 2
}

/// What [`FlashStore::mount`] found and decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MountReport {
    /// The slot selected as the live base.
    pub active_slot: SlotId,
    /// Sequence number of the selected slot.
    pub sequence: u64,
    /// `true` when a slot that *looked* committed (its header magic was
    /// present) failed validation and the store recovered on the other
    /// slot — a torn compaction or retention corruption was survived.
    pub fell_back: bool,
    /// Journal entries bound to the selected base.
    pub journal_entries: usize,
    /// Bytes of those entries (the valid journal prefix).
    pub journal_len: usize,
    /// Journal bytes discarded: torn tails, entries bound to another base
    /// (a stale epoch), or frames breaking the pool chain.
    pub journal_discarded: usize,
}

/// Crash-proof dual-slot store over a [`Flash`] device.
///
/// The store always holds exactly one committed base (invariant established
/// by [`FlashStore::format`]) plus the journal entries appended since.
/// [`FlashStore::commit_base`] performs the A/B compaction,
/// [`FlashStore::append_journal`] the O(batch) delta append, and
/// [`FlashStore::mount`] re-arbitrates after a power cycle.
#[derive(Debug, Clone)]
pub struct FlashStore<F: Flash> {
    flash: F,
    geometry: FlashGeometry,
    active: SlotId,
    sequence: u64,
    base_len: usize,
    base_fingerprint: u64,
    journal_len: usize,
    journal_entries: usize,
    /// Journal bytes past `journal_len` may hold stale frames (after a
    /// mount that discarded entries); the next append erases them first so
    /// an old frame can never be parsed as the continuation of a new one.
    tail_dirty: bool,
}

impl<F: Flash> FlashStore<F> {
    /// Formats the device (erases the whole image) and commits `base` into
    /// slot A with sequence 1.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] when the geometry does not fit the
    /// device, [`PersistError::Corrupted`] when `base` does not fit a slot
    /// or is not an envelope, or any Flash failure.
    pub fn format(
        mut flash: F,
        geometry: FlashGeometry,
        base: &[u8],
    ) -> Result<Self, PersistError> {
        geometry.validate(flash.capacity())?;
        flash.erase(0, geometry.total_bytes())?;
        let mut store = FlashStore {
            flash,
            geometry,
            // Pseudo-state: the first commit targets `active.other()` = A
            // with sequence `0 + 1`.
            active: SlotId::B,
            sequence: 0,
            base_len: 0,
            base_fingerprint: 0,
            journal_len: 0,
            journal_entries: 0,
            tail_dirty: false,
        };
        store.commit_base(base)?;
        Ok(store)
    }

    /// Mounts an existing image, arbitrating slots and journal as described
    /// in the module docs.
    ///
    /// # Errors
    ///
    /// [`PersistError::NoValidSlot`] when neither slot holds a committed
    /// base; otherwise only Flash read failures. Corruption anywhere short
    /// of that is *recovered from*, not reported as an error.
    pub fn mount(flash: F, geometry: FlashGeometry) -> Result<(Self, MountReport), PersistError> {
        geometry.validate(flash.capacity())?;
        let slot_a = Self::read_slot(&flash, &geometry, SlotId::A);
        let slot_b = Self::read_slot(&flash, &geometry, SlotId::B);
        let (active, header, fell_back) = match (slot_a, slot_b) {
            (Ok(a), Ok(b)) => {
                if sequence_newer(b.sequence, a.sequence) {
                    (SlotId::B, b, false)
                } else {
                    (SlotId::A, a, false)
                }
            }
            (Ok(a), Err(_)) => {
                let looked_committed = Self::header_magic_present(&flash, &geometry, SlotId::B);
                (SlotId::A, a, looked_committed)
            }
            (Err(_), Ok(b)) => {
                let looked_committed = Self::header_magic_present(&flash, &geometry, SlotId::A);
                (SlotId::B, b, looked_committed)
            }
            (Err(ea), Err(eb)) => {
                return Err(PersistError::NoValidSlot {
                    slot_a: ea.to_string(),
                    slot_b: eb.to_string(),
                })
            }
        };

        // Journal: keep the longest prefix of entries that frame, verify and
        // decode, bind to the selected base and chain their pool positions.
        let raw = flash.read(geometry.journal_offset(), geometry.journal_bytes)?;
        let mut journal_len = 0usize;
        let mut journal_entries = 0usize;
        let mut expected_pool: Option<usize> = None;
        while let Some(rest) = raw.get(journal_len..) {
            let Ok((entry, len)) = journal::next_entry(rest, journal_entries) else {
                break;
            };
            if entry.base_fingerprint != header.base_fingerprint
                || expected_pool.is_some_and(|pool| entry.pool_len_before != pool)
            {
                break;
            }
            expected_pool = Some(entry.pool_len_before + entry.labels.len());
            journal_entries += 1;
            journal_len += len;
        }
        let tail_dirty = raw[journal_len..].iter().any(|&b| b != 0xFF);
        let discarded = raw[journal_len..]
            .iter()
            .rev()
            .skip_while(|&&b| b == 0xFF)
            .count();

        let report = MountReport {
            active_slot: active,
            sequence: header.sequence,
            fell_back,
            journal_entries,
            journal_len,
            journal_discarded: discarded,
        };
        Ok((
            FlashStore {
                flash,
                geometry,
                active,
                sequence: header.sequence,
                base_len: header.base_len as usize,
                base_fingerprint: header.base_fingerprint,
                journal_len,
                journal_entries,
                tail_dirty,
            },
            report,
        ))
    }

    /// Validates one slot end to end and returns its header.
    fn read_slot(
        flash: &F,
        geometry: &FlashGeometry,
        slot: SlotId,
    ) -> Result<SlotHeader, PersistError> {
        let offset = geometry.slot_offset(slot);
        let header = SlotHeader::decode(&flash.read(offset, SLOT_HEADER_LEN)?)?;
        let base_len = header.base_len as usize;
        if base_len > geometry.base_capacity() {
            return Err(PersistError::Corrupted {
                detail: format!(
                    "slot header declares a {base_len}-byte base beyond the {}-byte slot capacity",
                    geometry.base_capacity()
                ),
            });
        }
        let bytes = flash.read(offset + SLOT_HEADER_LEN, base_len)?;
        let base = Envelope::whole(&bytes)?;
        if base.checksum != header.base_fingerprint {
            return Err(PersistError::Corrupted {
                detail: format!(
                    "slot header fingerprint {:#018x} does not match the base's {:#018x}",
                    header.base_fingerprint, base.checksum
                ),
            });
        }
        base.verify_checksum()?;
        Ok(header)
    }

    fn header_magic_present(flash: &F, geometry: &FlashGeometry, slot: SlotId) -> bool {
        flash
            .read(geometry.slot_offset(slot), SLOT_MAGIC.len())
            .is_ok_and(|bytes| bytes == SLOT_MAGIC)
    }

    /// Compacts: writes `base` into the inactive slot and commits it by
    /// programming the slot header with the next sequence number, then
    /// erases the journal region. The active base stays untouched until the
    /// header lands, so a crash at any byte leaves the previous state
    /// recoverable.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupted`] when `base` exceeds the slot capacity,
    /// the errors of [`journal::base_fingerprint`] when it is not an
    /// envelope, or any Flash failure.
    pub fn commit_base(&mut self, base: &[u8]) -> Result<(), PersistError> {
        let fingerprint = journal::base_fingerprint(base)?;
        if base.len() > self.geometry.base_capacity() {
            return Err(PersistError::Corrupted {
                detail: format!(
                    "base snapshot of {} bytes exceeds the {}-byte slot capacity",
                    base.len(),
                    self.geometry.base_capacity()
                ),
            });
        }
        let target = self.active.other();
        let offset = self.geometry.slot_offset(target);
        // 1. Invalidate the target header so a torn base write can never
        //    masquerade as committed under the stale header.
        self.flash.erase(offset, SLOT_HEADER_LEN)?;
        // 2. The base payload.
        self.flash.program(offset + SLOT_HEADER_LEN, base)?;
        // 3. Commit point: the header with the next sequence number.
        let header = SlotHeader {
            sequence: self.sequence.wrapping_add(1),
            base_len: base.len() as u64,
            base_fingerprint: fingerprint,
        };
        self.flash.program(offset, &header.encode())?;
        // The commit is durable from here on; reflect it in RAM before the
        // journal erase so an erase failure cannot desynchronize us.
        self.active = target;
        self.sequence = header.sequence;
        self.base_len = base.len();
        self.base_fingerprint = fingerprint;
        self.journal_len = 0;
        self.journal_entries = 0;
        self.tail_dirty = true;
        // 4. Drop the stale journal (its entries bind to the old base; a
        //    crash before this completes only leaves entries mount will
        //    discard by fingerprint).
        self.flash
            .erase(self.geometry.journal_offset(), self.geometry.journal_bytes)?;
        self.tail_dirty = false;
        Ok(())
    }

    /// Appends journal bytes (one or more whole frames, as a
    /// [`journal::DeltaSave::Append`] carries every entry journaled since
    /// the last save) after the current journal prefix, and counts each
    /// frame as one entry, as a remount's [`MountReport::journal_entries`]
    /// will. The frames are counted by walking their envelope lengths; their
    /// rows are not decoded.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupted`] when the bytes do not fit the journal
    /// region (compact instead), the framing errors of the envelope parser
    /// when they are not a run of whole frames (nothing is written then), or
    /// any Flash failure.
    pub fn append_journal(&mut self, entry: &[u8]) -> Result<(), PersistError> {
        if entry.is_empty() {
            return Ok(());
        }
        if entry.len() > self.journal_remaining() {
            return Err(PersistError::Corrupted {
                detail: format!(
                    "journal append of {} bytes exceeds the {} bytes left in the region",
                    entry.len(),
                    self.journal_remaining()
                ),
            });
        }
        let mut frames = 0;
        let mut rest = entry;
        while !rest.is_empty() {
            rest = &rest[Envelope::parse(rest)?.len()..];
            frames += 1;
        }
        let offset = self.geometry.journal_offset() + self.journal_len;
        if self.tail_dirty {
            // Stale frames beyond the valid prefix (discarded at mount)
            // must go before new ones land, or an old same-sized frame
            // could be parsed as the continuation of the new journal.
            self.flash
                .erase(offset, self.geometry.journal_bytes - self.journal_len)?;
            self.tail_dirty = false;
        }
        self.flash.program(offset, entry)?;
        self.journal_len += entry.len();
        self.journal_entries += frames;
        Ok(())
    }

    /// The committed base snapshot.
    ///
    /// # Errors
    ///
    /// Flash read failures only — validation happened at mount/commit.
    pub fn base(&self) -> Result<Vec<u8>, PersistError> {
        self.flash.read(
            self.geometry.slot_offset(self.active) + SLOT_HEADER_LEN,
            self.base_len,
        )
    }

    /// The valid journal prefix bound to the committed base.
    ///
    /// # Errors
    ///
    /// Flash read failures only.
    pub fn journal(&self) -> Result<Vec<u8>, PersistError> {
        self.flash
            .read(self.geometry.journal_offset(), self.journal_len)
    }

    /// A [`journal::CompactionPolicy`] matched to this store's geometry:
    /// compact once the journal prefix passes three quarters of the region,
    /// regardless of the base size (the region is the binding constraint
    /// on-device).
    pub fn compaction_policy(&self) -> journal::CompactionPolicy {
        journal::CompactionPolicy {
            max_journal_fraction: 0.0,
            min_journal_bytes: (self.geometry.journal_bytes * 3 / 4).max(1),
        }
    }

    /// Bytes still free in the journal region.
    pub fn journal_remaining(&self) -> usize {
        self.geometry.journal_bytes - self.journal_len
    }

    /// The slot holding the committed base.
    pub fn active_slot(&self) -> SlotId {
        self.active
    }

    /// Sequence number of the committed base.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Byte length of the committed base.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Fingerprint (trailing checksum) of the committed base.
    pub fn base_fingerprint(&self) -> u64 {
        self.base_fingerprint
    }

    /// Bytes of journal entries bound to the committed base.
    pub fn journal_len(&self) -> usize {
        self.journal_len
    }

    /// Number of journal entries bound to the committed base.
    pub fn journal_entries(&self) -> usize {
        self.journal_entries
    }

    /// The store's layout.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Borrows the underlying device.
    pub fn flash(&self) -> &F {
        &self.flash
    }

    /// Consumes the store and returns the device (for crash tests: retrieve
    /// the torn image after a simulated power loss).
    pub fn into_flash(self) -> F {
        self.flash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForestConfig;
    use crate::incremental::{IncrementalTrainer, IncrementalTrainerConfig};
    use crate::persist::journal::JournalWriter;
    use crate::persist::trainer_to_bytes;

    fn rows_and_labels(n: usize) -> (Vec<f64>, Vec<bool>) {
        let mut rows = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let noise = ((i * 37 + 11) % 23) as f64 / 23.0;
            let positive = i % 2 == 0;
            rows.push(if positive { 2.0 + noise } else { -1.0 - noise });
            rows.push(noise);
            labels.push(positive);
        }
        (rows, labels)
    }

    fn trainer_config() -> IncrementalTrainerConfig {
        IncrementalTrainerConfig {
            forest: RandomForestConfig {
                n_trees: 3,
                max_depth: 3,
                ..RandomForestConfig::default()
            },
            block_size: 8,
        }
    }

    /// A base snapshot over `n` pool samples plus a writer armed on it.
    fn base_and_writer(n: usize) -> (Vec<u8>, JournalWriter, IncrementalTrainer) {
        let (rows, labels) = rows_and_labels(n);
        let mut trainer = IncrementalTrainer::new(trainer_config(), 11);
        trainer.retrain(&rows, 2, &labels).unwrap();
        let base = trainer_to_bytes(&trainer);
        let writer = JournalWriter::new(&base, trainer.num_samples()).unwrap();
        (base, writer, trainer)
    }

    /// One journal frame extending `writer`/`trainer` by `extra` samples.
    fn entry_frame(
        writer: &mut JournalWriter,
        trainer: &mut IncrementalTrainer,
        extra: usize,
        salt: usize,
    ) -> Vec<u8> {
        let (rows, labels) = rows_and_labels(extra + salt);
        let (rows, labels) = (&rows[salt * 2..], &labels[salt..]);
        trainer.retrain(rows, 2, labels).unwrap();
        writer.append(rows, 2, labels, &[]).unwrap();
        writer.take_unflushed()
    }

    fn small_geometry(base: &[u8]) -> FlashGeometry {
        FlashGeometry::for_base(base.len() + 256, 1024)
    }

    fn formatted(base: &[u8]) -> FlashStore<FaultyFlash> {
        let geometry = small_geometry(base);
        let flash = FaultyFlash::new(geometry.total_bytes());
        FlashStore::format(flash, geometry, base).unwrap()
    }

    fn remount(store: FlashStore<FaultyFlash>) -> (FlashStore<FaultyFlash>, MountReport) {
        let geometry = *store.geometry();
        FlashStore::mount(store.into_flash().reboot(), geometry).unwrap()
    }

    #[test]
    fn format_commits_into_slot_a_with_sequence_one() {
        let (base, _, _) = base_and_writer(8);
        let store = formatted(&base);
        assert_eq!(store.active_slot(), SlotId::A);
        assert_eq!(store.sequence(), 1);
        assert_eq!(store.base().unwrap(), base);
        assert_eq!(store.journal().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn mount_round_trips_base_and_journal() {
        let (base, mut writer, mut trainer) = base_and_writer(8);
        let mut store = formatted(&base);
        let frame = entry_frame(&mut writer, &mut trainer, 4, 0);
        store.append_journal(&frame).unwrap();
        let (store, report) = remount(store);
        assert_eq!(report.active_slot, SlotId::A);
        assert_eq!(report.journal_entries, 1);
        assert_eq!(report.journal_discarded, 0);
        assert!(!report.fell_back);
        assert_eq!(store.base().unwrap(), base);
        assert_eq!(store.journal().unwrap(), frame);
        // The journal replays against the base it binds to.
        let replayed = journal::replay(&base, &frame).unwrap();
        assert_eq!(replayed.report.entries_applied, 1);
    }

    #[test]
    fn commit_alternates_slots_and_bumps_sequence() {
        let (base, mut writer, mut trainer) = base_and_writer(8);
        let mut store = formatted(&base);
        store
            .append_journal(&entry_frame(&mut writer, &mut trainer, 4, 0))
            .unwrap();
        let base2 = trainer_to_bytes(&trainer);
        store.commit_base(&base2).unwrap();
        assert_eq!(store.active_slot(), SlotId::B);
        assert_eq!(store.sequence(), 2);
        assert_eq!(store.base().unwrap(), base2);
        assert_eq!(store.journal_len(), 0);
        let (store, report) = remount(store);
        assert_eq!(report.active_slot, SlotId::B);
        assert_eq!(report.sequence, 2);
        assert_eq!(report.journal_entries, 0);
        assert_eq!(store.base().unwrap(), base2);
    }

    #[test]
    fn oversized_base_and_overfull_journal_are_rejected() {
        let (base, _, _) = base_and_writer(8);
        let mut store = formatted(&base);
        let oversized = vec![0u8; store.geometry().base_capacity() + 1];
        assert!(matches!(
            store.commit_base(&oversized),
            Err(PersistError::BadMagic { .. }) | Err(PersistError::Corrupted { .. })
        ));
        let too_big = vec![0u8; store.journal_remaining() + 1];
        assert!(matches!(
            store.append_journal(&too_big),
            Err(PersistError::Corrupted { .. })
        ));
        // The store is still intact.
        assert_eq!(store.base().unwrap(), base);
    }

    #[test]
    fn both_slots_corrupt_is_a_typed_error_not_a_panic() {
        let (base, _, _) = base_and_writer(8);
        let store = formatted(&base);
        let geometry = *store.geometry();
        let mut flash = store.into_flash();
        // Flip one bit in slot A's base payload; slot B never committed.
        flash.flip_bit(SLOT_HEADER_LEN + 5, 0);
        let err = FlashStore::mount(flash, geometry).unwrap_err();
        assert!(matches!(err, PersistError::NoValidSlot { .. }));
        let message = err.to_string();
        assert!(message.contains("slot A"), "unhelpful error: {message}");
        assert!(message.contains("slot B"), "unhelpful error: {message}");
    }

    #[test]
    fn journal_pointing_at_the_inactive_slot_is_discarded() {
        let (base, mut writer, mut trainer) = base_and_writer(8);
        let mut store = formatted(&base);
        store
            .append_journal(&entry_frame(&mut writer, &mut trainer, 4, 0))
            .unwrap();
        let journal_before = store.journal_len();
        // Commit the compacted base but crash before the journal erase:
        // allow exactly the header erase + base program + header program.
        let base2 = trainer_to_bytes(&trainer);
        let geometry = *store.geometry();
        let budget = SLOT_HEADER_LEN + base2.len() + SLOT_HEADER_LEN;
        let flash = store.into_flash().reboot().power_loss_after(budget);
        let (mut store, _) = FlashStore::mount(flash, geometry).unwrap();
        let err = store.commit_base(&base2).unwrap_err();
        assert!(matches!(err, PersistError::Corrupted { .. }));
        // Reboot: the commit landed (header programmed), the stale journal
        // still physically present — and bound to the inactive slot A.
        let (store, report) = remount(store);
        assert_eq!(report.active_slot, SlotId::B);
        assert_eq!(report.sequence, 2);
        assert_eq!(report.journal_entries, 0, "stale entries must not replay");
        assert_eq!(report.journal_discarded, journal_before);
        assert_eq!(store.base().unwrap(), base2);
    }

    #[test]
    fn stale_slot_with_newer_journal_fingerprint_recovers_old_state() {
        // Same torn-compaction image as above, but the *new* slot then rots:
        // mount must fall back to the old slot and replay the journal that
        // binds to it.
        let (base, mut writer, mut trainer) = base_and_writer(8);
        let mut store = formatted(&base);
        let frame = entry_frame(&mut writer, &mut trainer, 4, 0);
        store.append_journal(&frame).unwrap();
        let base2 = trainer_to_bytes(&trainer);
        let geometry = *store.geometry();
        let budget = SLOT_HEADER_LEN + base2.len() + SLOT_HEADER_LEN;
        let flash = store.into_flash().reboot().power_loss_after(budget);
        let (mut store, _) = FlashStore::mount(flash, geometry).unwrap();
        store.commit_base(&base2).unwrap_err();
        let mut flash = store.into_flash().reboot();
        // Retention corruption in the freshly committed slot B base.
        flash.flip_bit(geometry.slot_offset(SlotId::B) + SLOT_HEADER_LEN + 3, 2);
        let (store, report) = FlashStore::mount(flash, geometry).unwrap();
        assert_eq!(report.active_slot, SlotId::A);
        assert_eq!(report.sequence, 1);
        assert!(report.fell_back);
        assert_eq!(report.journal_entries, 1);
        assert_eq!(store.base().unwrap(), base);
        assert_eq!(store.journal().unwrap(), frame);
        let replayed = journal::replay(&base, &frame).unwrap();
        // The fallback state is the pre-compaction state, node-identically.
        assert_eq!(trainer_to_bytes(&replayed.trainer), base2);
    }

    #[test]
    fn sequence_wraparound_prefers_the_wrapped_slot() {
        assert!(sequence_newer(0, u64::MAX));
        assert!(!sequence_newer(u64::MAX, 0));
        assert!(sequence_newer(5, 4));
        assert!(!sequence_newer(4, 5));
        assert!(!sequence_newer(7, 7));

        // Build an image by hand: slot A at u64::MAX, slot B wrapped to 0.
        let (base_a, _, mut trainer) = base_and_writer(8);
        let (rows, labels) = rows_and_labels(4);
        trainer.retrain(&rows, 2, &labels).unwrap();
        let base_b = trainer_to_bytes(&trainer);
        let geometry = FlashGeometry::for_base(base_a.len().max(base_b.len()) + 64, 256);
        let mut flash = MemFlash::new(geometry.total_bytes());
        for (slot, sequence, base) in [(SlotId::A, u64::MAX, &base_a), (SlotId::B, 0u64, &base_b)] {
            let offset = geometry.slot_offset(slot);
            flash.program(offset + SLOT_HEADER_LEN, base).unwrap();
            let header = SlotHeader {
                sequence,
                base_len: base.len() as u64,
                base_fingerprint: journal::base_fingerprint(base).unwrap(),
            };
            flash.program(offset, &header.encode()).unwrap();
        }
        let (store, report) = FlashStore::mount(flash, geometry).unwrap();
        assert_eq!(report.active_slot, SlotId::B, "0 is newer than u64::MAX");
        assert_eq!(store.base().unwrap(), base_b);
        // And the next commit continues the wrapped numbering.
        let mut store = store;
        store.commit_base(&base_a).unwrap();
        assert_eq!(store.sequence(), 1);
        assert_eq!(store.active_slot(), SlotId::A);
    }

    #[test]
    fn dirty_tail_is_erased_before_the_next_append() {
        // A mid-journal corruption leaves later frames physically intact; a
        // same-sized replacement append must not let the old successor frame
        // be parsed as the continuation of the new journal.
        let (base, mut writer, mut trainer) = base_and_writer(8);
        let mut store = formatted(&base);
        let frame1 = entry_frame(&mut writer, &mut trainer, 4, 0);
        let frame2 = entry_frame(&mut writer, &mut trainer, 4, 4);
        store.append_journal(&frame1).unwrap();
        store.append_journal(&frame2).unwrap();
        let geometry = *store.geometry();
        let mut flash = store.into_flash();
        // Corrupt frame 1 (first journal byte's neighbour inside its body).
        flash.flip_bit(geometry.journal_offset() + 24, 1);
        let (mut store, report) = FlashStore::mount(flash.reboot(), geometry).unwrap();
        assert_eq!(report.journal_entries, 0);
        assert!(report.journal_discarded > 0);
        // Append a replacement frame of the exact same length as frame 1.
        let (base_check, mut writer2, mut trainer2) = base_and_writer(8);
        assert_eq!(base_check, base);
        let replacement = entry_frame(&mut writer2, &mut trainer2, 4, 0);
        assert_eq!(replacement.len(), frame1.len());
        store.append_journal(&replacement).unwrap();
        let (store, report) = remount(store);
        assert_eq!(
            report.journal_entries, 1,
            "the stale frame2 must not survive behind the new append"
        );
        assert_eq!(store.journal().unwrap(), replacement);
    }

    #[test]
    fn one_append_of_two_frames_counts_both() {
        // A save after two learned seizures appends both entries at once;
        // the live count must match what a remount finds on the Flash.
        let (base, mut writer, mut trainer) = base_and_writer(8);
        let mut store = formatted(&base);
        store
            .append_journal(&entry_frame(&mut writer, &mut trainer, 4, 0))
            .unwrap();
        let mut two = entry_frame(&mut writer, &mut trainer, 4, 4);
        two.extend(entry_frame(&mut writer, &mut trainer, 4, 8));
        store.append_journal(&two).unwrap();
        let live = (store.journal_entries(), store.journal_len());
        let (_, report) = remount(store);
        assert_eq!(live, (report.journal_entries, report.journal_len));
        assert_eq!(live.0, 3);
    }

    #[test]
    fn an_append_that_is_not_whole_frames_writes_nothing() {
        let (base, mut writer, mut trainer) = base_and_writer(8);
        let mut store = formatted(&base);
        let frame = entry_frame(&mut writer, &mut trainer, 4, 0);
        assert!(store.append_journal(&frame[..frame.len() - 1]).is_err());
        assert!(store.append_journal(&[0u8; 16]).is_err());
        assert_eq!((store.journal_entries(), store.journal_len()), (0, 0));
        store.append_journal(&frame).unwrap();
        let (store, report) = remount(store);
        assert_eq!(report.journal_entries, 1);
        assert_eq!(store.journal().unwrap(), frame);
    }

    #[test]
    fn torn_append_is_dropped_on_mount() {
        let (base, mut writer, mut trainer) = base_and_writer(8);
        let mut store = formatted(&base);
        let frame1 = entry_frame(&mut writer, &mut trainer, 4, 0);
        store.append_journal(&frame1).unwrap();
        let frame2 = entry_frame(&mut writer, &mut trainer, 4, 4);
        for torn in 1..frame2.len() {
            let geometry = *store.geometry();
            let flash = store.into_flash().reboot().power_loss_after(torn);
            let (mut interrupted, _) = FlashStore::mount(flash, geometry).unwrap();
            assert!(interrupted.append_journal(&frame2).is_err());
            let (mounted, report) = remount(interrupted);
            assert_eq!(report.journal_entries, 1, "torn at byte {torn}");
            assert_eq!(mounted.journal().unwrap(), frame1);
            store = mounted;
        }
    }

    #[test]
    fn faulty_flash_scrambles_sectors_deterministically() {
        let data: Vec<u8> = (0..=255).collect();
        let mut plain = FaultyFlash::new(1024).with_sector_bytes(32);
        plain.program(100, &data).unwrap();
        let mut torn = FaultyFlash::new(1024)
            .with_sector_bytes(32)
            .scrambled(7)
            .power_loss_after(100);
        let err = torn.program(100, &data).unwrap_err();
        assert!(matches!(err, PersistError::Corrupted { .. }));
        assert!(torn.is_dead());
        assert!(torn.read(0, 1).is_err(), "dead device must refuse reads");
        let rebooted = torn.reboot();
        // Exactly 100 bytes landed, but not necessarily the first 100.
        let written: usize = rebooted.image()[100..356]
            .iter()
            .zip(&data)
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            written >= 100 - 32,
            "partial write lost too much: {written}"
        );
        assert_ne!(
            &rebooted.image()[100..356],
            &plain.image()[100..356],
            "a torn scrambled write must differ from the complete one"
        );
        // Same seed, same tear.
        let mut again = FaultyFlash::new(1024)
            .with_sector_bytes(32)
            .scrambled(7)
            .power_loss_after(100);
        again.program(100, &data).unwrap_err();
        assert_eq!(again.image(), torn_image(&rebooted));

        fn torn_image(flash: &FaultyFlash) -> &[u8] {
            flash.image()
        }
    }

    #[test]
    fn out_of_range_accesses_are_typed_errors() {
        let mut flash = MemFlash::new(64);
        assert!(matches!(
            flash.read(60, 8),
            Err(PersistError::Truncated { .. })
        ));
        assert!(matches!(
            flash.program(64, &[1]),
            Err(PersistError::Truncated { .. })
        ));
        assert!(matches!(
            flash.erase(0, 65),
            Err(PersistError::Truncated { .. })
        ));
        let geometry = FlashGeometry::for_base(1024, 1024);
        let err = FlashStore::mount(MemFlash::new(64), geometry).unwrap_err();
        assert!(matches!(err, PersistError::Truncated { .. }));
    }
}
