//! The persistent NPN-keyed optimization cache shared by `migopt` runs
//! and the `migd` daemon.
//!
//! Two in-memory tiers, both exportable to one on-disk file:
//!
//! * [`SigTable`] — a lock-free 2^16-slot table keyed by the 4-padded
//!   cut-function signature ([`cuts::Cut::signature4`]), each slot a
//!   packed [`SigRecord`]: the NPN representative, the inverse
//!   input/output mapping and the minimum-network score
//!   (size/depth/per-input depths). A hit replaces the whole
//!   canonize-then-database-lookup sequence of `Replacement::prepare`.
//! * [`ResultStore`] — whole-job results keyed by a hash of (input
//!   circuit structure, resolved pipeline, thread count), so a repeated
//!   job skips re-canonization and candidate scoring entirely.
//!
//! The file format follows the `npndb` persistence idiom — plain
//! read/write, no mmap, validation on load — but is binary for
//! compactness: a versioned header, explicit section counts and an
//! FNV-1a checksum over the payload. *Any* structural failure
//! (truncation, bit rot, version bump) makes [`load_or_cold`] start
//! cold and bump `cache.rejected`; it never panics and never installs a
//! partially-read file. Per-entry semantic validation happens where the
//! knowledge lives: `truth::Npn4Canonizer::import_memo` re-applies each
//! transform, the fhash engine re-derives each signature record against
//! its database, and result-tier hits are re-verified against the job's
//! input by random simulation before being served.
//!
//! Both tiers and the NPN memo count what they learn in a generation
//! (`generation()`), and [`save_path`] returns a [`FileStamp`] of the
//! bytes it wrote: together they let a writer skip a flush that would
//! rewrite the file it already holds.

use obs::Metric;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Bumped whenever the serialized layout or the meaning of a key
/// changes; files with any other version are rejected wholesale
/// (graceful cold start, no migration). Version 2 keys results by the
/// input graph's structure instead of its BLIF text.
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"MIGFCACH";
const HEADER_LEN: usize = 8 + 4 + 4 + 4 + 4 + 8;
/// Sanity bound on the result-section count (the signature sections are
/// naturally bounded by the 2^16 key space).
const MAX_RESULTS: u32 = 1 << 20;

/// FNV-1a over `bytes`, continuing from `h`. Zero-dependency and stable
/// across platforms — the payload checksum and the result-tier keys.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis — the starting `h` for [`fnv1a`].
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// A second, independent starting point for the result-tier check hash.
pub const FNV_CHECK_BASIS: u64 = FNV_BASIS ^ 0x9e37_79b9_7f4a_7c15;

// ---------------------------------------------------------------------
// Signature tier
// ---------------------------------------------------------------------

/// One decoded signature record: everything `Replacement::prepare`
/// produces for a 4-padded cut function, in engine-agnostic form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigRecord {
    /// NPN representative of the signature.
    pub rep: u16,
    /// For template input `i`: the cut-leaf position feeding it and its
    /// polarity (the *inverse* NPN transform, precomputed).
    pub input_map: [(u8, bool); 4],
    /// Whether the template output is complemented.
    pub out_neg: bool,
    /// Gates in the minimum database network.
    pub db_size: u8,
    /// Depth of the minimum database network.
    pub db_depth: u8,
    /// Longest gate-path from the template output to each template
    /// input (`None` = input unused).
    pub input_depths: [Option<u8>; 4],
    /// The database had no entry for `rep` (lookup was a proven miss).
    pub no_entry: bool,
}

const DEPTH_NONE: u64 = 31;

impl SigRecord {
    /// Packs the record into one word; `None` when a field exceeds its
    /// bit budget (such records are simply not cached).
    pub fn pack(&self) -> Option<u64> {
        if self.db_size > 15 || self.db_depth > 15 {
            return None;
        }
        let mut w: u64 = 1;
        if self.out_neg {
            w |= 1 << 1;
        }
        if self.no_entry {
            w |= 1 << 2;
        }
        for (i, &(pos, neg)) in self.input_map.iter().enumerate() {
            if pos > 3 {
                return None;
            }
            w |= (u64::from(pos) | (u64::from(neg) << 2)) << (4 + 3 * i);
        }
        w |= u64::from(self.rep) << 16;
        w |= u64::from(self.db_size) << 32;
        w |= u64::from(self.db_depth) << 36;
        for (i, d) in self.input_depths.iter().enumerate() {
            let v = match d {
                None => DEPTH_NONE,
                Some(d) if u64::from(*d) < DEPTH_NONE => u64::from(*d),
                Some(_) => return None,
            };
            w |= v << (40 + 5 * i);
        }
        Some(w)
    }

    /// Decodes a packed word; `None` when the valid bit is unset or the
    /// reserved bits are dirty (structural corruption).
    pub fn unpack(w: u64) -> Option<SigRecord> {
        if w & 1 != 1 || w & 0b1000 != 0 || w >> 60 != 0 {
            return None;
        }
        let mut input_map = [(0u8, false); 4];
        for (i, im) in input_map.iter_mut().enumerate() {
            let bits = (w >> (4 + 3 * i)) & 0b111;
            *im = ((bits & 0b11) as u8, bits & 0b100 != 0);
        }
        let mut input_depths = [None; 4];
        for (i, d) in input_depths.iter_mut().enumerate() {
            let v = (w >> (40 + 5 * i)) & 0b11111;
            *d = (v != DEPTH_NONE).then_some(v as u8);
        }
        Some(SigRecord {
            rep: (w >> 16) as u16,
            input_map,
            out_neg: w & 0b10 != 0,
            db_size: ((w >> 32) & 0xf) as u8,
            db_depth: ((w >> 36) & 0xf) as u8,
            input_depths,
            no_entry: w & 0b100 != 0,
        })
    }
}

/// Lock-free signature table: one atomic slot per 16-bit signature
/// (512 KiB). Like the NPN memo it is shared-reference safe — records
/// are pure functions of the signature and the (fixed) database, so
/// racing fills store identical words.
pub struct SigTable {
    slots: Box<[AtomicU64]>,
    /// Slot writes that changed a slot (see [`SigTable::generation`]).
    /// Bumped with `Release` after the slot store and read with
    /// `Acquire`, so a reader that sees a count also sees the slots it
    /// counts.
    fills: AtomicU64,
}

impl std::fmt::Debug for SigTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigTable")
            .field("len", &self.len())
            .finish()
    }
}

impl Default for SigTable {
    fn default() -> Self {
        Self::new()
    }
}

impl SigTable {
    /// An empty table.
    pub fn new() -> Self {
        SigTable {
            slots: (0..1usize << 16).map(|_| AtomicU64::new(0)).collect(),
            fills: AtomicU64::new(0),
        }
    }

    /// A counter that grows whenever a slot changes. Read it before
    /// [`SigTable::export`]: an equal later reading means the export
    /// still holds every slot.
    pub fn generation(&self) -> u64 {
        self.fills.load(Ordering::Acquire)
    }

    /// Looks up the record for a signature.
    #[inline]
    pub fn get(&self, f: u16) -> Option<SigRecord> {
        SigRecord::unpack(self.slots[f as usize].load(Ordering::Relaxed))
    }

    /// Installs a record (no-op when it does not pack).
    #[inline]
    pub fn put(&self, f: u16, rec: &SigRecord) {
        if let Some(w) = rec.pack() {
            if self.slots[f as usize].swap(w, Ordering::Relaxed) != w {
                self.fills.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// Installs an already-packed word if it decodes cleanly; returns
    /// whether it was accepted. Existing slots are kept (first write
    /// wins — resident entries were computed against the live database).
    pub fn install_packed(&self, f: u16, w: u64) -> bool {
        if SigRecord::unpack(w).is_none() {
            return false;
        }
        let slot = &self.slots[f as usize];
        if slot.load(Ordering::Relaxed) & 1 == 1 {
            return true;
        }
        slot.store(w, Ordering::Relaxed);
        self.fills.fetch_add(1, Ordering::Release);
        true
    }

    /// Number of filled slots.
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) & 1 == 1)
            .count()
    }

    /// Whether no slot is filled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spills every filled slot as `(signature, packed)` pairs.
    pub fn export(&self) -> Vec<(u16, u64)> {
        let mut out = Vec::new();
        for (f, slot) in self.slots.iter().enumerate() {
            let w = slot.load(Ordering::Relaxed);
            if w & 1 == 1 {
                out.push((f as u16, w));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Result tier
// ---------------------------------------------------------------------

/// One cached whole-job result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResRecord {
    /// FNV-1a over the job key material (input structure, pipeline,
    /// threads).
    pub key: u64,
    /// Independent second hash over the same material (collision check).
    pub check: u64,
    /// The resolved pipeline rendering the result was produced by,
    /// including the default thread count — compared verbatim on reuse.
    pub pipeline: String,
    /// Result gate count.
    pub size: u32,
    /// Result depth.
    pub depth: u32,
    /// The serialized result circuit (BLIF text).
    pub circuit: String,
}

/// Whole-job results under a read-mostly lock: daemon workers read
/// concurrently, a completed job takes the write lock briefly to
/// insert.
#[derive(Default)]
pub struct ResultStore {
    map: RwLock<HashMap<u64, ResRecord>>,
    /// Inserted or replaced records (see [`ResultStore::generation`]),
    /// with the same `Release`/`Acquire` pairing as `SigTable::fills`.
    changes: AtomicU64,
}

impl ResultStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a job result; both hashes and the pipeline rendering
    /// must match (the caller still semantically verifies the returned
    /// circuit against its input before serving it).
    pub fn get(&self, key: u64, check: u64, pipeline: &str) -> Option<ResRecord> {
        let map = self.map.read().expect("result store poisoned");
        map.get(&key)
            .filter(|r| r.check == check && r.pipeline == pipeline)
            .cloned()
    }

    /// Inserts (or replaces) a job result.
    pub fn put(&self, rec: ResRecord) {
        let mut map = self.map.write().expect("result store poisoned");
        map.insert(rec.key, rec);
        self.changes.fetch_add(1, Ordering::Release);
    }

    /// A counter that grows whenever a record is inserted or replaced
    /// (a count of records would miss a replacement). Read it before
    /// [`ResultStore::export`]: an equal later reading means the export
    /// still holds every record.
    pub fn generation(&self) -> u64 {
        self.changes.load(Ordering::Acquire)
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.map.read().expect("result store poisoned").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones out every record (export order is key-sorted so the file
    /// bytes are deterministic).
    pub fn export(&self) -> Vec<ResRecord> {
        let map = self.map.read().expect("result store poisoned");
        let mut out: Vec<ResRecord> = map.values().cloned().collect();
        out.sort_by_key(|r| r.key);
        out
    }

    /// Installs records that decode cleanly; existing keys win.
    pub fn install(&self, records: Vec<ResRecord>) -> usize {
        let mut map = self.map.write().expect("result store poisoned");
        let mut n = 0;
        for r in records {
            map.entry(r.key).or_insert_with(|| {
                n += 1;
                r
            });
        }
        self.changes.fetch_add(n as u64, Ordering::Release);
        n
    }
}

// ---------------------------------------------------------------------
// On-disk file
// ---------------------------------------------------------------------

/// The deserialized contents of a cache file (or the data to serialize
/// into one).
#[derive(Default, Debug, Clone)]
pub struct CacheData {
    /// NPN memo entries (`truth::Npn4Canonizer` packed words).
    pub npn: Vec<(u16, u32)>,
    /// Signature-table entries (packed [`SigRecord`] words).
    pub sig: Vec<(u16, u64)>,
    /// Whole-job results.
    pub results: Vec<ResRecord>,
}

impl CacheData {
    /// Total entry count across all sections.
    pub fn len(&self) -> usize {
        self.npn.len() + self.sig.len() + self.results.len()
    }

    /// Whether every section is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why a cache file was rejected.
#[derive(Debug)]
pub enum LoadError {
    /// Filesystem error (missing file is a normal first-run cold start).
    Io(std::io::Error),
    /// The file is shorter than its header or counts claim.
    Truncated,
    /// The magic bytes are not ours.
    BadMagic,
    /// Known magic, unknown version.
    Version(u32),
    /// The payload checksum does not match the header.
    Checksum,
    /// A section is internally inconsistent.
    Malformed(&'static str),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Truncated => write!(f, "truncated file"),
            LoadError::BadMagic => write!(f, "not a cache file (bad magic)"),
            LoadError::Version(v) => {
                write!(f, "unsupported version {v} (expected {FORMAT_VERSION})")
            }
            LoadError::Checksum => write!(f, "payload checksum mismatch"),
            LoadError::Malformed(what) => write!(f, "malformed section: {what}"),
        }
    }
}

impl std::error::Error for LoadError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        let end = self.pos.checked_add(n).ok_or(LoadError::Truncated)?;
        if end > self.buf.len() {
            return Err(LoadError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, LoadError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, LoadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, LoadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self, what: &'static str) -> Result<String, LoadError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LoadError::Malformed(what))
    }
}

/// Serializes cache data to the on-disk byte format.
pub fn to_bytes(data: &CacheData) -> Vec<u8> {
    let mut payload = Vec::new();
    for &(f, w) in &data.npn {
        payload.extend_from_slice(&f.to_le_bytes());
        payload.extend_from_slice(&w.to_le_bytes());
    }
    for &(f, w) in &data.sig {
        payload.extend_from_slice(&f.to_le_bytes());
        put_u64(&mut payload, w);
    }
    for r in &data.results {
        put_u64(&mut payload, r.key);
        put_u64(&mut payload, r.check);
        put_u32(&mut payload, r.size);
        put_u32(&mut payload, r.depth);
        put_str(&mut payload, &r.pipeline);
        put_str(&mut payload, &r.circuit);
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, data.npn.len() as u32);
    put_u32(&mut out, data.sig.len() as u32);
    put_u32(&mut out, data.results.len() as u32);
    put_u64(&mut out, fnv1a(FNV_BASIS, &payload));
    out.extend_from_slice(&payload);
    out
}

/// Deserializes and validates the on-disk byte format.
///
/// # Errors
///
/// Every structural defect maps to a [`LoadError`]; nothing panics and
/// nothing is partially returned.
pub fn from_bytes(bytes: &[u8]) -> Result<CacheData, LoadError> {
    if bytes.len() < HEADER_LEN {
        return Err(LoadError::Truncated);
    }
    if &bytes[..8] != MAGIC {
        return Err(LoadError::BadMagic);
    }
    let mut r = Reader { buf: bytes, pos: 8 };
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(LoadError::Version(version));
    }
    let npn_count = r.u32()?;
    let sig_count = r.u32()?;
    let res_count = r.u32()?;
    let checksum = r.u64()?;
    if npn_count > 1 << 16 || sig_count > 1 << 16 {
        return Err(LoadError::Malformed("section count exceeds key space"));
    }
    if res_count > MAX_RESULTS {
        return Err(LoadError::Malformed("result count out of bounds"));
    }
    if fnv1a(FNV_BASIS, &bytes[HEADER_LEN..]) != checksum {
        return Err(LoadError::Checksum);
    }
    let mut data = CacheData::default();
    for _ in 0..npn_count {
        let f = r.u16()?;
        let w = r.u32()?;
        data.npn.push((f, w));
    }
    for _ in 0..sig_count {
        let f = r.u16()?;
        let w = r.u64()?;
        data.sig.push((f, w));
    }
    for _ in 0..res_count {
        data.results.push(ResRecord {
            key: r.u64()?,
            check: r.u64()?,
            size: r.u32()?,
            depth: r.u32()?,
            pipeline: r.str("result pipeline")?,
            circuit: r.str("result circuit")?,
        });
    }
    if r.pos != bytes.len() {
        return Err(LoadError::Malformed("trailing bytes after last section"));
    }
    Ok(data)
}

/// Reads and validates a cache file.
///
/// # Errors
///
/// [`LoadError::Io`] on filesystem failures (including a missing file),
/// otherwise the structural defect found.
pub fn load_path(path: &Path) -> Result<CacheData, LoadError> {
    let bytes = std::fs::read(path).map_err(LoadError::Io)?;
    from_bytes(&bytes)
}

/// [`load_path`] with the graceful-degradation policy: a missing file
/// is a silent first-run cold start; any *defective* file bumps
/// `cache.rejected` (and is left in place for post-mortem) and starts
/// cold. Never panics, never returns partial data.
pub fn load_or_cold(path: &Path) -> CacheData {
    match load_path(path) {
        Ok(data) => data,
        Err(LoadError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => CacheData::default(),
        Err(_) => {
            obs::metrics::add(Metric::CacheRejected, 1);
            CacheData::default()
        }
    }
}

/// Identifies one written version of a cache file: its length,
/// modification time and header. The header holds the section counts
/// and the payload checksum, so two versions with equal stamps hold the
/// same entries, short of a same-length rewrite with a colliding
/// checksum in the same modification-time tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStamp {
    len: u64,
    modified: std::time::SystemTime,
    header: [u8; HEADER_LEN],
}

impl FileStamp {
    /// The stamp of the file at `path` as it is now; `None` when the
    /// file cannot be read or is shorter than a header.
    pub fn read(path: &Path) -> Option<FileStamp> {
        let mut file = std::fs::File::open(path).ok()?;
        let meta = file.metadata().ok()?;
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header).ok()?;
        Some(FileStamp {
            len: meta.len(),
            modified: meta.modified().ok()?,
            header,
        })
    }
}

/// Atomically writes a cache file (sibling temp file + rename), bumps
/// `cache.flushed` by the entry count and returns the stamp of the
/// bytes written.
///
/// # Errors
///
/// Propagates filesystem errors; the destination is never left
/// half-written.
pub fn save_path(path: &Path, data: &CacheData) -> std::io::Result<FileStamp> {
    let tmp = path.with_extension("tmp");
    let bytes = to_bytes(data);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(&bytes)?;
    // Renaming keeps the modification time, so this is the stamp the
    // destination will carry.
    let modified = file.metadata()?.modified()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    obs::metrics::add(Metric::CacheFlushed, data.len() as u64);
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    Ok(FileStamp {
        len: bytes.len() as u64,
        modified,
        header,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> SigRecord {
        SigRecord {
            rep: 0x17ac,
            input_map: [(2, true), (0, false), (3, true), (1, false)],
            out_neg: true,
            db_size: 5,
            db_depth: 3,
            input_depths: [Some(2), None, Some(0), Some(3)],
            no_entry: false,
        }
    }

    fn sample_data() -> CacheData {
        CacheData {
            npn: vec![(0x0001, 0x1234_5601), (0xbeef, 0x0042_0013)],
            sig: vec![(0x17ac, sample_record().pack().unwrap())],
            results: vec![ResRecord {
                key: 0xdead_beef_cafe_f00d,
                check: 0x0123_4567_89ab_cdef,
                pipeline: "fhash!:T@1 #j1".into(),
                size: 42,
                depth: 7,
                circuit: ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n".into(),
            }],
        }
    }

    #[test]
    fn sig_record_roundtrips() {
        let r = sample_record();
        assert_eq!(SigRecord::unpack(r.pack().unwrap()), Some(r));
        let none = SigRecord {
            input_depths: [None; 4],
            no_entry: true,
            ..r
        };
        assert_eq!(SigRecord::unpack(none.pack().unwrap()), Some(none));
        // Out-of-budget fields refuse to pack instead of corrupting.
        assert_eq!(SigRecord { db_size: 16, ..r }.pack(), None);
        assert_eq!(
            SigRecord {
                input_depths: [Some(31), None, None, None],
                ..r
            }
            .pack(),
            None
        );
        // Invalid words decode to None.
        assert_eq!(SigRecord::unpack(0), None);
        assert_eq!(SigRecord::unpack(r.pack().unwrap() | 1 << 63), None);
    }

    #[test]
    fn sig_table_first_write_wins() {
        let t = SigTable::new();
        assert!(t.is_empty());
        let r = sample_record();
        t.put(0x17ac, &r);
        assert_eq!(t.get(0x17ac), Some(r));
        assert_eq!(t.len(), 1);
        // install_packed keeps the resident record.
        let other = SigRecord { rep: 1, ..r };
        assert!(t.install_packed(0x17ac, other.pack().unwrap()));
        assert_eq!(t.get(0x17ac), Some(r));
        // ...but fills empty slots and rejects garbage.
        assert!(t.install_packed(7, other.pack().unwrap()));
        assert_eq!(t.get(7), Some(other));
        assert!(!t.install_packed(8, 0x2));
        assert_eq!(t.export().len(), 2);
    }

    #[test]
    fn result_store_checks_both_hashes_and_pipeline() {
        let s = ResultStore::new();
        let r = sample_data().results.remove(0);
        s.put(r.clone());
        assert_eq!(s.get(r.key, r.check, &r.pipeline), Some(r.clone()));
        assert_eq!(s.get(r.key, r.check ^ 1, &r.pipeline), None);
        assert_eq!(s.get(r.key, r.check, "other"), None);
        assert_eq!(s.get(r.key ^ 1, r.check, &r.pipeline), None);
    }

    #[test]
    fn file_roundtrips() {
        let data = sample_data();
        let back = from_bytes(&to_bytes(&data)).unwrap();
        assert_eq!(back.npn, data.npn);
        assert_eq!(back.sig, data.sig);
        assert_eq!(back.results, data.results);
        // Empty data round-trips too.
        assert!(from_bytes(&to_bytes(&CacheData::default()))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn truncated_corrupt_and_version_bumped_files_cold_start() {
        let bytes = to_bytes(&sample_data());

        // Truncation at every prefix length: never a panic, never Ok.
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }

        // Single corrupted payload byte -> checksum mismatch.
        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() ^= 0x40;
        assert!(matches!(from_bytes(&corrupt), Err(LoadError::Checksum)));

        // Version bump -> rejected with the found version.
        let mut bumped = bytes.clone();
        bumped[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            from_bytes(&bumped),
            Err(LoadError::Version(v)) if v == FORMAT_VERSION + 1
        ));

        // Foreign magic.
        let mut foreign = bytes.clone();
        foreign[0] = b'X';
        assert!(matches!(from_bytes(&foreign), Err(LoadError::BadMagic)));

        // A count that claims more than the payload holds.
        let mut lying = bytes.clone();
        lying[20..24].copy_from_slice(&(MAX_RESULTS + 1).to_le_bytes());
        assert!(from_bytes(&lying).is_err());
    }

    #[test]
    fn load_or_cold_counts_rejections_but_not_first_runs() {
        let dir = std::env::temp_dir().join(format!("fcache_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("never_written.migcache");
        let ((), d) = obs::metrics::scoped(|| {
            assert!(load_or_cold(&missing).is_empty());
        });
        assert_eq!(d.get(Metric::CacheRejected), 0);

        let broken = dir.join("broken.migcache");
        let mut bytes = to_bytes(&sample_data());
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&broken, &bytes).unwrap();
        let ((), d) = obs::metrics::scoped(|| {
            assert!(load_or_cold(&broken).is_empty());
        });
        assert_eq!(d.get(Metric::CacheRejected), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_path_roundtrip_and_flush_metric() {
        let dir = std::env::temp_dir().join(format!("fcache_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.migcache");
        let data = sample_data();
        let ((), d) = obs::metrics::scoped(|| {
            save_path(&path, &data).unwrap();
        });
        assert_eq!(d.get(Metric::CacheFlushed), data.len() as u64);
        let back = load_path(&path).unwrap();
        assert_eq!(back.results, data.results);
        // The temp file was renamed away.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generations_grow_with_every_change() {
        let t = SigTable::new();
        let r = sample_record();
        t.put(0x17ac, &r);
        let g = t.generation();
        assert!(g > 0);
        // Rewriting a slot with the word it holds learns nothing.
        t.put(0x17ac, &r);
        assert!(t.install_packed(0x17ac, r.pack().unwrap()));
        assert_eq!(t.generation(), g);
        t.put(0x17ac, &SigRecord { rep: 1, ..r });
        assert!(t.install_packed(9, r.pack().unwrap()));
        assert_eq!(t.generation(), g + 2);

        let s = ResultStore::new();
        let rec = sample_data().results.remove(0);
        s.put(rec.clone());
        assert_eq!(s.generation(), 1);
        // A replacement keeps the record count but is still a change.
        s.put(ResRecord {
            size: 41,
            ..rec.clone()
        });
        assert_eq!((s.len(), s.generation()), (1, 2));
        // Installing a record under a key the store holds keeps the
        // resident one and learns nothing.
        assert_eq!(s.install(vec![rec.clone()]), 0);
        assert_eq!(s.get(rec.key, rec.check, &rec.pipeline).unwrap().size, 41);
        assert_eq!(s.generation(), 2);
        assert_eq!(s.install(vec![ResRecord { key: 1, ..rec }]), 1);
        assert_eq!(s.generation(), 3);
    }

    #[test]
    fn save_path_stamp_matches_the_file_until_it_is_rewritten() {
        let dir = std::env::temp_dir().join(format!("fcache_stamp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.migcache");
        assert_eq!(FileStamp::read(&path), None);
        let stamp = save_path(&path, &sample_data()).unwrap();
        assert_eq!(FileStamp::read(&path), Some(stamp.clone()));
        // Different bytes of the same length: the header differs.
        let mut other = sample_data();
        other.npn[0].1 ^= 0x100;
        let rewritten = save_path(&path, &other).unwrap();
        assert_ne!(rewritten, stamp);
        assert_eq!(FileStamp::read(&path), Some(rewritten));
        std::fs::remove_dir_all(&dir).ok();
    }
}
