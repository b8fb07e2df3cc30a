//! Crash-safe persistence for the plan cache.
//!
//! The store is an **append-only log with periodic compacted snapshots**,
//! living in the daemon's `--cache-dir`:
//!
//! * `cache.log` — one length-prefixed record per insert or cert attach,
//!   appended as they happen. A later record for a key supersedes any
//!   earlier one.
//! * `snapshot` — the whole cache re-encoded in one pass. Written to
//!   `snapshot.tmp` first and atomically renamed into place, so a kill at
//!   any instant leaves either the old snapshot or the new one, never a
//!   mix. After a successful snapshot the log is truncated.
//!
//! Both files open with an 8-byte version-tagged header; every record
//! carries a trailing splitmix64 checksum over its payload. The decoder
//! follows the frame protocol's discipline exactly ([`crate::proto`]):
//! length prefixes are validated against a hard cap **before** any
//! allocation, embedded counts and string lengths are checked against the
//! bytes actually present, and every failure is a typed `StoreError` —
//! never a panic.
//!
//! **Crash consistency.** The only mutation the log ever sees is an
//! append, so the only damage a torn write (or a bit flip) can do is a
//! bad suffix. On load the store scans record by record: a record whose
//! *framing* is intact but whose checksum or structure is wrong is
//! dropped individually (a bit flip costs one entry), while a record
//! whose framing itself is broken — truncated or impossible length —
//! ends the scan and discards the tail (a torn write costs the suffix).
//! Either way load always terminates with some valid prefix of history.
//!
//! **Trust.** A decoded record is still only a *hint*. `CacheStore::load`
//! hands each surviving entry to `PlanCache::restore`, which refuses any
//! entry whose stored integrity checksum does not refold from its
//! content; and a restored entry is never served without passing the
//! per-hit gauntlet (rebuild against the requesting graph, `verify_plan`,
//! cert revalidation via `arm_with_cert`). A damaged store can therefore
//! cost replans, never a wrong answer.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use mdf_core::FullParallelMethod;
use mdf_graph::IVec2;
use mdf_kernel::{BytecodeCert, VmMode};
use mdf_retime::Wavefront;

use crate::cache::{CachedPlan, CachedShape, PlanCache};
use crate::proto::{Reader, Writer};

/// fsync discipline for the store, the `--cache-sync` knob.
///
/// The trade-off: `always` survives power loss at the cost of one fsync
/// per plan insert (planning is milliseconds, an fsync can be too);
/// `snapshot` (the default) fsyncs only the compacted snapshot before
/// its atomic rename, so a *process* kill loses nothing (the OS page
/// cache holds the log) and a *machine* crash loses at most the entries
/// since the last snapshot; `never` leaves durability entirely to the
/// OS, for tests and throwaway fleets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheSync {
    /// No fsync anywhere.
    Never,
    /// fsync the snapshot file before renaming it into place (default).
    #[default]
    Snapshot,
    /// fsync the log after every append, and the snapshot.
    Always,
}

impl CacheSync {
    /// Stable lower-case CLI name.
    pub fn name(self) -> &'static str {
        match self {
            CacheSync::Never => "never",
            CacheSync::Snapshot => "snapshot",
            CacheSync::Always => "always",
        }
    }

    /// Parses a `--cache-sync` value.
    pub fn parse(s: &str) -> Option<CacheSync> {
        match s {
            "never" => Some(CacheSync::Never),
            "snapshot" => Some(CacheSync::Snapshot),
            "always" => Some(CacheSync::Always),
            _ => None,
        }
    }
}

/// Hard ceiling on one record's payload, mirroring the wire protocol's
/// [`crate::proto::MAX_FRAME`]: validated before any allocation.
const MAX_RECORD: u32 = 1 << 20;

/// Version-tagged headers. The trailing byte is the format version;
/// bumping it orphans old stores (they reload as empty) rather than
/// misparsing them.
const LOG_MAGIC: &[u8; 8] = b"mdfclog\x01";
const SNAP_MAGIC: &[u8; 8] = b"mdfcsnp\x01";

/// Appends per key before the log is folded into a fresh snapshot.
const COMPACT_EVERY: usize = 64;

/// Shape/cert discriminants inside a record body.
const SHAPE_FULL_PARALLEL: u8 = 1;
const SHAPE_HYPERPLANE: u8 = 2;
const METHOD_ACYCLIC: u8 = 1;
const METHOD_CYCLIC: u8 = 2;
const MODE_SERIAL: u8 = 1;
const MODE_ROWS: u8 = 2;
/// The retired untiled wavefront mode. Never written; a stored record
/// carrying it is dropped on its own. The surviving tags keep their
/// values, so stores written before the retirement still load.
const MODE_RETIRED_WAVEFRONT: u8 = 4;
const MODE_WAVEFRONT_TILED: u8 = 5;

/// A typed store decode failure. Load maps every one of these to "drop
/// the record" or "discard the tail" — never to a crashed daemon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum StoreError {
    /// The file ended inside a length prefix or a record body.
    Truncated,
    /// The record's trailing checksum did not refold from its bytes.
    BadChecksum,
    /// A structurally invalid record body.
    BadPayload(&'static str),
}

/// What a load pass recovered, for the warm-start counters and logs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct LoadReport {
    /// Entries restored into the cache.
    pub(crate) loaded: u64,
    /// Records dropped: bad checksum, bad structure, failed
    /// `PlanCache::restore`, or a discarded torn tail.
    pub(crate) dropped: u64,
}

/// splitmix64 fold over raw bytes, seeded distinctly from the cache's
/// content checksum so a record checksum can never be confused for one.
fn record_check(bytes: &[u8]) -> u64 {
    let mut state = 0x6d64_6673_746f_7265u64; // "mdfstore"
    for b in bytes {
        state = state
            .wrapping_add(u64::from(*b))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        state = z ^ (z >> 31);
    }
    state
}

/// Encodes one `(key, plan)` record as a complete frame: `u32` length
/// prefix, body, and trailing checksum over the body.
pub(crate) fn encode_record(key: u64, plan: &CachedPlan) -> Vec<u8> {
    let mut w = Writer::new(0);
    w.u64(key);
    let count = u32::try_from(plan.offsets.len()).unwrap_or(u32::MAX);
    w.u32(count);
    for (label, v) in &plan.offsets {
        w.str(label);
        w.i64(v.x);
        w.i64(v.y);
    }
    match &plan.shape {
        CachedShape::FullParallel { method } => {
            w.u8(SHAPE_FULL_PARALLEL);
            w.u8(match method {
                FullParallelMethod::Acyclic => METHOD_ACYCLIC,
                FullParallelMethod::Cyclic => METHOD_CYCLIC,
            });
        }
        CachedShape::Hyperplane { wavefront } => {
            w.u8(SHAPE_HYPERPLANE);
            w.i64(wavefront.schedule.x);
            w.i64(wavefront.schedule.y);
            w.i64(wavefront.hyperplane.x);
            w.i64(wavefront.hyperplane.y);
        }
    }
    match &plan.cert {
        None => w.u8(0),
        Some(c) => {
            w.u8(1);
            match c.mode {
                VmMode::Serial => w.u8(MODE_SERIAL),
                VmMode::Rows => w.u8(MODE_ROWS),
                VmMode::WavefrontTiled { schedule } => {
                    w.u8(MODE_WAVEFRONT_TILED);
                    w.i64(schedule.0);
                    w.i64(schedule.1);
                }
            }
            w.i64(c.n);
            w.i64(c.m);
            w.u64(u64::try_from(c.loops).unwrap_or(u64::MAX));
            w.u64(c.instrs);
            w.u64(c.loads_checked);
            w.u64(c.pairs_checked);
            w.u64(c.checksum);
        }
    }
    w.u64(plan.sum);
    let check = record_check(w.body());
    w.u64(check);
    let frame = w.frame();
    debug_assert!(frame.len() - 4 <= MAX_RECORD as usize);
    frame
}

/// Decodes one record body (length prefix stripped). Total: every
/// malformed input is a typed error, and embedded counts are bounded
/// against the bytes actually present before any allocation.
pub(crate) fn decode_record(payload: &[u8]) -> Result<(u64, CachedPlan), StoreError> {
    if payload.len() < 8 {
        return Err(StoreError::Truncated);
    }
    let (body, tail) = payload.split_at(payload.len() - 8);
    let mut check_bytes = [0u8; 8];
    check_bytes.copy_from_slice(tail);
    if record_check(body) != u64::from_le_bytes(check_bytes) {
        return Err(StoreError::BadChecksum);
    }
    let mut r = Reader::new(body);
    let bad = |why| StoreError::BadPayload(why);
    if r.u8().map_err(|_| StoreError::Truncated)? != 0 {
        return Err(bad("unknown record tag"));
    }
    let key = r.u64().map_err(|_| StoreError::Truncated)?;
    let count = r.u32().map_err(|_| StoreError::Truncated)? as usize;
    // Each offset is at least a 4-byte label length plus two i64s.
    if count.saturating_mul(20) > r.remaining() {
        return Err(bad("offset count exceeds the record"));
    }
    let mut offsets = Vec::with_capacity(count);
    for _ in 0..count {
        let label = r.str().map_err(|_| bad("bad offset label"))?;
        let x = r.i64().map_err(|_| StoreError::Truncated)?;
        let y = r.i64().map_err(|_| StoreError::Truncated)?;
        offsets.push((label, IVec2::new(x, y)));
    }
    let shape = match r.u8().map_err(|_| StoreError::Truncated)? {
        SHAPE_FULL_PARALLEL => CachedShape::FullParallel {
            method: match r.u8().map_err(|_| StoreError::Truncated)? {
                METHOD_ACYCLIC => FullParallelMethod::Acyclic,
                METHOD_CYCLIC => FullParallelMethod::Cyclic,
                _ => return Err(bad("unknown full-parallel method")),
            },
        },
        SHAPE_HYPERPLANE => {
            let sx = r.i64().map_err(|_| StoreError::Truncated)?;
            let sy = r.i64().map_err(|_| StoreError::Truncated)?;
            let hx = r.i64().map_err(|_| StoreError::Truncated)?;
            let hy = r.i64().map_err(|_| StoreError::Truncated)?;
            CachedShape::Hyperplane {
                wavefront: Wavefront {
                    schedule: IVec2::new(sx, sy),
                    hyperplane: IVec2::new(hx, hy),
                },
            }
        }
        _ => return Err(bad("unknown shape discriminant")),
    };
    let cert = match r.u8().map_err(|_| StoreError::Truncated)? {
        0 => None,
        1 => {
            let mode = match r.u8().map_err(|_| StoreError::Truncated)? {
                MODE_SERIAL => VmMode::Serial,
                MODE_ROWS => VmMode::Rows,
                MODE_WAVEFRONT_TILED => {
                    let sx = r.i64().map_err(|_| StoreError::Truncated)?;
                    let sy = r.i64().map_err(|_| StoreError::Truncated)?;
                    VmMode::WavefrontTiled { schedule: (sx, sy) }
                }
                MODE_RETIRED_WAVEFRONT => return Err(bad("retired vm mode")),
                _ => return Err(bad("unknown vm mode")),
            };
            let n = r.i64().map_err(|_| StoreError::Truncated)?;
            let m = r.i64().map_err(|_| StoreError::Truncated)?;
            let loops = r.u64().map_err(|_| StoreError::Truncated)?;
            Some(BytecodeCert {
                mode,
                n,
                m,
                loops: usize::try_from(loops).map_err(|_| bad("loop count overflow"))?,
                instrs: r.u64().map_err(|_| StoreError::Truncated)?,
                loads_checked: r.u64().map_err(|_| StoreError::Truncated)?,
                pairs_checked: r.u64().map_err(|_| StoreError::Truncated)?,
                checksum: r.u64().map_err(|_| StoreError::Truncated)?,
            })
        }
        _ => return Err(bad("bad cert presence byte")),
    };
    let sum = r.u64().map_err(|_| StoreError::Truncated)?;
    r.finish()
        .map_err(|_| bad("trailing bytes inside a record"))?;
    Ok((
        key,
        CachedPlan {
            offsets,
            shape,
            cert,
            sum,
            warm: false,
        },
    ))
}

/// Scans `bytes` (header already verified and stripped) record by
/// record. Structurally bad records are dropped individually; a framing
/// failure discards the tail. Later records for a key supersede earlier
/// ones (the log is append-only, so last-write-wins is insert order).
/// Returns the byte count consumed as intact frames — the point where a
/// torn tail begins, which appends use to heal the file.
fn scan_records(
    bytes: &[u8],
    chaos: bool,
    out: &mut Vec<(u64, CachedPlan)>,
    dropped: &mut u64,
) -> usize {
    let mut pos = 0usize;
    while pos < bytes.len() {
        if bytes.len() - pos < 4 {
            // Torn mid-prefix: discard the tail.
            *dropped += 1;
            return pos;
        }
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&bytes[pos..pos + 4]);
        let len = u32::from_le_bytes(len_bytes);
        if len == 0 || len > MAX_RECORD {
            // An impossible length means framing is lost from here on.
            *dropped += 1;
            return pos;
        }
        let len = len as usize;
        if bytes.len() - pos - 4 < len {
            // Torn mid-record: discard the tail.
            *dropped += 1;
            return pos;
        }
        let mut payload = bytes[pos + 4..pos + 4 + len].to_vec();
        pos += 4 + len;
        if chaos && mdf_chaos::hit("persist.load") == Some(mdf_chaos::FaultKind::CorruptRetiming) {
            // Bit-flip the record under the decoder: the checksum must
            // catch it and the entry must be dropped, never trusted.
            if let Some(b) = payload.get_mut(len / 2) {
                *b ^= 0x40;
            }
        }
        match decode_record(&payload) {
            Ok((key, plan)) => {
                out.retain(|(k, _)| *k != key);
                out.push((key, plan));
            }
            Err(_) => *dropped += 1,
        }
    }
    pos
}

/// Reads a store file and returns its record area, or `None` when the
/// file is absent, unreadable, or does not open with `magic` (an old or
/// foreign format is treated as empty, never misparsed).
fn read_store_file(path: &Path, magic: &[u8; 8]) -> Option<Vec<u8>> {
    let mut f = File::open(path).ok()?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes).ok()?;
    if bytes.len() < magic.len() || &bytes[..magic.len()] != magic {
        return None;
    }
    Some(bytes[magic.len()..].to_vec())
}

/// The persistent side of one daemon's plan cache.
pub(crate) struct CacheStore {
    dir: PathBuf,
    sync: CacheSync,
    chaos: bool,
    /// Open append handle to `cache.log` (recreated after compaction).
    log: Option<File>,
    /// Bytes of `cache.log` known to end on a frame boundary. Appends
    /// compare this against the file's real length and truncate any
    /// torn suffix (left by a crash mid-append) before writing, so one
    /// interrupted write never poisons the records that follow it.
    log_len: u64,
    /// Valid log length measured by [`CacheStore::load`] (`Some(0)`
    /// when the log was absent or its header unreadable). Consumed by
    /// the first append to resume writing at the healed boundary.
    log_valid: Option<u64>,
    /// Records appended since the last snapshot, the compaction trigger.
    appended: usize,
}

impl CacheStore {
    /// Opens (creating if needed) the store under `dir`.
    pub(crate) fn open(dir: &Path, sync: CacheSync, chaos: bool) -> std::io::Result<CacheStore> {
        std::fs::create_dir_all(dir)?;
        Ok(CacheStore {
            dir: dir.to_path_buf(),
            sync,
            chaos,
            log: None,
            log_len: 0,
            log_valid: None,
            appended: 0,
        })
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join("cache.log")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot")
    }

    /// Restores whatever the store holds into `cache` (snapshot first,
    /// then the log, later records superseding earlier ones). Total:
    /// a damaged store yields fewer entries, never an error or a panic.
    pub(crate) fn load(&mut self, cache: &mut PlanCache) -> LoadReport {
        let mut report = LoadReport::default();
        let mut records: Vec<(u64, CachedPlan)> = Vec::new();
        if let Some(bytes) = read_store_file(&self.snapshot_path(), SNAP_MAGIC) {
            scan_records(&bytes, self.chaos, &mut records, &mut report.dropped);
        }
        match read_store_file(&self.log_path(), LOG_MAGIC) {
            Some(bytes) => {
                let consumed = scan_records(&bytes, self.chaos, &mut records, &mut report.dropped);
                self.log_valid = Some((LOG_MAGIC.len() + consumed) as u64);
            }
            // Absent or header-less: untrusted in full, recreate on the
            // first append rather than writing after unknown bytes.
            None => self.log_valid = Some(0),
        }
        for (key, plan) in records {
            if cache.restore(key, plan) {
                report.loaded += 1;
            } else {
                report.dropped += 1;
            }
        }
        report
    }

    /// Opens (creating with a header if empty/absent) the append handle,
    /// healing any torn tail a prior crash left behind.
    fn open_log(&mut self) -> std::io::Result<()> {
        if self.log.is_some() {
            return Ok(());
        }
        let path = self.log_path();
        if self.log_valid == Some(0) {
            // The whole file was untrusted at load time: start over.
            let _ = std::fs::remove_file(&path);
        }
        let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut len = f.metadata()?.len();
        if len == 0 {
            f.write_all(LOG_MAGIC)?;
            len = LOG_MAGIC.len() as u64;
        }
        if let Some(valid) = self.log_valid.take() {
            if valid >= LOG_MAGIC.len() as u64 && valid < len {
                // Load found a torn tail at `valid`; cut it off so new
                // records land on a clean frame boundary.
                f.set_len(valid)?;
                len = valid;
            }
        }
        self.log_valid = None;
        self.log_len = len;
        self.log = Some(f);
        Ok(())
    }

    /// Appends one record to the log. When the log has grown past the
    /// compaction threshold the caller should follow up with
    /// [`CacheStore::compact`]. IO failures are returned (the daemon
    /// treats them as "persistence off", never as a request failure).
    pub(crate) fn append(&mut self, key: u64, plan: &CachedPlan) -> std::io::Result<()> {
        let frame = encode_record(key, plan);
        let chaos = self.chaos;
        let sync = self.sync;
        self.open_log()?;
        let expected = self.log_len;
        let f = match self.log.as_mut() {
            Some(f) => f,
            None => return Err(std::io::Error::other("log handle vanished")),
        };
        if f.metadata()?.len() != expected {
            // A previous append died mid-write (the persist.append fault,
            // or a real crash with the handle still open): truncate the
            // torn suffix before writing so the log stays parseable.
            f.set_len(expected)?;
        }
        if chaos && mdf_chaos::hit("persist.append") == Some(mdf_chaos::FaultKind::WorkerPanic) {
            // Model a torn write: half the frame reaches the file, then
            // the writer dies. The next load must discard this tail.
            let _ = f.write_all(&frame[..frame.len() / 2]);
            let _ = f.flush();
            panic!("chaos: injected torn write at persist.append");
        }
        f.write_all(&frame)?;
        if sync == CacheSync::Always {
            f.sync_data()?;
        }
        self.log_len = expected + frame.len() as u64;
        self.appended += 1;
        Ok(())
    }

    /// Whether enough appends have accumulated that the next compaction
    /// is worth its full rewrite.
    pub(crate) fn wants_compaction(&self) -> bool {
        self.appended >= COMPACT_EVERY
    }

    /// Writes a compacted snapshot of `entries` (tmp-write + fsync per
    /// policy + atomic rename), then truncates the log. A kill at any
    /// point leaves either the old snapshot or the new one.
    pub(crate) fn compact(&mut self, entries: &[(u64, CachedPlan)]) -> std::io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(SNAP_MAGIC)?;
            for (key, plan) in entries {
                f.write_all(&encode_record(*key, plan))?;
            }
            if self.sync != CacheSync::Never {
                f.sync_data()?;
            }
        }
        if self.chaos
            && mdf_chaos::hit("persist.compact") == Some(mdf_chaos::FaultKind::WorkerPanic)
        {
            // Model a kill between tmp-write and rename: the old snapshot
            // must stay intact and the tmp file must be ignored on load.
            panic!("chaos: injected kill at persist.compact");
        }
        std::fs::rename(&tmp, self.snapshot_path())?;
        // The snapshot now owns history; drop the log and start fresh.
        self.log = None;
        self.log_len = 0;
        self.log_valid = None;
        self.appended = 0;
        let mut f = File::create(self.log_path())?;
        f.write_all(LOG_MAGIC)?;
        if self.sync == CacheSync::Always {
            f.sync_data()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_core::plan_fusion;
    use mdf_graph::paper::{figure2, figure8};
    use mdf_graph::{canonical_fingerprint, Mldg};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mdf-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn populated_cache(g: &Mldg) -> (u64, PlanCache) {
        let key = canonical_fingerprint(g);
        let mut cache = PlanCache::new(8);
        cache.insert(key, g, &plan_fusion(g).unwrap());
        (key, cache)
    }

    fn sample_cert() -> BytecodeCert {
        BytecodeCert {
            mode: VmMode::WavefrontTiled { schedule: (1, 2) },
            n: 24,
            m: 24,
            loops: 3,
            instrs: 40,
            loads_checked: 12,
            pairs_checked: 6,
            checksum: 0x1234_5678_9abc_def0,
        }
    }

    #[test]
    fn record_round_trips_with_and_without_cert() {
        let g = figure2();
        let (key, mut cache) = populated_cache(&g);
        for with_cert in [false, true] {
            if with_cert {
                assert!(cache.attach_cert(key, sample_cert()));
            }
            let plan = cache.peek(key).unwrap();
            let frame = encode_record(key, plan);
            let (k2, p2) = decode_record(&frame[4..]).unwrap();
            assert_eq!(k2, key);
            assert_eq!(p2.offsets, plan.offsets);
            assert_eq!(p2.sum, plan.sum);
            assert_eq!(p2.cert.is_some(), with_cert);
        }
    }

    #[test]
    fn store_round_trips_through_log_and_snapshot() {
        let g2 = figure2();
        let g8 = figure8();
        let dir = temp_dir("roundtrip");
        let (k2, mut cache) = populated_cache(&g2);
        let k8 = canonical_fingerprint(&g8);
        cache.insert(k8, &g8, &plan_fusion(&g8).unwrap());
        assert!(cache.attach_cert(k2, sample_cert()));

        let mut store = CacheStore::open(&dir, CacheSync::Always, false).unwrap();
        for (k, p) in cache.entries().to_vec() {
            store.append(k, &p).unwrap();
        }
        // Reload from the log alone.
        let mut warmed = PlanCache::new(8);
        let mut reloader = CacheStore::open(&dir, CacheSync::Snapshot, false).unwrap();
        let report = reloader.load(&mut warmed);
        assert_eq!(report.loaded, 2, "{report:?}");
        assert_eq!(report.dropped, 0);
        assert!(matches!(
            warmed.lookup(k2, &g2, false),
            crate::cache::CacheLookup::Hit(_, Some(_), true)
        ));

        // Compact, then reload from the snapshot alone.
        store.compact(cache.entries()).unwrap();
        let log_bytes = std::fs::read(dir.join("cache.log")).unwrap();
        assert_eq!(log_bytes, LOG_MAGIC, "log truncated to a bare header");
        let mut warmed = PlanCache::new(8);
        let report = CacheStore::open(&dir, CacheSync::Never, false)
            .unwrap()
            .load(&mut warmed);
        assert_eq!(report.loaded, 2, "{report:?}");
        assert!(matches!(
            warmed.lookup(k8, &g8, false),
            crate::cache::CacheLookup::Hit(_, None, true)
        ));
    }

    /// The satellite's recovery table: every corruption class loads
    /// without a panic and never yields an entry that fails restore's
    /// revalidation — damage costs entries, not correctness.
    #[test]
    fn corrupt_stores_recover_to_a_valid_prefix() {
        let g = figure2();
        struct Case {
            name: &'static str,
            corrupt: fn(&mut Vec<u8>),
            loaded: u64,
        }
        let cases = [
            Case {
                name: "truncated tail",
                corrupt: |log| {
                    let keep = log.len() - 7;
                    log.truncate(keep);
                },
                loaded: 0,
            },
            Case {
                name: "bit flip in record body",
                corrupt: |log| {
                    let mid = 8 + (log.len() - 8) / 2;
                    log[mid] ^= 0x10;
                },
                loaded: 0,
            },
            Case {
                name: "bit flip in record checksum",
                corrupt: |log| {
                    let last = log.len() - 1;
                    log[last] ^= 0x01;
                },
                loaded: 0,
            },
            Case {
                name: "garbage header",
                corrupt: |log| log[..8].copy_from_slice(b"garbage!"),
                loaded: 0,
            },
            Case {
                name: "empty file",
                corrupt: |log| log.clear(),
                loaded: 0,
            },
            Case {
                name: "zero length prefix (framing lost)",
                corrupt: |log| {
                    for b in &mut log[8..12] {
                        *b = 0;
                    }
                },
                loaded: 0,
            },
            Case {
                name: "untouched control",
                corrupt: |_| {},
                loaded: 1,
            },
        ];
        for case in cases {
            let dir = temp_dir(&format!("corrupt-{}", case.name.replace(' ', "-")));
            let (key, cache) = populated_cache(&g);
            let mut store = CacheStore::open(&dir, CacheSync::Always, false).unwrap();
            store.append(key, cache.peek(key).unwrap()).unwrap();
            drop(store);
            let mut log = std::fs::read(dir.join("cache.log")).unwrap();
            (case.corrupt)(&mut log);
            std::fs::write(dir.join("cache.log"), &log).unwrap();

            let mut warmed = PlanCache::new(8);
            let report = CacheStore::open(&dir, CacheSync::Never, false)
                .unwrap()
                .load(&mut warmed);
            assert_eq!(
                report.loaded, case.loaded,
                "case {:?}: {report:?}",
                case.name
            );
            // Whatever survived must pass the full per-hit gauntlet.
            for (k, _) in warmed.entries().to_vec() {
                match warmed.lookup(k, &g, false) {
                    crate::cache::CacheLookup::Hit(p, _, true) => {
                        mdf_core::verify_plan(&g, &p).unwrap()
                    }
                    other => panic!("case {:?}: surviving entry failed: {other:?}", case.name),
                }
            }
        }
    }

    #[test]
    fn mixed_snapshot_and_log_prefers_later_records() {
        let g = figure2();
        let dir = temp_dir("mixed");
        let (key, mut cache) = populated_cache(&g);
        let mut store = CacheStore::open(&dir, CacheSync::Snapshot, false).unwrap();
        // Snapshot holds the cert-less entry; the log holds a later
        // cert-attached record for the same key. Load must keep the log's.
        store.compact(cache.entries()).unwrap();
        assert!(cache.attach_cert(key, sample_cert()));
        store.append(key, cache.peek(key).unwrap()).unwrap();
        drop(store);

        let mut warmed = PlanCache::new(8);
        let report = CacheStore::open(&dir, CacheSync::Never, false)
            .unwrap()
            .load(&mut warmed);
        assert_eq!(report.loaded, 1, "{report:?}");
        match warmed.lookup(key, &g, false) {
            crate::cache::CacheLookup::Hit(_, Some(c), true) => {
                assert_eq!(c.checksum, sample_cert().checksum)
            }
            other => panic!("expected the log's cert-attached record, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_preserves_earlier_records() {
        let g2 = figure2();
        let g8 = figure8();
        let dir = temp_dir("torn-prefix");
        let (k2, mut cache) = populated_cache(&g2);
        let k8 = canonical_fingerprint(&g8);
        cache.insert(k8, &g8, &plan_fusion(&g8).unwrap());
        let mut store = CacheStore::open(&dir, CacheSync::Always, false).unwrap();
        store.append(k2, cache.peek(k2).unwrap()).unwrap();
        store.append(k8, cache.peek(k8).unwrap()).unwrap();
        drop(store);
        // Tear the second record mid-body: the first must survive.
        let log = std::fs::read(dir.join("cache.log")).unwrap();
        std::fs::write(dir.join("cache.log"), &log[..log.len() - 11]).unwrap();

        let mut warmed = PlanCache::new(8);
        let report = CacheStore::open(&dir, CacheSync::Never, false)
            .unwrap()
            .load(&mut warmed);
        assert_eq!((report.loaded, report.dropped), (1, 1), "{report:?}");
        assert!(matches!(
            warmed.lookup(k2, &g2, false),
            crate::cache::CacheLookup::Hit(..)
        ));
        assert!(matches!(
            warmed.lookup(k8, &g8, false),
            crate::cache::CacheLookup::Miss
        ));
    }

    #[test]
    fn a_record_with_the_retired_wavefront_cert_mode_is_dropped_alone() {
        // A log written before the untiled wavefront mode was retired may
        // hold a well-framed record carrying its cert mode tag. That
        // record is dropped by itself — not taken for a torn tail — and
        // the valid record after it is restored.
        let g2 = figure2();
        let g8 = figure8();
        let dir = temp_dir("retired-mode");
        let (k2, mut cache) = populated_cache(&g2);
        let k8 = canonical_fingerprint(&g8);
        cache.insert(k8, &g8, &plan_fusion(&g8).unwrap());
        assert!(cache.attach_cert(k2, sample_cert()));
        let mut retired = encode_record(k2, cache.peek(k2).unwrap());
        // After the mode byte: the schedule (2 x i64), the cert's seven
        // 8-byte fields, the plan sum and the record checksum.
        let at = retired.len() - 1 - 16 - 56 - 8 - 8;
        assert_eq!(retired[at], MODE_WAVEFRONT_TILED);
        retired[at] = MODE_RETIRED_WAVEFRONT;
        let end = retired.len() - 8;
        let check = record_check(&retired[4..end]);
        retired[end..].copy_from_slice(&check.to_le_bytes());
        assert_eq!(
            decode_record(&retired[4..]).unwrap_err(),
            StoreError::BadPayload("retired vm mode")
        );
        let mut log = LOG_MAGIC.to_vec();
        log.extend_from_slice(&retired);
        log.extend_from_slice(&encode_record(k8, cache.peek(k8).unwrap()));
        std::fs::write(dir.join("cache.log"), &log).unwrap();

        let mut warmed = PlanCache::new(8);
        let report = CacheStore::open(&dir, CacheSync::Never, false)
            .unwrap()
            .load(&mut warmed);
        assert_eq!((report.loaded, report.dropped), (1, 1), "{report:?}");
        assert!(matches!(
            warmed.lookup(k8, &g8, false),
            crate::cache::CacheLookup::Hit(..)
        ));
        assert!(matches!(
            warmed.lookup(k2, &g2, false),
            crate::cache::CacheLookup::Miss
        ));
    }

    #[test]
    fn compact_survives_a_chaos_kill_between_tmp_and_rename() {
        let g = figure2();
        let dir = temp_dir("compact-kill");
        let (key, cache) = populated_cache(&g);
        let mut store = CacheStore::open(&dir, CacheSync::Snapshot, true).unwrap();
        store.append(key, cache.peek(key).unwrap()).unwrap();
        let guard =
            mdf_chaos::FaultPlan::single("persist.compact", mdf_chaos::FaultKind::WorkerPanic, 1)
                .arm();
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.compact(cache.entries())
        }));
        assert_eq!(guard.injected(), 1);
        drop(guard);
        assert!(killed.is_err(), "the injected kill must fire");
        assert!(!dir.join("snapshot").exists(), "rename never happened");

        // The log is still the source of truth; a reload warm-starts.
        let mut warmed = PlanCache::new(8);
        let report = CacheStore::open(&dir, CacheSync::Never, false)
            .unwrap()
            .load(&mut warmed);
        assert_eq!(report.loaded, 1, "{report:?}");
    }

    #[test]
    fn torn_append_chaos_leaves_a_recoverable_log() {
        let g2 = figure2();
        let g8 = figure8();
        let dir = temp_dir("append-torn");
        let (k2, mut cache) = populated_cache(&g2);
        let k8 = canonical_fingerprint(&g8);
        cache.insert(k8, &g8, &plan_fusion(&g8).unwrap());
        let mut store = CacheStore::open(&dir, CacheSync::Snapshot, true).unwrap();
        store.append(k2, cache.peek(k2).unwrap()).unwrap();
        let guard =
            mdf_chaos::FaultPlan::single("persist.append", mdf_chaos::FaultKind::WorkerPanic, 1)
                .arm();
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.append(k8, cache.peek(k8).unwrap())
        }));
        assert_eq!(guard.injected(), 1);
        drop(guard);
        assert!(torn.is_err(), "the injected torn write must fire");

        let mut warmed = PlanCache::new(8);
        let report = CacheStore::open(&dir, CacheSync::Never, false)
            .unwrap()
            .load(&mut warmed);
        assert_eq!((report.loaded, report.dropped), (1, 1), "{report:?}");
        assert!(matches!(
            warmed.lookup(k2, &g2, false),
            crate::cache::CacheLookup::Hit(..)
        ));
    }

    use proptest::prelude::*;

    proptest! {
        /// Encode/decode is a bijection on its image: decoding a frame
        /// and re-encoding it reproduces the bytes exactly, for
        /// arbitrary keys, offset tables, shapes, and certs.
        #[test]
        fn records_round_trip_for_arbitrary_plans(
            key in 0u64..=u64::MAX,
            labels in proptest::collection::vec(".{0,12}", 0..6),
            coords in proptest::collection::vec((-1000i64..1000, -1000i64..1000), 6),
            shape_pick in 0u8..6,
            wf in (-8i64..8, -8i64..8, -8i64..8, -8i64..8),
            cert_pick in 0u8..9,
            dims in (0i64..1000, 0i64..1000),
            loops in 0usize..100,
            counters in (0u64..1 << 32, 0u64..1 << 32, 0u64..1 << 32),
            checksum in 0u64..=u64::MAX,
            sum in 0u64..=u64::MAX,
        ) {
            let offsets: Vec<(String, IVec2)> = labels
                .into_iter()
                .zip(coords)
                .map(|(l, (x, y))| (l, IVec2::new(x, y)))
                .collect();
            let shape = match shape_pick {
                0 => CachedShape::FullParallel { method: FullParallelMethod::Acyclic },
                1 => CachedShape::FullParallel { method: FullParallelMethod::Cyclic },
                _ => CachedShape::Hyperplane {
                    wavefront: Wavefront {
                        schedule: IVec2::new(wf.0, wf.1),
                        hyperplane: IVec2::new(wf.2, wf.3),
                    },
                },
            };
            let mode = match cert_pick % 3 {
                0 => VmMode::Serial,
                1 => VmMode::Rows,
                _ => VmMode::WavefrontTiled { schedule: (wf.2, wf.3) },
            };
            let cert = (cert_pick >= 4).then_some(BytecodeCert {
                mode,
                n: dims.0,
                m: dims.1,
                loops,
                instrs: counters.0,
                loads_checked: counters.1,
                pairs_checked: counters.2,
                checksum,
            });
            let plan = CachedPlan { offsets, shape, cert, sum, warm: false };
            let frame = encode_record(key, &plan);
            let (k2, p2) = decode_record(&frame[4..]).unwrap();
            prop_assert_eq!(k2, key);
            prop_assert_eq!(encode_record(k2, &p2), frame);
        }

        /// The decoder is total: arbitrary bytes produce a typed error
        /// or a valid record, never a panic — and a whole-log scan of
        /// arbitrary bytes terminates without panicking either.
        #[test]
        fn decode_and_scan_are_total_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255u8, 0..256),
        ) {
            let _ = decode_record(&bytes);
            let mut out = Vec::new();
            let mut dropped = 0u64;
            let consumed = scan_records(&bytes, false, &mut out, &mut dropped);
            prop_assert!(consumed <= bytes.len());
        }
    }

    #[test]
    fn load_bit_flip_chaos_drops_the_entry_not_the_daemon() {
        let g = figure2();
        let dir = temp_dir("load-flip");
        let (key, cache) = populated_cache(&g);
        let mut store = CacheStore::open(&dir, CacheSync::Always, false).unwrap();
        store.append(key, cache.peek(key).unwrap()).unwrap();
        drop(store);

        let guard =
            mdf_chaos::FaultPlan::single("persist.load", mdf_chaos::FaultKind::CorruptRetiming, 1)
                .arm();
        let mut warmed = PlanCache::new(8);
        let report = CacheStore::open(&dir, CacheSync::Never, true)
            .unwrap()
            .load(&mut warmed);
        assert_eq!(guard.injected(), 1);
        drop(guard);
        assert_eq!((report.loaded, report.dropped), (0, 1), "{report:?}");
        assert!(warmed.is_empty());
    }
}
