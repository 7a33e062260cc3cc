//! The write side of the longitudinal store: an append-only, LSM-ish
//! layout under one directory.
//!
//! ```text
//! hist/
//!   seg-0000000001.full.ipdseg    keyframe: the complete map at epoch 1
//!   seg-0000000002.delta.ipdseg   changes 1 → 2
//!   ...
//!   seg-0000000009.full.ipdseg    keyframe (compaction folded the deltas)
//!   manifest-0000000012.ipdman    authoritative segment list, generation 12
//! ```
//!
//! **Appends** always write a delta against the in-memory image of the
//! previous epoch (the first epoch is a full image by construction); the
//! file is written and fsynced in place. **Compaction** — inline via
//! [`HistStore::compact_now`] or on the background thread — folds the
//! delta at each keyframe position (every [`HistConfig::keyframe_every`]
//! epochs) into a full image, so reconstructing any epoch reads at most
//! `keyframe_every` segments once compaction has caught up.
//!
//! **Crash safety** follows the `ipd-state` generation-store idiom: the
//! manifest is the commit point, written tmp → fsync → rename. Compaction
//! writes the new keyframe file, swaps the manifest, and only then deletes
//! the replaced delta — every crash window leaves either a stray file
//! (cleaned or adopted on open) or a stale-but-consistent manifest.
//! Appends since the last manifest write live only as segment files; open
//! re-adopts that tail in epoch order with full checksum verification and
//! truncates at the first torn file.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use ipd_serve::LiveStore;
use ipd_state::CodecError;

use crate::codec::{
    decode_manifest, decode_segment, encode_manifest, encode_segment, Manifest, ManifestEntry,
    Segment, SegmentKind, SegmentPayload,
};
use crate::image::EpochImage;
use crate::telemetry::HistTelemetry;

/// Tuning for the LSM layout.
#[derive(Debug, Clone, Copy)]
pub struct HistConfig {
    /// Keyframe interval K: epochs `1, K+1, 2K+1, …` become full images,
    /// bounding reconstruction at K segment reads. 1 = every epoch full.
    pub keyframe_every: u64,
    /// Recent epochs kept decoded in memory (reconstruction hits cost zero
    /// segment reads). At least 1 — the previous epoch is always needed to
    /// compute the next delta.
    pub memtable_epochs: usize,
    /// Appends between automatic manifest writes. The manifest is also
    /// written on every compaction and on close; a crash loses at most the
    /// *manifest*, never segments — open re-adopts the tail.
    pub manifest_every: u64,
    /// Fold keyframes on a background thread as epochs arrive. Off, the
    /// folding happens only on explicit [`HistStore::compact_now`] calls.
    pub background_compaction: bool,
}

impl Default for HistConfig {
    fn default() -> Self {
        HistConfig {
            keyframe_every: 8,
            memtable_epochs: 4,
            manifest_every: 64,
            background_compaction: true,
        }
    }
}

/// Everything the store can fail with.
#[derive(Debug)]
pub enum HistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A segment or manifest the manifest vouches for failed to decode —
    /// on-disk corruption past what open-time recovery repairs.
    Codec(CodecError),
    /// An append that is not the next epoch.
    OutOfOrder {
        /// The epoch the store expected next.
        expected: u64,
        /// The epoch the caller tried to append.
        got: u64,
    },
}

impl std::fmt::Display for HistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistError::Io(e) => write!(f, "io: {e}"),
            HistError::Codec(e) => write!(f, "segment store corrupt: {e}"),
            HistError::OutOfOrder { expected, got } => {
                write!(
                    f,
                    "append out of order: expected epoch {expected}, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for HistError {}

impl From<std::io::Error> for HistError {
    fn from(e: std::io::Error) -> Self {
        HistError::Io(e)
    }
}

impl From<CodecError> for HistError {
    fn from(e: CodecError) -> Self {
        HistError::Codec(e)
    }
}

pub(crate) struct State {
    pub(crate) manifest: Manifest,
    manifest_gen: u64,
    dirty: bool,
    appends_since_manifest: u64,
    pub(crate) memtable: VecDeque<Arc<EpochImage>>,
    last_image: Option<Arc<EpochImage>>,
    compact_error: Option<String>,
}

pub(crate) struct Inner {
    pub(crate) dir: PathBuf,
    pub(crate) cfg: HistConfig,
    pub(crate) metrics: HistTelemetry,
    pub(crate) state: Mutex<State>,
    /// The last servable store a reader built (see
    /// [`crate::HistReader::store_at`]); its own lock, not the state's.
    pub(crate) last_store: Mutex<Option<Arc<LiveStore>>>,
    work: Condvar,
    stop: AtomicBool,
}

/// The longitudinal store. One writer ([`HistStore::append`]); any number
/// of [`crate::HistReader`]s sharing the directory state.
pub struct HistStore {
    inner: Arc<Inner>,
    compactor: Option<JoinHandle<()>>,
}

fn seg_file_name(epoch: u64, kind: SegmentKind) -> String {
    let kind = match kind {
        SegmentKind::Full => "full",
        SegmentKind::Delta => "delta",
    };
    format!("seg-{epoch:010}.{kind}.ipdseg")
}

fn manifest_file_name(gen: u64) -> String {
    format!("manifest-{gen:010}.ipdman")
}

/// Parse `seg-NNNNNNNNNN.full|delta.ipdseg`; exactly ten digits.
fn parse_seg_name(name: &str) -> Option<(u64, SegmentKind)> {
    let rest = name.strip_prefix("seg-")?;
    let (digits, tail) = (rest.get(..10)?, rest.get(10..)?);
    if !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let epoch = digits.parse().ok()?;
    match tail {
        ".full.ipdseg" => Some((epoch, SegmentKind::Full)),
        ".delta.ipdseg" => Some((epoch, SegmentKind::Delta)),
        _ => None,
    }
}

/// Parse `manifest-NNNNNNNNNN.ipdman`; exactly ten digits.
fn parse_manifest_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("manifest-")?;
    let (digits, tail) = (rest.get(..10)?, rest.get(10..)?);
    if !digits.bytes().all(|b| b.is_ascii_digit()) || tail != ".ipdman" {
        return None;
    }
    digits.parse().ok()
}

fn write_synced(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    std::io::Write::write_all(&mut f, bytes)?;
    f.sync_all()
}

/// Read + decode + identity-check one segment file.
pub(crate) fn read_segment(
    dir: &Path,
    epoch: u64,
    kind: SegmentKind,
) -> Result<Segment, HistError> {
    let bytes = std::fs::read(dir.join(seg_file_name(epoch, kind)))?;
    let seg = decode_segment(&bytes)?;
    if seg.epoch != epoch || seg.kind() != kind {
        return Err(HistError::Codec(CodecError::Malformed(
            "segment identity does not match its file name",
        )));
    }
    Ok(seg)
}

/// The lowest keyframe-position epoch still stored as a delta, if any.
fn pending_keyframe(manifest: &Manifest, cfg: &HistConfig) -> Option<u64> {
    manifest
        .entries
        .iter()
        .find(|e| is_keyframe_pos(e.epoch, cfg) && e.kind == SegmentKind::Delta)
        .map(|e| e.epoch)
}

fn is_keyframe_pos(epoch: u64, cfg: &HistConfig) -> bool {
    let k = cfg.keyframe_every.max(1);
    k == 1 || epoch % k == 1
}

impl Inner {
    /// Reconstruct one epoch's image from the memtable or from segments,
    /// returning the segment-read count. `None` = epoch not held. Segment
    /// I/O happens under the state lock, so compaction can never delete a
    /// file out from under a reconstruction.
    pub(crate) fn image_at(
        &self,
        st: &mut MutexGuard<'_, State>,
        epoch: u64,
    ) -> Result<Option<(Arc<EpochImage>, u64)>, HistError> {
        if let Some(hit) = st.memtable.iter().find(|i| i.epoch == epoch) {
            self.metrics.reconstruct_reads.observe(0);
            return Ok(Some((Arc::clone(hit), 0)));
        }
        let Some(entry) = st.manifest.get(epoch) else {
            return Ok(None);
        };
        let first = st.manifest.first_epoch();
        // Walk back to the nearest keyframe (the first entry always is one).
        let mut key = entry.epoch;
        while st.manifest.get(key).expect("contiguous manifest").kind == SegmentKind::Delta {
            debug_assert!(key > first);
            key -= 1;
        }
        let mut reads = 1u64;
        let full = read_segment(&self.dir, key, SegmentKind::Full)?;
        let SegmentPayload::Full(rows) = full.payload else {
            unreachable!("read_segment checked the kind");
        };
        let mut image = EpochImage::new(full.epoch, full.ts, rows);
        for e in key + 1..=epoch {
            let seg = read_segment(&self.dir, e, SegmentKind::Delta)?;
            let SegmentPayload::Delta(delta) = seg.payload else {
                unreachable!("read_segment checked the kind");
            };
            image = image.apply(&delta, seg.epoch, seg.ts);
            reads += 1;
        }
        self.metrics.reconstruct_reads.observe(reads);
        Ok(Some((Arc::new(image), reads)))
    }

    /// Write the current manifest as a new generation: tmp → fsync →
    /// rename, then prune all but the two newest generations.
    fn write_manifest(&self, st: &mut MutexGuard<'_, State>) -> Result<(), HistError> {
        if !st.dirty {
            return Ok(());
        }
        let gen = st.manifest_gen + 1;
        let bytes = encode_manifest(&st.manifest);
        let path = self.dir.join(manifest_file_name(gen));
        let tmp = self.dir.join(format!("{}.tmp", manifest_file_name(gen)));
        write_synced(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        st.manifest_gen = gen;
        st.dirty = false;
        st.appends_since_manifest = 0;
        // Keep the previous generation as the fallback; drop the rest.
        if let Ok(dir) = std::fs::read_dir(&self.dir) {
            for entry in dir.flatten() {
                if let Some(g) = entry.file_name().to_str().and_then(parse_manifest_name) {
                    if g + 1 < gen {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
        Ok(())
    }

    /// Fold every pending keyframe-position delta into a full image.
    /// Lowest epoch first, so each fold reads a bounded chain from the
    /// previous (already-folded) keyframe.
    fn compact_drain(&self, st: &mut MutexGuard<'_, State>) -> Result<u64, HistError> {
        let mut folded = 0;
        while let Some(epoch) = pending_keyframe(&st.manifest, &self.cfg) {
            let _timer = self.metrics.compaction_duration.start_timer();
            let (image, _) = self
                .image_at(st, epoch)?
                .expect("pending keyframe is in the manifest");
            let bytes = encode_segment(&Segment::full(&image));
            write_synced(
                &self.dir.join(seg_file_name(epoch, SegmentKind::Full)),
                &bytes,
            )?;
            self.metrics.bytes_written.add(bytes.len() as u64);
            let entry_ts = {
                let entry = st.manifest.get_mut(epoch).expect("pending is held");
                entry.kind = SegmentKind::Full;
                entry.bytes = bytes.len() as u64;
                entry.ts
            };
            st.dirty = true;
            // Manifest swap is the commit point; only then drop the delta.
            self.write_manifest(st)?;
            let _ = std::fs::remove_file(self.dir.join(seg_file_name(epoch, SegmentKind::Delta)));
            self.metrics.compactions.inc();
            self.metrics.flight.record(
                ipd_telemetry::EventKind::Compaction,
                entry_ts,
                epoch,
                bytes.len() as u64,
                folded + 1,
            );
            folded += 1;
        }
        if folded > 0 {
            self.refresh_gauges(st);
        }
        Ok(folded)
    }

    pub(crate) fn refresh_gauges(&self, st: &MutexGuard<'_, State>) {
        let man = &st.manifest;
        self.metrics
            .epochs
            .set(man.last_epoch().min(i64::MAX as u64) as i64);
        self.metrics.segments.set(man.entries.len() as i64);
        self.metrics.keyframes.set(
            man.entries
                .iter()
                .filter(|e| e.kind == SegmentKind::Full)
                .count() as i64,
        );
        self.metrics.bytes_on_disk.set(
            man.entries
                .iter()
                .map(|e| e.bytes)
                .sum::<u64>()
                .min(i64::MAX as u64) as i64,
        );
    }
}

impl HistStore {
    /// Open (or create) the store at `dir` with default tuning.
    pub fn open(dir: impl Into<PathBuf>) -> Result<HistStore, HistError> {
        Self::open_with(dir, HistConfig::default(), HistTelemetry::default())
    }

    /// Open with explicit tuning and metric handles. Runs full recovery:
    /// latest-valid-manifest fallback, stray-file adoption or cleanup from
    /// crashed compactions, and checksum-verified tail adoption with
    /// torn-tail truncation.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        cfg: HistConfig,
        metrics: HistTelemetry,
    ) -> Result<HistStore, HistError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let (manifest, manifest_gen, healed) = recover(&dir)?;
        let inner = Arc::new(Inner {
            dir,
            cfg,
            metrics,
            state: Mutex::new(State {
                manifest,
                manifest_gen,
                dirty: healed,
                appends_since_manifest: 0,
                memtable: VecDeque::new(),
                last_image: None,
                compact_error: None,
            }),
            last_store: Mutex::new(None),
            work: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        {
            let mut st = inner.state.lock().expect("state poisoned");
            let last = st.manifest.last_epoch();
            if last > 0 {
                let (image, _) = inner.image_at(&mut st, last)?.expect("last epoch is held");
                st.memtable.push_back(Arc::clone(&image));
                st.last_image = Some(image);
            }
            // Persist any healing immediately, so a second crash cannot
            // observe the pre-recovery state plus new damage.
            inner.write_manifest(&mut st)?;
            inner.refresh_gauges(&st);
        }
        let compactor = if cfg.background_compaction {
            let worker = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("ipd-hist-compact".into())
                    .spawn(move || compactor_loop(&worker))
                    .map_err(HistError::Io)?,
            )
        } else {
            None
        };
        Ok(HistStore { inner, compactor })
    }

    /// Append the next epoch. `image.epoch` must be exactly `last + 1`
    /// (anything for the first append). The segment file is durable when
    /// this returns; the manifest may lag (see [`HistConfig::manifest_every`]).
    pub fn append(&self, image: EpochImage) -> Result<(), HistError> {
        let inner = &self.inner;
        let mut st = inner.state.lock().expect("state poisoned");
        let last = st.manifest.last_epoch();
        if last != 0 && image.epoch != last + 1 {
            return Err(HistError::OutOfOrder {
                expected: last + 1,
                got: image.epoch,
            });
        }
        if last == 0 && image.epoch == 0 {
            return Err(HistError::OutOfOrder {
                expected: 1,
                got: 0,
            });
        }
        let seg = match &st.last_image {
            None => Segment::full(&image),
            Some(prev) => Segment::delta(prev, &image),
        };
        let bytes = encode_segment(&seg);
        write_synced(
            &inner.dir.join(seg_file_name(image.epoch, seg.kind())),
            &bytes,
        )?;
        st.manifest.entries.push(ManifestEntry {
            epoch: image.epoch,
            kind: seg.kind(),
            ts: image.ts,
            bytes: bytes.len() as u64,
        });
        st.dirty = true;
        st.appends_since_manifest += 1;
        let (epoch, ts, full) = (image.epoch, image.ts, seg.kind() == SegmentKind::Full);
        let image = Arc::new(image);
        st.memtable.push_back(Arc::clone(&image));
        while st.memtable.len() > inner.cfg.memtable_epochs.max(1) {
            st.memtable.pop_front();
        }
        st.last_image = Some(image);
        inner.metrics.appends.inc();
        inner.metrics.bytes_written.add(bytes.len() as u64);
        // The segment file is synced at this point: the epoch is durable.
        inner.metrics.persist_watermark.record(ts);
        inner.metrics.flight.record(
            ipd_telemetry::EventKind::HistAppend,
            ts,
            epoch,
            bytes.len() as u64,
            full as u64,
        );
        if st.appends_since_manifest >= inner.cfg.manifest_every.max(1) {
            inner.write_manifest(&mut st)?;
        }
        inner.refresh_gauges(&st);
        if self.compactor.is_some() && pending_keyframe(&st.manifest, &inner.cfg).is_some() {
            inner.work.notify_one();
        }
        Ok(())
    }

    /// Fold all pending keyframes now, inline; returns how many were
    /// folded. Also the way to drain when background compaction is off, and
    /// the way to surface any background compaction error.
    pub fn compact_now(&self) -> Result<u64, HistError> {
        let mut st = self.inner.state.lock().expect("state poisoned");
        if let Some(msg) = st.compact_error.take() {
            return Err(HistError::Io(std::io::Error::other(msg)));
        }
        self.inner.compact_drain(&mut st)
    }

    /// Write the manifest now (appends otherwise batch it).
    pub fn flush(&self) -> Result<(), HistError> {
        let mut st = self.inner.state.lock().expect("state poisoned");
        self.inner.write_manifest(&mut st)
    }

    /// A shareable read handle over the same directory state.
    pub fn reader(&self) -> crate::HistReader {
        crate::HistReader::new(Arc::clone(&self.inner))
    }

    /// Last epoch held (0 when empty).
    pub fn last_epoch(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("state poisoned")
            .manifest
            .last_epoch()
    }

    /// Segment files the manifest tracks (one per epoch).
    pub fn segment_count(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("state poisoned")
            .manifest
            .entries
            .len()
    }

    /// Total tracked segment bytes.
    pub fn bytes_on_disk(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("state poisoned")
            .manifest
            .entries
            .iter()
            .map(|e| e.bytes)
            .sum()
    }

    /// The store directory.
    pub fn dir(&self) -> PathBuf {
        self.inner.dir.clone()
    }
}

impl Drop for HistStore {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.work.notify_all();
        if let Some(h) = self.compactor.take() {
            let _ = h.join();
        }
        if let Ok(mut st) = self.inner.state.lock() {
            let _ = self.inner.write_manifest(&mut st);
        }
    }
}

fn compactor_loop(inner: &Arc<Inner>) {
    let mut st = inner.state.lock().expect("state poisoned");
    while !inner.stop.load(Ordering::SeqCst) {
        if pending_keyframe(&st.manifest, &inner.cfg).is_some() {
            if let Err(e) = inner.compact_drain(&mut st) {
                // Surfaced on the next compact_now(); folding stops until
                // then rather than hot-looping on a failing disk.
                st.compact_error = Some(e.to_string());
                let (guard, _) = inner
                    .work
                    .wait_timeout(st, Duration::from_millis(500))
                    .expect("state poisoned");
                st = guard;
            }
        } else {
            let (guard, _) = inner
                .work
                .wait_timeout(st, Duration::from_millis(200))
                .expect("state poisoned");
            st = guard;
        }
    }
}

/// Open-time recovery. Returns the reconciled manifest, the generation it
/// came from, and whether anything was healed (forcing a manifest rewrite).
fn recover(dir: &Path) -> Result<(Manifest, u64, bool), HistError> {
    let mut manifests: Vec<u64> = Vec::new();
    let mut fulls: Vec<u64> = Vec::new();
    let mut deltas: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            // A tmp file is a write that never committed, any kind.
            let _ = std::fs::remove_file(entry.path());
        } else if let Some(gen) = parse_manifest_name(name) {
            manifests.push(gen);
        } else if let Some((epoch, kind)) = parse_seg_name(name) {
            match kind {
                SegmentKind::Full => fulls.push(epoch),
                SegmentKind::Delta => deltas.push(epoch),
            }
        }
    }
    fulls.sort_unstable();
    deltas.sort_unstable();
    manifests.sort_unstable();

    // Latest decodable manifest wins; damaged newer generations are deleted.
    let mut manifest = Manifest::default();
    let mut manifest_gen = 0;
    let mut healed = false;
    for &gen in manifests.iter().rev() {
        let path = dir.join(manifest_file_name(gen));
        match std::fs::read(&path)
            .ok()
            .and_then(|b| decode_manifest(&b).ok())
        {
            Some(m) => {
                manifest = m;
                manifest_gen = gen;
                break;
            }
            None => {
                let _ = std::fs::remove_file(path);
                healed = true;
            }
        }
    }

    let decode_ok =
        |epoch: u64, kind: SegmentKind| -> Option<Segment> { read_segment(dir, epoch, kind).ok() };

    // Reconcile every manifest entry against the files actually present.
    let mut keep: Vec<ManifestEntry> = Vec::new();
    let mut truncated = false;
    for mut entry in manifest.entries.iter().copied() {
        if truncated {
            break;
        }
        let has_full = fulls.binary_search(&entry.epoch).is_ok();
        let has_delta = deltas.binary_search(&entry.epoch).is_ok();
        match entry.kind {
            SegmentKind::Full => {
                let size =
                    std::fs::metadata(dir.join(seg_file_name(entry.epoch, SegmentKind::Full)))
                        .map(|m| m.len())
                        .ok();
                let ok = match size {
                    Some(s) if s == entry.bytes => true,
                    _ => decode_ok(entry.epoch, SegmentKind::Full).is_some(),
                };
                if ok {
                    if has_delta {
                        // Compaction committed but crashed before deleting
                        // the replaced delta.
                        let _ = std::fs::remove_file(
                            dir.join(seg_file_name(entry.epoch, SegmentKind::Delta)),
                        );
                        healed = true;
                    }
                    keep.push(entry);
                } else {
                    truncated = true;
                }
            }
            SegmentKind::Delta => {
                // A stray full with valid content is a compaction that wrote
                // its keyframe but crashed before the manifest swap — adopt
                // it; the fold's work is already durable.
                if has_full {
                    if let Some(seg) = decode_ok(entry.epoch, SegmentKind::Full) {
                        entry.kind = SegmentKind::Full;
                        entry.bytes = encode_segment(&seg).len() as u64;
                        if has_delta {
                            let _ = std::fs::remove_file(
                                dir.join(seg_file_name(entry.epoch, SegmentKind::Delta)),
                            );
                        }
                        healed = true;
                        keep.push(entry);
                        continue;
                    }
                    let _ = std::fs::remove_file(
                        dir.join(seg_file_name(entry.epoch, SegmentKind::Full)),
                    );
                    healed = true;
                }
                let size =
                    std::fs::metadata(dir.join(seg_file_name(entry.epoch, SegmentKind::Delta)))
                        .map(|m| m.len())
                        .ok();
                let ok = match size {
                    Some(s) if s == entry.bytes => true,
                    _ => decode_ok(entry.epoch, SegmentKind::Delta).is_some(),
                };
                if ok {
                    keep.push(entry);
                } else {
                    truncated = true;
                }
            }
        }
    }
    if keep.len() != manifest.entries.len() {
        healed = true;
    }
    let mut last = keep.last().map_or(0, |e| e.epoch);

    // Adopt the tail: segment files past the manifest, contiguous, fully
    // checksum-verified. The first torn or missing link truncates the rest.
    loop {
        let epoch = if last == 0 {
            match (deltas.first(), fulls.first()) {
                (None, None) => break,
                // An empty manifest can only adopt a history that starts
                // with a keyframe.
                _ => *fulls.first().unwrap_or(&u64::MAX),
            }
        } else {
            last + 1
        };
        let kind = if deltas.binary_search(&epoch).is_ok() && last != 0 {
            SegmentKind::Delta
        } else if fulls.binary_search(&epoch).is_ok() {
            SegmentKind::Full
        } else {
            break;
        };
        let Some(seg) = decode_ok(epoch, kind) else {
            break;
        };
        keep.push(ManifestEntry {
            epoch,
            kind,
            ts: seg.ts,
            bytes: encode_segment(&seg).len() as u64,
        });
        healed = true;
        last = epoch;
    }

    // Every file the kept manifest does not name is an orphan: segments
    // past the torn tail, segments dropped by truncation, stale strays.
    let named =
        |epoch: u64, kind: SegmentKind| keep.iter().any(|e| e.epoch == epoch && e.kind == kind);
    for (&epoch, kind) in fulls
        .iter()
        .map(|e| (e, SegmentKind::Full))
        .chain(deltas.iter().map(|e| (e, SegmentKind::Delta)))
    {
        if !named(epoch, kind) && std::fs::remove_file(dir.join(seg_file_name(epoch, kind))).is_ok()
        {
            healed = true;
        }
    }

    Ok((Manifest { entries: keep }, manifest_gen, healed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_roundtrip() {
        assert_eq!(
            parse_seg_name(&seg_file_name(42, SegmentKind::Full)),
            Some((42, SegmentKind::Full))
        );
        assert_eq!(
            parse_seg_name(&seg_file_name(7, SegmentKind::Delta)),
            Some((7, SegmentKind::Delta))
        );
        assert_eq!(parse_manifest_name(&manifest_file_name(3)), Some(3));
        assert_eq!(parse_seg_name("seg-123.full.ipdseg"), None);
        assert_eq!(parse_seg_name("seg-00000000x1.full.ipdseg"), None);
        assert_eq!(parse_manifest_name("manifest-1.ipdman"), None);
        assert_eq!(parse_seg_name("manifest-0000000001.ipdman"), None);
    }

    #[test]
    fn keyframe_positions_follow_the_interval() {
        let cfg = HistConfig {
            keyframe_every: 8,
            ..HistConfig::default()
        };
        let positions: Vec<u64> = (1..=20).filter(|&e| is_keyframe_pos(e, &cfg)).collect();
        assert_eq!(positions, vec![1, 9, 17]);
        let every = HistConfig {
            keyframe_every: 1,
            ..HistConfig::default()
        };
        assert!((1..=5).all(|e| is_keyframe_pos(e, &every)));
    }
}
