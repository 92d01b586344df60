//! Versioned cache snapshots: warm-restart persistence for the
//! session's sweep tier.
//!
//! A long-lived engine accumulates its value in the
//! [`RequestClass::Sweeps`](crate::RequestClass) cache — whole
//! [`SweepReport`]s and the per-corner [`CornerRow`]s they fan out are
//! the expensive composite results a restart would otherwise stampede
//! the engine to rebuild. This module serializes exactly that cache to
//! a single versioned file ([`save`]) and seeds it back on boot
//! ([`load`]), so a restarted server answers the same sweeps as pure
//! cache hits. The other classes (cells, libraries, immunity, flows)
//! rebuild cold: their values embed full layout geometry and are cheap
//! relative to a sweep's MC + transient work.
//!
//! # Format
//!
//! A flat little-endian binary stream:
//!
//! ```text
//! magic   8 bytes  "CNFSWEEP"
//! version u32      2
//! count   u32      number of entries
//! entry*  key      u32 length + the cache key's canonical bytes, verbatim;
//!                  their first byte is the key's kind: a whole sweep or
//!                  one sweep corner
//!         value    SweepReport (sweep key) / CornerRow (corner key),
//!                  field by field
//! ```
//!
//! Floats are serialized as raw IEEE-754 bits, so a round trip is
//! byte-exact and the determinism contract (byte-identical rendered
//! reports) survives a restart. There is no partial recovery: any
//! truncation, bad magic, or version mismatch fails the whole [`load`]
//! with a [`SnapshotError`] and seeds **nothing** — a corrupt snapshot
//! degrades to a cold boot, never to a half-warm cache or a crash.
//!
//! Cache keys are stored as the same canonical bytes the session keys
//! the `Sweeps` class by (see [`CacheKey`]), so key hashing — which is
//! process-specific ([`std::collections::hash_map::DefaultHasher`] is
//! not stable across processes) — is simply recomputed on seed.

use crate::core::StdCellKind;
use crate::dk::TimingTable;
use crate::request::{CacheKey, KeyKind, RequestClass};
use crate::session::{CachedValue, Session};
use crate::sweep::{CornerRow, CornerSummary, SweepReport, VariationCorner};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"CNFSWEEP";

/// Current snapshot version: the file layout or engine numerics. Bump it
/// when either changes (a file or key layout, or what a request
/// computes), so old files fail [`load`] with [`SnapshotError::Version`]
/// and the server boots cold instead of serving rows the engine no
/// longer computes. A unit test pins it to the golden outputs' digest.
pub const VERSION: u32 = 2;

/// Why a snapshot failed to load. Loading is all-or-nothing: any error
/// leaves the session untouched (cold).
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file is not a snapshot (bad magic), or is truncated or
    /// structurally invalid.
    Corrupt(String),
    /// The file is a snapshot of an incompatible format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build reads ([`VERSION`]).
        expected: u32,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot read failed: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapshotError::Version { found, expected } => {
                write!(f, "snapshot version {found} (this build reads {expected})")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Save / load
// ---------------------------------------------------------------------------

/// Serializes every snapshot save in the process. The staging file is
/// the *fixed* sibling `<path>.tmp`: without this guard, two concurrent
/// saves — a periodic flusher racing a shutdown snapshot, or two
/// embedder threads — interleave their writes on that one temp file and
/// then rename torn bytes into place, which the next boot rejects as
/// corrupt. The guard also gives [`save_if`] its atomicity: the permit
/// closure is evaluated under the same lock the write happens under, so
/// a "shutdown has not begun" check cannot go stale between the check
/// and the rename.
static SAVE_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the session's `Sweeps` cache to `path`, atomically: the
/// bytes land in a sibling `<path>.tmp` first and are renamed into
/// place, so a crash mid-write can never leave a truncated file where
/// the next boot expects a snapshot. Saves are serialized process-wide
/// (see [`save_if`]), so concurrent callers cannot corrupt each other's
/// staging file. Returns the number of entries written.
pub fn save(session: &Session, path: &Path) -> std::io::Result<usize> {
    save_if(session, path, || true)
        .map(|written| written.expect("an unconditional save is always permitted"))
}

/// [`save`], gated by a `permit` evaluated **under the process-wide save
/// lock**: when the permit returns `false`, nothing is written and
/// `Ok(None)` comes back. This is the seam a periodic flusher uses to
/// lose gracefully to a shutdown snapshot — with the permit checking
/// "shutdown has not begun" under the same guard the shutdown save will
/// take, a late flush is either fully renamed before the shutdown save
/// starts, or skipped entirely; it can never overwrite the final
/// snapshot or tear its staging file.
pub fn save_if(
    session: &Session,
    path: &Path,
    permit: impl FnOnce() -> bool,
) -> std::io::Result<Option<usize>> {
    // A poisoned guard only means some earlier save panicked mid-stage;
    // the target file is still intact (rename is last), so keep saving.
    let _guard = SAVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !permit() {
        return Ok(None);
    }
    let entries = session.class_cache(RequestClass::Sweeps).export();
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    put_u32(&mut buf, VERSION);
    // Count patched in after the walk: type-erased entries that fail the
    // class downcast (none in practice) are skipped, not miscounted.
    let count_at = buf.len();
    put_u32(&mut buf, 0);
    let mut count = 0u32;
    for (key, value) in &entries {
        match key.kind() {
            KeyKind::Sweep => {
                let Some(report) = value.downcast_ref::<Arc<SweepReport>>() else {
                    continue;
                };
                put_bytes(&mut buf, key.bytes());
                put_report(&mut buf, report);
            }
            KeyKind::SweepCorner => {
                let Some(row) = value.downcast_ref::<CornerRow>() else {
                    continue;
                };
                put_bytes(&mut buf, key.bytes());
                put_row(&mut buf, row);
            }
            _ => continue,
        }
        count += 1;
    }
    buf[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());

    let tmp = tmp_path(path);
    std::fs::write(&tmp, &buf)?;
    std::fs::rename(&tmp, path)?;
    Ok(Some(count as usize))
}

/// Seeds the session's `Sweeps` cache from a snapshot at `path`,
/// returning the number of entries restored. The whole file is parsed
/// before anything is seeded, so an error means the session is exactly
/// as cold as before the call.
pub fn load(session: &Session, path: &Path) -> Result<usize, SnapshotError> {
    let bytes = std::fs::read(path)?;
    let mut r = Reader::new(&bytes);
    if r.take(8)? != MAGIC {
        return Err(SnapshotError::Corrupt("bad magic".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapshotError::Version {
            found: version,
            expected: VERSION,
        });
    }
    let count = r.u32()? as usize;
    // The count is read from the file, so it reserves nothing: a bogus
    // one must fail as truncated, not as an allocation.
    let mut seeds: Vec<(CacheKey, CachedValue)> = Vec::new();
    for _ in 0..count {
        let bytes = r.bytes()?.to_vec();
        let kind = [KeyKind::Sweep, KeyKind::SweepCorner]
            .into_iter()
            .find(|&kind| bytes.first() == Some(&(kind as u8)))
            .ok_or_else(|| SnapshotError::Corrupt("entry key of no sweep kind".into()))?;
        let value = match kind {
            // Wrapped exactly as `Session::run` caches a
            // `SweepRequest::Output = Arc<SweepReport>`.
            KeyKind::Sweep => Arc::new(Arc::new(get_report(&mut r)?)) as CachedValue,
            _ => Arc::new(get_row(&mut r)?) as CachedValue,
        };
        seeds.push((CacheKey::new(kind, bytes), value));
    }
    if !r.at_end() {
        return Err(SnapshotError::Corrupt("trailing bytes".into()));
    }
    let cache = session.class_cache(RequestClass::Sweeps);
    let restored = seeds.len();
    for (key, value) in seeds {
        cache.seed(key, value);
    }
    Ok(restored)
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

fn put_opt(buf: &mut Vec<u8>, present: bool) -> bool {
    buf.push(present as u8);
    present
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_u32(buf, vs.len() as u32);
    for &v in vs {
        put_f64(buf, v);
    }
}

fn put_kind(buf: &mut Vec<u8>, kind: StdCellKind) {
    let (tag, arg) = match kind {
        StdCellKind::Inv => (0u8, 0u8),
        StdCellKind::Nand(n) => (1, n),
        StdCellKind::Nor(n) => (2, n),
        StdCellKind::Aoi21 => (3, 0),
        StdCellKind::Aoi22 => (4, 0),
        StdCellKind::Aoi31 => (5, 0),
        StdCellKind::Oai21 => (6, 0),
        StdCellKind::Oai22 => (7, 0),
    };
    buf.push(tag);
    buf.push(arg);
}

fn put_corner(buf: &mut Vec<u8>, c: &VariationCorner) {
    put_u32(buf, c.tubes_per_4lambda);
    put_f64(buf, c.pitch_scale);
    put_f64(buf, c.metallic_fraction);
    put_u64(buf, c.seed);
}

fn put_row(buf: &mut Vec<u8>, row: &CornerRow) {
    put_str(buf, &row.cell);
    put_kind(buf, row.kind);
    buf.push(row.strength);
    put_corner(buf, &row.corner);
    if put_opt(buf, row.mc_tubes.is_some()) {
        put_u64(buf, row.mc_tubes.unwrap() as u64);
    }
    if put_opt(buf, row.mc_failures.is_some()) {
        put_u64(buf, row.mc_failures.unwrap() as u64);
    }
    if put_opt(buf, row.immune.is_some()) {
        buf.push(row.immune.unwrap() as u8);
    }
    if put_opt(buf, row.metallic_yield.is_some()) {
        put_f64(buf, row.metallic_yield.unwrap());
    }
    if put_opt(buf, row.timing.is_some()) {
        let t = row.timing.as_ref().unwrap();
        put_f64s(buf, &t.loads_f);
        put_f64s(buf, &t.delays_s);
        put_f64(buf, t.energy_j);
    }
    if put_opt(buf, row.liberty.is_some()) {
        put_str(buf, row.liberty.as_ref().unwrap());
    }
    if put_opt(buf, row.waveform.is_some()) {
        put_str(buf, row.waveform.as_ref().unwrap());
    }
}

fn put_summary(buf: &mut Vec<u8>, s: &CornerSummary) {
    put_u64(buf, s.corner_index as u64);
    put_corner(buf, &s.corner);
    for v in [s.min_yield, s.max_delay_s, s.total_energy_j] {
        if put_opt(buf, v.is_some()) {
            put_f64(buf, v.unwrap());
        }
    }
}

fn put_report(buf: &mut Vec<u8>, report: &SweepReport) {
    put_u64(buf, report.cells as u64);
    put_u32(buf, report.corners.len() as u32);
    for c in &report.corners {
        put_corner(buf, c);
    }
    put_u32(buf, report.rows.len() as u32);
    for row in &report.rows {
        put_row(buf, row);
    }
    put_u32(buf, report.pareto.len() as u32);
    for &i in &report.pareto {
        put_u64(buf, i as u64);
    }
    for summary in [&report.best_corner, &report.worst_corner] {
        if put_opt(buf, summary.is_some()) {
            put_summary(buf, summary.as_ref().unwrap());
        }
    }
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| SnapshotError::Corrupt(format!("truncated at byte {}", self.at)))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn at_end(&self) -> bool {
        self.at == self.bytes.len()
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("invalid bool byte {b}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }

    fn f64s(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let len = self.u32()? as usize;
        (0..len).map(|_| self.f64()).collect()
    }

    fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        if self.bool()? {
            read(self).map(Some)
        } else {
            Ok(None)
        }
    }
}

fn get_kind(r: &mut Reader) -> Result<StdCellKind, SnapshotError> {
    let tag = r.u8()?;
    let arg = r.u8()?;
    Ok(match tag {
        0 => StdCellKind::Inv,
        1 => StdCellKind::Nand(arg),
        2 => StdCellKind::Nor(arg),
        3 => StdCellKind::Aoi21,
        4 => StdCellKind::Aoi22,
        5 => StdCellKind::Aoi31,
        6 => StdCellKind::Oai21,
        7 => StdCellKind::Oai22,
        _ => return Err(SnapshotError::Corrupt(format!("unknown cell kind {tag}"))),
    })
}

fn get_corner(r: &mut Reader) -> Result<VariationCorner, SnapshotError> {
    Ok(VariationCorner {
        tubes_per_4lambda: r.u32()?,
        pitch_scale: r.f64()?,
        metallic_fraction: r.f64()?,
        seed: r.u64()?,
    })
}

fn get_row(r: &mut Reader) -> Result<CornerRow, SnapshotError> {
    Ok(CornerRow {
        cell: r.string()?,
        kind: get_kind(r)?,
        strength: r.u8()?,
        corner: get_corner(r)?,
        mc_tubes: r.opt(|r| r.u64().map(|v| v as usize))?,
        mc_failures: r.opt(|r| r.u64().map(|v| v as usize))?,
        immune: r.opt(Reader::bool)?,
        metallic_yield: r.opt(Reader::f64)?,
        timing: r.opt(|r| {
            let (loads_f, delays_s) = (r.f64s()?, r.f64s()?);
            if loads_f.len() != delays_s.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "{} delays for {} loads",
                    delays_s.len(),
                    loads_f.len()
                )));
            }
            Ok(TimingTable {
                loads_f,
                delays_s,
                energy_j: r.f64()?,
            })
        })?,
        liberty: r.opt(Reader::string)?,
        waveform: r.opt(Reader::string)?,
    })
}

fn get_summary(r: &mut Reader) -> Result<CornerSummary, SnapshotError> {
    Ok(CornerSummary {
        corner_index: r.u64()? as usize,
        corner: get_corner(r)?,
        min_yield: r.opt(Reader::f64)?,
        max_delay_s: r.opt(Reader::f64)?,
        total_energy_j: r.opt(Reader::f64)?,
    })
}

fn get_report(r: &mut Reader) -> Result<SweepReport, SnapshotError> {
    let cells = r.u64()? as usize;
    let corner_count = r.u32()? as usize;
    let corners = (0..corner_count)
        .map(|_| get_corner(r))
        .collect::<Result<Vec<_>, _>>()?;
    let row_count = r.u32()? as usize;
    let rows = (0..row_count)
        .map(|_| get_row(r))
        .collect::<Result<Vec<_>, _>>()?;
    let pareto_count = r.u32()? as usize;
    let pareto = (0..pareto_count)
        .map(|_| r.u64().map(|v| v as usize))
        .collect::<Result<Vec<_>, _>>()?;
    let report = SweepReport {
        cells,
        corners,
        rows,
        pareto,
        best_corner: r.opt(get_summary)?,
        worst_corner: r.opt(get_summary)?,
    };
    check_report(&report)?;
    Ok(report)
}

/// Rejects a report whose indices disagree with its own shape, which
/// [`SweepReport::row`] and every reader of `pareto` and the corner
/// summaries would otherwise index past.
fn check_report(report: &SweepReport) -> Result<(), SnapshotError> {
    let corrupt = |why: String| Err(SnapshotError::Corrupt(why));
    let (rows, corners) = (report.rows.len(), report.corners.len());
    if report.cells.checked_mul(corners) != Some(rows) {
        return corrupt(format!(
            "{rows} rows for {} cells × {corners} corners",
            report.cells
        ));
    }
    if let Some(&at) = report.pareto.iter().find(|&&at| at >= rows) {
        return corrupt(format!("pareto index {at} past {rows} rows"));
    }
    let summaries = [&report.best_corner, &report.worst_corner];
    if let Some(at) = summaries
        .into_iter()
        .flatten()
        .map(|summary| summary.corner_index)
        .find(|&at| at >= corners)
    {
        return corrupt(format!("corner index {at} past {corners} corners"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row(seed: u64) -> CornerRow {
        CornerRow {
            cell: "NAND2_X1".into(),
            kind: StdCellKind::Nand(2),
            strength: 1,
            corner: VariationCorner {
                tubes_per_4lambda: 26,
                pitch_scale: 1.25,
                metallic_fraction: 0.02,
                seed,
            },
            mc_tubes: Some(400),
            mc_failures: Some(3),
            immune: Some(false),
            metallic_yield: Some(0.875),
            timing: Some(TimingTable {
                loads_f: vec![1e-15, 4e-15],
                delays_s: vec![1.5e-12, 3.25e-12],
                energy_j: 2.5e-16,
            }),
            liberty: Some("cell (NAND2_X1) { }".into()),
            waveform: None,
        }
    }

    fn sample_report() -> SweepReport {
        let rows = vec![sample_row(1), sample_row(2)];
        let corners = vec![rows[0].corner, rows[1].corner];
        SweepReport {
            cells: 1,
            corners,
            rows,
            pareto: vec![0],
            best_corner: Some(CornerSummary {
                corner_index: 0,
                corner: VariationCorner::nominal(),
                min_yield: Some(0.99),
                max_delay_s: Some(1.5e-12),
                total_energy_j: None,
            }),
            worst_corner: None,
        }
    }

    #[test]
    fn row_and_report_round_trip_exactly() {
        let mut buf = Vec::new();
        put_row(&mut buf, &sample_row(7));
        let mut r = Reader::new(&buf);
        let row = get_row(&mut r).expect("row decodes");
        assert!(r.at_end());
        assert_eq!(format!("{row:?}"), format!("{:?}", sample_row(7)));

        let mut buf = Vec::new();
        put_report(&mut buf, &sample_report());
        let mut r = Reader::new(&buf);
        let report = get_report(&mut r).expect("report decodes");
        assert!(r.at_end());
        assert_eq!(format!("{report:?}"), format!("{:?}", sample_report()));
    }

    #[test]
    fn truncation_and_garbage_fail_without_panicking() {
        let mut buf = Vec::new();
        put_report(&mut buf, &sample_report());
        for cut in [0, 1, buf.len() / 2, buf.len() - 1] {
            let mut r = Reader::new(&buf[..cut]);
            assert!(get_report(&mut r).is_err(), "cut at {cut} must error");
        }
        let mut r = Reader::new(&[0xFF; 64]);
        assert!(get_row(&mut r).is_err());
    }

    /// A snapshot file's header claiming `count` entries.
    fn header(count: u32) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        put_u32(&mut buf, VERSION);
        put_u32(&mut buf, count);
        buf
    }

    /// Writes `report` as a one-entry snapshot and checks it is rejected.
    fn assert_report_rejected(report: &SweepReport, name: &str) {
        let mut buf = header(1);
        put_bytes(&mut buf, &[KeyKind::Sweep as u8]);
        put_report(&mut buf, report);
        assert_rejected(&buf, name);
    }

    /// Loads `bytes` into a fresh session: the load must fail as
    /// corrupt and seed nothing.
    fn assert_rejected(bytes: &[u8], name: &str) {
        let path =
            std::env::temp_dir().join(format!("cnfet-snap-{name}-{}.snap", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let session = Session::new();
        let loaded = session.load_snapshot(&path);
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(loaded, Err(SnapshotError::Corrupt(_))),
            "{name}: {loaded:?}"
        );
        let seeded = session.class_cache(RequestClass::Sweeps).export();
        assert!(seeded.is_empty(), "{name}: nothing is seeded");
    }

    #[test]
    fn a_version_one_file_fails_and_leaves_the_session_cold() {
        // Version 1 tagged each entry and keyed it by a `Debug` string.
        let mut buf = MAGIC.to_vec();
        put_u32(&mut buf, 1);
        put_u32(&mut buf, 1);
        buf.push(0);
        put_str(&mut buf, "[Catalog { kind: Inv, .. }]|VariationGrid { .. }");
        put_report(&mut buf, &sample_report());
        let path = std::env::temp_dir().join(format!("cnfet-snap-v1-{}.snap", std::process::id()));
        std::fs::write(&path, &buf).unwrap();
        let session = Session::new();
        let loaded = session.load_snapshot(&path);
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(
                loaded,
                Err(SnapshotError::Version {
                    found: 1,
                    expected: VERSION
                })
            ),
            "{loaded:?}"
        );
        assert_eq!(session.cache_stats(RequestClass::Sweeps).entries, 0);
    }

    /// The golden outputs, which pin the engine's numerics.
    const GOLDENS: [(&str, &[u8]); 7] = [
        (
            "adder_cla8.gds",
            include_bytes!("../tests/golden/adder_cla8.gds"),
        ),
        (
            "adder_cla8.sp",
            include_bytes!("../tests/golden/adder_cla8.sp"),
        ),
        (
            "die_repair.txt",
            include_bytes!("../tests/golden/die_repair.txt"),
        ),
        ("inverter.sp", include_bytes!("../tests/golden/inverter.sp")),
        (
            "inverter.tran",
            include_bytes!("../tests/golden/inverter.tran"),
        ),
        (
            "library_scheme1.lib",
            include_bytes!("../tests/golden/library_scheme1.lib"),
        ),
        (
            "library_scheme2.lef",
            include_bytes!("../tests/golden/library_scheme2.lef"),
        ),
    ];

    /// FNV-1a over every golden's name and bytes, in order.
    fn golden_digest() -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for (name, bytes) in GOLDENS {
            for &byte in name.as_bytes().iter().chain(bytes) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// A snapshot holds rows the engine computed: when the goldens move,
    /// so may the rows, and an old file must then boot cold.
    #[test]
    fn the_version_is_pinned_to_the_golden_outputs() {
        assert_eq!(
            (VERSION, golden_digest()),
            (2, 0x00e3_eba2_e3e1_2a57),
            "goldens changed: bump `snapshot::VERSION` and re-record"
        );
    }

    #[test]
    fn an_entry_count_past_the_file_is_corrupt() {
        assert_rejected(&header(u32::MAX), "count");
    }

    #[test]
    fn rows_that_do_not_fill_the_grid_are_corrupt() {
        let mut report = sample_report();
        report.rows.pop();
        report.pareto.clear();
        assert_report_rejected(&report, "short-rows");
        let mut report = sample_report();
        report.cells = 2;
        assert_report_rejected(&report, "extra-cell");
    }

    #[test]
    fn timing_tables_with_unpaired_loads_are_corrupt() {
        // `TimingTable::delay_at` indexes the delays by load.
        let mut report = sample_report();
        report.rows[1].timing.as_mut().unwrap().delays_s.pop();
        assert_report_rejected(&report, "timing");
    }

    #[test]
    fn pareto_indices_past_the_rows_are_corrupt() {
        let mut report = sample_report();
        report.pareto.push(report.rows.len());
        assert_report_rejected(&report, "pareto");
    }

    #[test]
    fn summary_corner_indices_past_the_corners_are_corrupt() {
        let mut report = sample_report();
        report.best_corner.as_mut().unwrap().corner_index = report.corners.len();
        assert_report_rejected(&report, "best-corner");
        let mut report = sample_report();
        report.worst_corner = report.best_corner.clone();
        report.worst_corner.as_mut().unwrap().corner_index = usize::MAX;
        assert_report_rejected(&report, "worst-corner");
    }

    #[test]
    fn session_save_load_replays_as_pure_hits() {
        use crate::immunity::McOptions;
        use crate::sweep::{SweepMetrics, SweepRequest, VariationGrid};

        let request = SweepRequest::new([StdCellKind::Inv])
            .grid(VariationGrid::nominal().seeds([1, 2]))
            .metrics(SweepMetrics::IMMUNITY)
            .mc(McOptions {
                tubes: 50,
                ..McOptions::default()
            });
        let session = Session::new();
        let report = session.run(&request).expect("sweep runs");

        let dir = std::env::temp_dir().join(format!(
            "cnfet-snap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.snap");
        // 1 whole report + 2 corner rows.
        assert_eq!(session.save_snapshot(&path).expect("saves"), 3);

        let warm = Session::new();
        assert_eq!(warm.load_snapshot(&path).expect("loads"), 3);
        let misses_before = warm.stats().sweeps.misses;
        let replay = warm.run(&request).expect("replay");
        let stats = warm.stats();
        assert_eq!(stats.sweeps.misses, misses_before, "no new execution");
        assert!(stats.sweeps.hits >= 1, "replay hit the seeded report");
        assert_eq!(format!("{replay:?}"), format!("{report:?}"));

        // Corrupt and version-mismatched files fail cleanly and seed
        // nothing.
        let bytes = std::fs::read(&path).unwrap();
        let corrupt = dir.join("corrupt.snap");
        std::fs::write(&corrupt, &bytes[..bytes.len() / 2]).unwrap();
        let cold = Session::new();
        assert!(matches!(
            cold.load_snapshot(&corrupt),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut versioned = bytes.clone();
        versioned[8..12].copy_from_slice(&99u32.to_le_bytes());
        let mismatched = dir.join("versioned.snap");
        std::fs::write(&mismatched, &versioned).unwrap();
        assert!(matches!(
            cold.load_snapshot(&mismatched),
            Err(SnapshotError::Version {
                found: 99,
                expected: VERSION
            })
        ));
        assert_eq!(cold.cache_stats(RequestClass::Sweeps).entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_never_tear_the_staging_file() {
        use crate::immunity::McOptions;
        use crate::sweep::{SweepMetrics, SweepRequest, VariationGrid};

        let request = SweepRequest::new([StdCellKind::Inv])
            .grid(VariationGrid::nominal().seeds([1, 2]))
            .metrics(SweepMetrics::IMMUNITY)
            .mc(McOptions {
                tubes: 50,
                ..McOptions::default()
            });
        let session = Session::new();
        session.run(&request).expect("sweep runs");

        let dir = std::env::temp_dir().join(format!(
            "cnfet-snap-race-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.snap");

        // Before the save lock, these interleaved writes to the shared
        // `<path>.tmp` could rename torn bytes into place; now every
        // save stages and renames alone, so the survivor always loads.
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..4 {
                        assert_eq!(session.save_snapshot(&path).expect("saves"), 3);
                    }
                });
            }
        });
        let warm = Session::new();
        assert_eq!(warm.load_snapshot(&path).expect("survivor loads"), 3);
    }

    #[test]
    fn save_if_denied_permit_writes_nothing() {
        let session = Session::new();
        let dir = std::env::temp_dir().join(format!(
            "cnfet-snap-permit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.snap");
        assert_eq!(save_if(&session, &path, || false).expect("skips"), None);
        assert!(!path.exists(), "a denied save leaves no file behind");
        assert_eq!(save_if(&session, &path, || true).expect("saves"), Some(0));
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
