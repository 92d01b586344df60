//! The negotiated binary result encoding: length-prefixed corner rows
//! for bulk sweep responses and the frame format of
//! `GET /v1/jobs/{id}/stream`.
//!
//! JSON stays the protocol's default; a client opts in per request with
//! `Accept: application/x-cnfet-rows`. Binary form is defined **only**
//! for sweep and repair results (the thousands-of-rows payloads worth
//! compacting); requesting it anywhere else answers `406`.
//!
//! # Row table (`application/x-cnfet-rows`)
//!
//! A buffered binary sweep response (`POST /v1/run`) is a *row table*:
//!
//! ```text
//! magic   4 bytes  "CNR1"
//! count   u32 LE   number of rows
//! row*    u32 LE   payload length, then the row payload
//! ```
//!
//! A buffered binary repair response is a *die table* with the same
//! shape under its own magic:
//!
//! ```text
//! magic   4 bytes  "CND1"
//! count   u32 LE   number of dies
//! die*    u32 LE   payload length, then the die payload
//! ```
//!
//! # Row payload
//!
//! Little-endian throughout; strings are `u32` length + UTF-8 bytes;
//! optional fields are a presence byte (`0`/`1`) followed by the value
//! when present. Fields appear in exactly the order of the JSON row
//! object, derived metrics included, so either encoding of a row carries
//! the same information:
//!
//! ```text
//! cell str · kind str · strength u8 · corner (tubes u32, pitch f64,
//! metallic f64, seed u64) · mc_tubes ?u64 · mc_failures ?u64 ·
//! immune ?u8 · metallic_yield ?f64 · delay_s ?f64 · energy_j ?f64 ·
//! yield ?f64 · liberty ?str · waveform ?str
//! ```
//!
//! # Die payload
//!
//! Same conventions; `assignment` is a `u32` count of per-cell entries,
//! each an optional `u32` site index:
//!
//! ```text
//! die u64 · sites u32 · defective_sites u32 · repaired u8 ·
//! solver str · spares_used u32 · assignment (count u32, ?u32*)
//! ```
//!
//! Floats are raw IEEE-754 bits, so binary responses inherit the
//! engine's byte-for-byte determinism contract directly.
//!
//! # Stream frames
//!
//! A `/stream` response is a sequence of frames, each
//! `[u8 tag][u32 LE length][payload]`:
//!
//! * [`FRAME_EVENT`] (`0x01`) — a JSON event object (`start`, `done`,
//!   `error`, `canceled`, and optimize-candidate `row` events, which
//!   have no dedicated binary payload), exactly the ndjson line of the
//!   JSON stream;
//! * [`FRAME_ROW`] (`0x02`) — one binary corner-row payload;
//! * [`FRAME_DIE`] (`0x03`) — one binary die payload.
//!
//! [`decode_row`] / [`decode_die`] reconstruct the *same* [`Json`]
//! object [`crate::wire`] renders, so a client can consume either
//! encoding through one code path — and a reassembled binary stream is
//! field-for-field identical to the buffered JSON report.

use crate::json::Json;
use crate::wire;
use cnfet::repair::DieOutcome;
use cnfet::sweep::{CornerRow, VariationCorner};

/// Magic prefix of a binary row table.
pub const ROW_TABLE_MAGIC: [u8; 4] = *b"CNR1";

/// Magic prefix of a binary die table.
pub const DIE_TABLE_MAGIC: [u8; 4] = *b"CND1";

/// Stream frame tag: JSON event payload.
pub const FRAME_EVENT: u8 = 0x01;

/// Stream frame tag: binary corner-row payload.
pub const FRAME_ROW: u8 = 0x02;

/// Stream frame tag: binary die payload.
pub const FRAME_DIE: u8 = 0x03;

/// The content type of binary row tables and binary stream frames.
pub const BINARY_CONTENT_TYPE: &str = "application/x-cnfet-rows";

/// The negotiated result format of one request.
///
/// [`Json`](Format::Json) is the protocol default (an absent or
/// wildcard `Accept` header selects it); [`Binary`](Format::Binary) is
/// the row-table/frame encoding of this module, selected with
/// `Accept: application/x-cnfet-rows`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// JSON bodies; `/stream` responses are ndjson event lines.
    Json,
    /// Length-prefixed binary rows; `/stream` responses are frames.
    Binary,
}

impl Format {
    /// The `Accept`/`Content-Type` media type naming this format.
    pub fn media_type(self) -> &'static str {
        match self {
            Format::Json => "application/json",
            Format::Binary => BINARY_CONTENT_TYPE,
        }
    }
}

/// Why a binary payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong, with the offending byte offset where useful.
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DecodeError {}

fn corrupt(message: impl Into<String>) -> DecodeError {
    DecodeError {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Encoding
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

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt<T>(buf: &mut Vec<u8>, value: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match value {
        Some(v) => {
            buf.push(1);
            put(buf, v);
        }
        None => buf.push(0),
    }
}

/// Encodes one row payload (no length prefix — the table and the frame
/// formats add their own).
pub fn encode_row(row: &CornerRow) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_str(&mut buf, &row.cell);
    put_str(&mut buf, &wire::kind_name(row.kind));
    buf.push(row.strength);
    put_u32(&mut buf, row.corner.tubes_per_4lambda);
    put_f64(&mut buf, row.corner.pitch_scale);
    put_f64(&mut buf, row.corner.metallic_fraction);
    put_u64(&mut buf, row.corner.seed);
    put_opt(&mut buf, row.mc_tubes, |b, v| put_u64(b, v as u64));
    put_opt(&mut buf, row.mc_failures, |b, v| put_u64(b, v as u64));
    put_opt(&mut buf, row.immune, |b, v| b.push(v as u8));
    put_opt(&mut buf, row.metallic_yield, put_f64);
    put_opt(&mut buf, row.delay_s(), put_f64);
    put_opt(&mut buf, row.energy_j(), put_f64);
    put_opt(&mut buf, row.yield_frac(), put_f64);
    put_opt(&mut buf, row.liberty.as_deref(), put_str);
    put_opt(&mut buf, row.waveform.as_deref(), put_str);
    buf
}

/// Encodes a whole sweep's rows as a row table.
pub fn encode_row_table(rows: &[CornerRow]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&ROW_TABLE_MAGIC);
    put_u32(&mut buf, rows.len() as u32);
    for row in rows {
        let payload = encode_row(row);
        put_u32(&mut buf, payload.len() as u32);
        buf.extend_from_slice(&payload);
    }
    buf
}

/// Encodes one die payload (no length prefix — the table and the frame
/// formats add their own).
pub fn encode_die(outcome: &DieOutcome) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    put_u64(&mut buf, outcome.die);
    put_u32(&mut buf, outcome.sites);
    put_u32(&mut buf, outcome.defective_sites);
    buf.push(outcome.repaired as u8);
    put_str(&mut buf, outcome.solver);
    put_u32(&mut buf, outcome.spares_used);
    put_u32(&mut buf, outcome.assignment.len() as u32);
    for &site in &outcome.assignment {
        put_opt(&mut buf, site, put_u32);
    }
    buf
}

/// Encodes a whole repair lot's die outcomes as a die table.
pub fn encode_die_table(dies: &[DieOutcome]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&DIE_TABLE_MAGIC);
    put_u32(&mut buf, dies.len() as u32);
    for outcome in dies {
        let payload = encode_die(outcome);
        put_u32(&mut buf, payload.len() as u32);
        buf.extend_from_slice(&payload);
    }
    buf
}

/// Wraps a payload as one stream frame.
pub fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(5 + payload.len());
    buf.push(tag);
    put_u32(&mut buf, payload.len() as u32);
    buf.extend_from_slice(payload);
    buf
}

/// Wraps a JSON stream event as one [`FRAME_EVENT`] frame.
pub(crate) fn event_frame(event: &Json) -> Vec<u8> {
    frame(FRAME_EVENT, event.render().as_bytes())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| corrupt(format!("truncated at byte {}", self.at)))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| corrupt("non-UTF-8 string"))
    }

    fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            b => Err(corrupt(format!("invalid presence byte {b}"))),
        }
    }
}

/// Decodes one row payload into the same [`Json`] object the JSON
/// encoding renders for that row.
pub fn decode_row(bytes: &[u8]) -> Result<Json, DecodeError> {
    let mut r = Reader { bytes, at: 0 };
    let cell = r.string()?;
    let kind = r.string()?;
    let strength = r.u8()?;
    let corner = VariationCorner {
        tubes_per_4lambda: r.u32()?,
        pitch_scale: r.f64()?,
        metallic_fraction: r.f64()?,
        seed: r.u64()?,
    };
    let row = Json::obj([
        ("cell", Json::str(cell)),
        ("kind", Json::str(kind)),
        ("strength", Json::from(u64::from(strength))),
        ("corner", wire::render_corner(&corner)),
        ("mc_tubes", Json::from(r.opt(Reader::u64)?)),
        ("mc_failures", Json::from(r.opt(Reader::u64)?)),
        (
            "immune",
            Json::from(r.opt(|r| match r.u8()? {
                0 => Ok(false),
                1 => Ok(true),
                b => Err(corrupt(format!("invalid bool byte {b}"))),
            })?),
        ),
        ("metallic_yield", Json::from(r.opt(Reader::f64)?)),
        ("delay_s", Json::from(r.opt(Reader::f64)?)),
        ("energy_j", Json::from(r.opt(Reader::f64)?)),
        ("yield", Json::from(r.opt(Reader::f64)?)),
        ("liberty", Json::from(r.opt(Reader::string)?)),
        ("waveform", Json::from(r.opt(Reader::string)?)),
    ]);
    if r.at != bytes.len() {
        return Err(corrupt(format!(
            "{} trailing bytes in row",
            bytes.len() - r.at
        )));
    }
    Ok(row)
}

/// Decodes a row table into the JSON row objects it encodes.
pub fn decode_row_table(bytes: &[u8]) -> Result<Vec<Json>, DecodeError> {
    let mut r = Reader { bytes, at: 0 };
    if r.take(4)? != ROW_TABLE_MAGIC {
        return Err(corrupt("bad row table magic"));
    }
    let count = r.u32()? as usize;
    let mut rows = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let len = r.u32()? as usize;
        rows.push(decode_row(r.take(len)?)?);
    }
    if r.at != bytes.len() {
        return Err(corrupt("trailing bytes after row table"));
    }
    Ok(rows)
}

/// Decodes one die payload into the same [`Json`] object the JSON
/// encoding renders for that die.
pub fn decode_die(bytes: &[u8]) -> Result<Json, DecodeError> {
    let mut r = Reader { bytes, at: 0 };
    let die = r.u64()?;
    let sites = r.u32()?;
    let defective_sites = r.u32()?;
    let repaired = match r.u8()? {
        0 => false,
        1 => true,
        b => return Err(corrupt(format!("invalid bool byte {b}"))),
    };
    let solver = r.string()?;
    let spares_used = r.u32()?;
    let count = r.u32()? as usize;
    let mut assignment = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        assignment.push(Json::from(r.opt(Reader::u32)?.map(u64::from)));
    }
    let row = Json::obj([
        ("die", Json::from(die)),
        ("sites", Json::from(u64::from(sites))),
        ("defective_sites", Json::from(u64::from(defective_sites))),
        ("repaired", Json::from(repaired)),
        ("solver", Json::str(solver)),
        ("spares_used", Json::from(u64::from(spares_used))),
        ("assignment", Json::Arr(assignment)),
    ]);
    if r.at != bytes.len() {
        return Err(corrupt(format!(
            "{} trailing bytes in die",
            bytes.len() - r.at
        )));
    }
    Ok(row)
}

/// Decodes a die table into the JSON die objects it encodes.
pub fn decode_die_table(bytes: &[u8]) -> Result<Vec<Json>, DecodeError> {
    let mut r = Reader { bytes, at: 0 };
    if r.take(4)? != DIE_TABLE_MAGIC {
        return Err(corrupt("bad die table magic"));
    }
    let count = r.u32()? as usize;
    let mut dies = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let len = r.u32()? as usize;
        dies.push(decode_die(r.take(len)?)?);
    }
    if r.at != bytes.len() {
        return Err(corrupt("trailing bytes after die table"));
    }
    Ok(dies)
}

/// Splits one complete frame off the front of `buf`, returning
/// `(tag, payload, bytes_consumed)`; `None` while the frame is still
/// arriving. Malformed tags surface on decode of the payload, not here —
/// the framing itself is only lengths.
pub fn read_frame(buf: &[u8]) -> Option<(u8, &[u8], usize)> {
    if buf.len() < 5 {
        return None;
    }
    let len = u32::from_le_bytes(buf[1..5].try_into().unwrap()) as usize;
    let end = 5usize.checked_add(len)?;
    if buf.len() < end {
        return None;
    }
    Some((buf[0], &buf[5..end], end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnfet::core::StdCellKind;
    use cnfet::dk::TimingTable;

    fn row(seed: u64) -> CornerRow {
        CornerRow {
            cell: "AOI22_X1".into(),
            kind: StdCellKind::Aoi22,
            strength: 1,
            corner: VariationCorner {
                tubes_per_4lambda: 10,
                pitch_scale: 1.3,
                metallic_fraction: 0.02,
                seed,
            },
            mc_tubes: Some(200),
            mc_failures: Some(7),
            immune: Some(true),
            metallic_yield: Some(0.93),
            timing: Some(TimingTable {
                loads_f: vec![1e-15],
                delays_s: vec![2.5e-12],
                energy_j: 3e-16,
            }),
            liberty: None,
            waveform: Some("0 0.0\n1e-12 0.4\n".into()),
        }
    }

    #[test]
    fn binary_row_decodes_to_the_json_rendering() {
        for seed in [0, 7, u64::from(u32::MAX)] {
            let row = row(seed);
            let decoded = decode_row(&encode_row(&row)).expect("row decodes");
            assert_eq!(decoded.render(), wire::render_row(&row).render());
        }
    }

    #[test]
    fn row_tables_round_trip_and_refuse_garbage() {
        let rows = vec![row(1), row(2), row(3)];
        let table = encode_row_table(&rows);
        let decoded = decode_row_table(&table).expect("table decodes");
        assert_eq!(decoded.len(), 3);
        for (json, row) in decoded.iter().zip(&rows) {
            assert_eq!(json.render(), wire::render_row(row).render());
        }
        assert!(decode_row_table(&table[..table.len() - 1]).is_err());
        assert!(decode_row_table(b"NOPE").is_err());
        let mut trailing = table.clone();
        trailing.push(0);
        assert!(decode_row_table(&trailing).is_err());
    }

    fn die(index: u64, repaired: bool) -> DieOutcome {
        DieOutcome {
            die: index,
            sites: 4,
            defective_sites: 1,
            repaired,
            solver: if repaired { "matching" } else { "sat" },
            spares_used: u32::from(repaired),
            assignment: if repaired {
                vec![Some(0), Some(2), Some(3)]
            } else {
                vec![None, None, None]
            },
        }
    }

    #[test]
    fn binary_die_decodes_to_the_json_rendering() {
        for (index, repaired) in [(0, true), (7, false), (u64::MAX, true)] {
            let outcome = die(index, repaired);
            let decoded = decode_die(&encode_die(&outcome)).expect("die decodes");
            assert_eq!(decoded.render(), wire::render_die_row(&outcome).render());
        }
    }

    #[test]
    fn die_tables_round_trip_and_refuse_garbage() {
        let dies = vec![die(0, true), die(1, false), die(2, true)];
        let table = encode_die_table(&dies);
        let decoded = decode_die_table(&table).expect("table decodes");
        assert_eq!(decoded.len(), 3);
        for (json, outcome) in decoded.iter().zip(&dies) {
            assert_eq!(json.render(), wire::render_die_row(outcome).render());
        }
        assert!(decode_die_table(&table[..table.len() - 1]).is_err());
        assert!(decode_die_table(b"NOPE").is_err());
        // A row table is not a die table, and vice versa.
        assert!(decode_die_table(&encode_row_table(&[row(1)])).is_err());
        assert!(decode_row_table(&table).is_err());
    }

    #[test]
    fn frames_reassemble_across_arbitrary_splits() {
        let event = br#"{"event":"start","total":3}"#;
        let payload = encode_row(&row(9));
        let mut wire_bytes = frame(FRAME_EVENT, event);
        wire_bytes.extend_from_slice(&frame(FRAME_ROW, &payload));

        // Feed the stream one byte at a time through a reassembly buffer.
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        for &b in &wire_bytes {
            buf.push(b);
            while let Some((tag, body, consumed)) = read_frame(&buf) {
                frames.push((tag, body.to_vec()));
                buf.drain(..consumed);
            }
        }
        assert!(buf.is_empty());
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], (FRAME_EVENT, event.to_vec()));
        assert_eq!(frames[1].0, FRAME_ROW);
        assert_eq!(
            decode_row(&frames[1].1).unwrap().render(),
            wire::render_row(&row(9)).render()
        );
    }
}
