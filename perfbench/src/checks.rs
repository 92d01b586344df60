//! Output checks: digests of engine outputs, sanity rules for fresh
//! outputs, and the reference set every workload verifies during set-up
//! (exact for discrete outputs, within 1% for analog ones, plus the
//! repository's committed golden files, read-only).

use cnfet::core::{GenerateOptions, Scheme, StdCellKind};
use cnfet::immunity::McOptions;
use cnfet::logic::AdderKind;
use cnfet::repair::DefectParams;
use cnfet::{
    CellRequest, ImmunityRequest, LibraryRequest, MacroRequest, RepairRequest, RequestKind,
    ResponseKind, Session, SweepMetrics, SweepRequest, TranRequest, VariationGrid,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Where the reference values recorded for this benchmark live, relative
/// to the repository root.
pub const REFERENCE_FILE: &str = "perfbench/reference.txt";

/// Relative tolerance of analog outputs (delays, energies, waveforms):
/// the engine's stated 1% accuracy contract.
pub const ANALOG_TOLERANCE: f64 = 0.01;

/// 64-bit FNV-1a.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn opt_f64(&mut self, v: Option<f64>) {
        self.f64(v.unwrap_or(f64::NAN));
    }
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.finish()
}

/// A digest of everything an output reports, analog values at full
/// precision. The `cached` flag of cell results is excluded: it records
/// how the answer was served, not what it is.
pub fn digest(response: &ResponseKind) -> u64 {
    let mut h = Fnv::default();
    match response {
        ResponseKind::Cell(r) => {
            h.str(&r.cell.name);
            h.f64(r.cell.active_area_l2());
            h.f64(r.cell.footprint_l2);
            h.u64(r.cell.via_on_gate_count as u64);
            h.u64(r.cell.pins.len() as u64);
        }
        ResponseKind::Library(lib) => {
            for cell in &lib.cells {
                h.str(&cell.name);
                h.f64(cell.layout.footprint_l2);
                h.f64(cell.input_cap_f);
            }
        }
        ResponseKind::Immunity(r) => {
            h.str(&r.cell.name);
            h.u64(u64::from(r.immune));
            if let Some(cert) = &r.cert {
                h.u64(cert.segments_checked as u64);
                h.u64(cert.harmful.len() as u64);
            }
            if let Some(mc) = &r.mc {
                h.u64(mc.tubes as u64);
                h.u64(mc.failures as u64);
                h.u64(mc.metallic_failures as u64);
            }
        }
        ResponseKind::Flow(r) => {
            h.u64(r.netlist.instances.len() as u64);
            h.f64(r.placement.area_l2);
            h.f64(r.placement.utilization);
            if let Some(m) = &r.metrics {
                h.str(&format!("{m:?}"));
            }
            if let Some(gds) = &r.gds {
                h.bytes(gds);
            }
        }
        ResponseKind::Sweep(report) => {
            for row in &report.rows {
                corner_row(&mut h, row);
            }
            for &i in &report.pareto {
                h.u64(i as u64);
            }
        }
        ResponseKind::SweepCorner(row) => corner_row(&mut h, row),
        ResponseKind::Repair(report) => {
            for die in &report.dies {
                die_outcome(&mut h, die);
            }
        }
        ResponseKind::Die(die) => die_outcome(&mut h, die),
        ResponseKind::Optimize(report) => h.str(&report.render()),
        ResponseKind::Macro(report) => {
            h.str(&report.render());
            h.str(&report.spice);
            h.bytes(&report.gds);
        }
        ResponseKind::MacroSlice(s) => {
            h.u64(u64::from(s.bit));
            h.f64(s.load_f);
            h.f64(s.sum_delay_s);
            h.f64(s.carry_delay_s);
        }
        ResponseKind::Tran(r) => {
            for &t in &r.time {
                h.f64(t);
            }
            for (name, trace) in &r.probes {
                h.str(name);
                for &v in trace {
                    h.f64(v);
                }
            }
        }
    }
    h.finish()
}

fn corner_row(h: &mut Fnv, row: &cnfet::CornerRow) {
    h.str(&row.cell);
    h.u64(row.mc_tubes.unwrap_or(usize::MAX) as u64);
    h.u64(row.mc_failures.unwrap_or(usize::MAX) as u64);
    h.opt_f64(row.metallic_yield);
    h.opt_f64(row.delay_s());
    h.opt_f64(row.energy_j());
}

fn die_outcome(h: &mut Fnv, die: &cnfet::repair::DieOutcome) {
    h.u64(die.die);
    h.u64(u64::from(die.defective_sites));
    h.u64(u64::from(die.repaired));
    h.str(die.solver);
    for site in &die.assignment {
        h.u64(site.map_or(u64::MAX, u64::from));
    }
}

/// Whether a repeated (cache-hit) output equals the first execution of
/// its request: the same shared allocation, or else equal digests (an
/// evicted entry that was rebuilt).
pub fn same_output(first: &ResponseKind, again: &ResponseKind) -> bool {
    let shared = match (first, again) {
        (ResponseKind::Cell(a), ResponseKind::Cell(b)) => Arc::ptr_eq(&a.cell, &b.cell),
        (ResponseKind::Library(a), ResponseKind::Library(b)) => Arc::ptr_eq(a, b),
        (ResponseKind::Sweep(a), ResponseKind::Sweep(b)) => Arc::ptr_eq(a, b),
        (ResponseKind::Repair(a), ResponseKind::Repair(b)) => Arc::ptr_eq(a, b),
        (ResponseKind::Optimize(a), ResponseKind::Optimize(b)) => Arc::ptr_eq(a, b),
        (ResponseKind::Macro(a), ResponseKind::Macro(b)) => Arc::ptr_eq(a, b),
        _ => false,
    };
    shared || digest(first) == digest(again)
}

fn finite_positive(v: f64) -> bool {
    v.is_finite() && v > 0.0
}

/// Plausibility rules for an output no earlier execution can vouch for
/// (a fresh cold request): structure matches the request, verdicts are
/// consistent, analog values are finite and physical.
pub fn sanity(response: &ResponseKind) -> Result<(), String> {
    let ok = match response {
        ResponseKind::Cell(r) => finite_positive(r.cell.active_area_l2()),
        ResponseKind::Immunity(r) => {
            r.mc.as_ref().is_none_or(|m| m.failures <= m.tubes)
                && r.cert
                    .as_ref()
                    .is_none_or(|c| c.immune == c.harmful.is_empty())
        }
        ResponseKind::Sweep(report) => {
            report.rows.len() == report.cells * report.corners.len()
                && report.rows.iter().all(|row| {
                    row.yield_frac().is_none_or(|y| (0.0..=1.0).contains(&y))
                        && row.delay_s().is_none_or(|d| finite_positive(d) && d < 1e-8)
                        && row.energy_j().is_none_or(finite_positive)
                })
        }
        ResponseKind::Repair(report) => {
            report.repaired_dies == report.dies.iter().filter(|d| d.repaired).count()
                && report.dies.iter().enumerate().all(|(i, d)| {
                    d.die == i as u64
                        && d.assignment.len() == report.cells
                        && (!d.repaired || d.assignment.iter().all(Option::is_some))
                })
        }
        ResponseKind::Optimize(report) => {
            !report.candidates.is_empty()
                && report
                    .best_index
                    .is_some_and(|b| b < report.candidates.len())
        }
        ResponseKind::Macro(report) => {
            report.slices.len() == report.width as usize
                && report.fa_instances == report.width as usize
                && finite_positive(report.critical_path_s)
                && report.critical_path_s < 1e-7
                && report.spice.contains(".subckt")
                && !report.gds.is_empty()
        }
        ResponseKind::Tran(r) => {
            r.time.windows(2).all(|w| w[0] < w[1])
                && r.probes.iter().all(|(_, trace)| {
                    trace.len() == r.time.len()
                        && trace.iter().all(|v| v.is_finite() && v.abs() < 10.0)
                })
        }
        _ => true,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("implausible output: {}", kind_name(response)))
    }
}

pub fn kind_name(response: &ResponseKind) -> &'static str {
    match response {
        ResponseKind::Cell(_) => "cell",
        ResponseKind::Library(_) => "library",
        ResponseKind::Immunity(_) => "immunity",
        ResponseKind::Flow(_) => "flow",
        ResponseKind::Sweep(_) => "sweep",
        ResponseKind::SweepCorner(_) => "sweep_corner",
        ResponseKind::Repair(_) => "repair",
        ResponseKind::Die(_) => "die",
        ResponseKind::Optimize(_) => "optimize",
        ResponseKind::Macro(_) => "macro",
        ResponseKind::MacroSlice(_) => "macro_slice",
        ResponseKind::Tran(_) => "tran",
    }
}

// ---------------------------------------------------------------------------
// The reference set
// ---------------------------------------------------------------------------

/// One recorded value: discrete (`=`, must match exactly) or analog
/// (`~`, must match within [`ANALOG_TOLERANCE`]).
#[derive(Clone, Debug, PartialEq)]
pub enum RefValue {
    Exact(String),
    Analog(f64),
}

/// The fixed-seed golden die lot of the repository's golden suite.
fn golden_lot() -> RepairRequest {
    RepairRequest::new([StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Nor(2)])
        .dies(12)
        .base_seed(0xB0BBA)
        .spares(2)
        .params(DefectParams {
            metallic_fraction: 0.05,
            misposition_fraction: 0.2,
            ..DefectParams::default()
        })
        .adjacent([(0, 1)])
}

/// A 20-stage RC ladder driven by one pulse: the reference deck.
pub fn reference_deck() -> String {
    let mut deck = String::from("V1 n0 0 PULSE(0 1 1e-10 1e-11 1e-11 2e-9 4e-9)\n");
    for i in 0..20 {
        let _ = writeln!(deck, "R{i} n{i} n{} 100", i + 1);
        let _ = writeln!(deck, "C{i} n{} 0 10f", i + 1);
    }
    deck.push_str(".end\n");
    deck
}

/// First time a trace rises through `level` (linear interpolation).
fn rise_time(time: &[f64], trace: &[f64], level: f64) -> Option<f64> {
    (1..trace.len()).find_map(|i| {
        (trace[i - 1] < level && trace[i] >= level).then(|| {
            let f = (level - trace[i - 1]) / (trace[i] - trace[i - 1]);
            time[i - 1] + f * (time[i] - time[i - 1])
        })
    })
}

/// The fixed request set behind the reference values, in the order it
/// runs: every function in both schemes, their certification verdicts,
/// one Monte-Carlo verdict, the Scheme-1 library, the golden die lot, the
/// golden 8-bit CLA macro, a timing sweep and a 20-stage RC ladder.
pub fn reference_requests() -> Vec<RequestKind> {
    let mut requests: Vec<RequestKind> = Vec::new();
    for kind in StdCellKind::ALL {
        for scheme in [Scheme::Scheme1, Scheme::Scheme2] {
            let options = GenerateOptions {
                scheme,
                ..GenerateOptions::default()
            };
            requests.push(CellRequest::new(kind).options(options).into());
        }
        requests.push(ImmunityRequest::certify(kind).into());
    }
    let mc = McOptions {
        tubes: 200,
        seed: 7,
        metallic_fraction: 0.02,
        ..McOptions::default()
    };
    requests.push(ImmunityRequest::monte_carlo(StdCellKind::Nand(2), mc).into());
    requests.push(LibraryRequest::new(Scheme::Scheme1).into());
    requests.push(golden_lot().into());
    requests.push(golden_macro().into());
    requests.push(
        SweepRequest::new([StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Nor(2)])
            .grid(VariationGrid::nominal().pitch_scales([1.0, 0.8]))
            .metrics(SweepMetrics::TIMING)
            .into(),
    );
    requests.push(
        TranRequest::new(reference_deck(), 2e-12, 4e-9)
            .probes(["n10", "n20"])
            .into(),
    );
    requests
}

/// The repository's golden 8-bit carry-look-ahead macro.
fn golden_macro() -> MacroRequest {
    MacroRequest::new(AdderKind::Cla, 8).seed(0xB0BBA)
}

/// Records the reference values one response contributes.
fn record(out: &mut BTreeMap<String, RefValue>, response: &ResponseKind) -> Result<(), String> {
    let mut exact = |k: String, v: String| out.insert(k, RefValue::Exact(v));
    match response {
        ResponseKind::Cell(r) => {
            let cell = &r.cell;
            exact(
                format!("cell.{}.{}", cell.name, cell.scheme),
                format!("{:?} {:?}", cell.active_area_l2(), cell.footprint_l2),
            );
        }
        ResponseKind::Immunity(r) => {
            if let Some(cert) = &r.cert {
                exact(
                    format!("certify.{}", r.cell.name),
                    format!(
                        "{} {} {}",
                        r.immune,
                        cert.segments_checked,
                        cert.harmful.len()
                    ),
                );
            }
            if let Some(mc) = &r.mc {
                exact(
                    format!("mc.{}.{}", r.cell.name, mc.tubes),
                    format!("{} {}", mc.failures, mc.metallic_failures),
                );
            }
        }
        ResponseKind::Library(lib) => {
            let names: Vec<&str> = lib.cells.iter().map(|c| c.name.as_str()).collect();
            exact(format!("library.{}.cells", lib.scheme), names.join(","));
        }
        ResponseKind::Repair(lot) => {
            let mut h = Fnv::default();
            for die in &lot.dies {
                die_outcome(&mut h, die);
            }
            exact(
                format!("repair.lot{}.assignments", lot.dies.len()),
                format!("{:016x}", h.finish()),
            );
        }
        ResponseKind::Macro(m) => {
            let at = format!("macro.{}{}", m.kind.name(), m.width);
            exact(
                format!("{at}.spice"),
                format!("{:016x}", fnv(m.spice.as_bytes())),
            );
            exact(format!("{at}.gds"), format!("{:016x}", fnv(&m.gds)));
            exact(format!("{at}.area"), format!("{:?}", m.area_l2));
            out.insert(
                format!("{at}.critical_path_s"),
                RefValue::Analog(m.critical_path_s),
            );
            for s in &m.slices {
                out.insert(
                    format!("{at}.bit{}.sum_s", s.bit),
                    RefValue::Analog(s.sum_delay_s),
                );
                out.insert(
                    format!("{at}.bit{}.carry_s", s.bit),
                    RefValue::Analog(s.carry_delay_s),
                );
            }
        }
        ResponseKind::Sweep(sweep) => {
            for row in &sweep.rows {
                let at = format!("sweep.{}.p{}", row.cell, row.corner.pitch_scale);
                let delay = row.delay_s().ok_or("timing sweep row without delay")?;
                let energy = row.energy_j().ok_or("timing sweep row without energy")?;
                out.insert(format!("{at}.delay_s"), RefValue::Analog(delay));
                out.insert(format!("{at}.energy_j"), RefValue::Analog(energy));
            }
        }
        ResponseKind::Tran(tran) => {
            for (name, trace) in &tran.probes {
                let t50 =
                    rise_time(&tran.time, trace, 0.5).ok_or("reference deck never crosses 50%")?;
                out.insert(format!("tran.{name}.t50_s"), RefValue::Analog(t50));
                let peak = trace.iter().copied().fold(f64::MIN, f64::max);
                out.insert(format!("tran.{name}.peak_v"), RefValue::Analog(peak));
            }
            out.insert(
                "tran.points".into(),
                RefValue::Exact(tran.time.len().to_string()),
            );
        }
        other => return Err(format!("no reference rule for {}", kind_name(other))),
    }
    Ok(())
}

/// Computes the reference set on a session. Errors are engine failures
/// (a reference request that no longer runs).
pub fn reference_values(session: &Session) -> Result<BTreeMap<String, RefValue>, String> {
    let mut out = BTreeMap::new();
    for request in reference_requests() {
        let response = session.run(&request).map_err(|e| e.to_string())?;
        record(&mut out, &response)?;
    }
    Ok(out)
}

pub fn render_reference(values: &BTreeMap<String, RefValue>) -> String {
    let mut text = String::from(
        "# Reference outputs of the benchmark's fixed request set.\n\
         # `=` lines must match exactly; `~` lines within 1% (analog values).\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --record-reference\n",
    );
    for (key, value) in values {
        let _ = match value {
            RefValue::Exact(v) => writeln!(text, "= {key} {v}"),
            RefValue::Analog(v) => writeln!(text, "~ {key} {v:e}"),
        };
    }
    text
}

pub fn parse_reference(text: &str) -> Result<BTreeMap<String, RefValue>, String> {
    let mut out = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let mut parts = line.splitn(3, ' ');
        let (tag, key, value) = (parts.next(), parts.next(), parts.next());
        let (Some(tag), Some(key), Some(value)) = (tag, key, value) else {
            return Err(format!("malformed reference line `{line}`"));
        };
        let value = match tag {
            "=" => RefValue::Exact(value.to_string()),
            "~" => RefValue::Analog(
                value
                    .parse()
                    .map_err(|_| format!("bad analog value in `{line}`"))?,
            ),
            _ => return Err(format!("unknown reference tag in `{line}`")),
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

/// Compares computed values to recorded ones, listing every mismatch.
pub fn compare_reference(
    recorded: &BTreeMap<String, RefValue>,
    computed: &BTreeMap<String, RefValue>,
) -> Vec<String> {
    let mut mismatches = Vec::new();
    for (key, want) in recorded {
        let ok = match (want, computed.get(key)) {
            (RefValue::Exact(w), Some(RefValue::Exact(g))) => w == g,
            (RefValue::Analog(w), Some(RefValue::Analog(g))) => {
                (g - w).abs() <= ANALOG_TOLERANCE * w.abs()
            }
            _ => false,
        };
        if !ok {
            mismatches.push(format!(
                "{key}: recorded {want:?}, got {:?}",
                computed.get(key)
            ));
        }
    }
    for key in computed.keys().filter(|k| !recorded.contains_key(*k)) {
        mismatches.push(format!("{key}: not in the recorded reference"));
    }
    mismatches
}

/// Verifies the reference set and the committed golden files against a
/// session. Returns the number of checks made, or every mismatch.
pub fn verify_reference(session: &Session, root: &Path) -> Result<usize, Vec<String>> {
    let computed = reference_values(session).map_err(|e| vec![e])?;
    let recorded = std::fs::read_to_string(root.join(REFERENCE_FILE))
        .map_err(|e| vec![format!("{REFERENCE_FILE}: {e}")])
        .and_then(|text| parse_reference(&text).map_err(|e| vec![e]))?;
    let mut mismatches = compare_reference(&recorded, &computed);

    let golden = |name: &str| std::fs::read(root.join("tests/golden").join(name));
    let err = |e: cnfet::CnfetError| vec![e.to_string()];
    let lot = session.run(&golden_lot()).map_err(err)?;
    let cla8 = session.run(&golden_macro()).map_err(err)?;
    let goldens: [(&str, Vec<u8>); 3] = [
        ("die_repair.txt", lot.render().into_bytes()),
        ("adder_cla8.sp", cla8.spice.clone().into_bytes()),
        ("adder_cla8.gds", cla8.gds.clone()),
    ];
    let checks = recorded.len() + goldens.len();
    for (name, current) in goldens {
        match golden(name) {
            Ok(bytes) if bytes == current => {}
            Ok(_) => mismatches.push(format!("tests/golden/{name}: output differs")),
            Err(e) => mismatches.push(format!("tests/golden/{name}: {e}")),
        }
    }
    if mismatches.is_empty() {
        Ok(checks)
    } else {
        Err(mismatches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_text_round_trips() {
        let mut values = BTreeMap::new();
        values.insert("a.exact".to_string(), RefValue::Exact("12 34".into()));
        values.insert(
            "b.analog".to_string(),
            RefValue::Analog(1.234_567_890_123e-11),
        );
        let parsed = parse_reference(&render_reference(&values)).unwrap();
        assert_eq!(parsed, values);
    }

    #[test]
    fn analog_values_tolerate_one_percent_only() {
        let mut recorded = BTreeMap::new();
        recorded.insert("d".to_string(), RefValue::Analog(100.0));
        let mut close = BTreeMap::new();
        close.insert("d".to_string(), RefValue::Analog(100.9));
        assert!(compare_reference(&recorded, &close).is_empty());
        let mut far = BTreeMap::new();
        far.insert("d".to_string(), RefValue::Analog(101.1));
        assert_eq!(compare_reference(&recorded, &far).len(), 1);
    }

    #[test]
    fn discrete_values_must_match_exactly() {
        let mut recorded = BTreeMap::new();
        recorded.insert("c".to_string(), RefValue::Exact("360".into()));
        let mut got = BTreeMap::new();
        got.insert("c".to_string(), RefValue::Exact("360.0".into()));
        assert_eq!(compare_reference(&recorded, &got).len(), 1);
    }

    #[test]
    fn rise_time_interpolates() {
        let t = [0.0, 1.0, 2.0];
        let v = [0.0, 0.25, 0.75];
        assert_eq!(rise_time(&t, &v, 0.5), Some(1.5));
        assert_eq!(rise_time(&t, &v, 0.9), None);
    }
}
