//! The wire protocol: JSON encodings of every
//! [`RequestKind`] the engine services and of every
//! result / error it answers with.
//!
//! # Requests
//!
//! A request is an object with a `type` discriminant:
//!
//! ```json
//! {"type": "cell", "kind": "nand3", "strength": 2, "name": "N3_X2", "scheme": "s2"}
//! {"type": "library", "scheme": "s1"}
//! {"type": "immunity", "cell": {"kind": "inv"}, "engine": "certify"}
//! {"type": "immunity", "cell": {"kind": "aoi22"}, "engine": "monte_carlo",
//!  "mc": {"tubes": 500, "seed": 7, "metallic_fraction": 0.02}}
//! {"type": "flow", "source": "full_adder", "target": "s1", "emit_gds": true,
//!  "sim": {"toggle_in": "A", "ties": {"B": true, "CI": false}, "watch_out": "S"}}
//! {"type": "flow", "source": {"verilog": "module t(...); ... endmodule"}, "target": "cmos"}
//! {"type": "sweep", "cells": [{"kind": "inv"}, {"kind": "nand2"}],
//!  "grid": {"tube_counts": [26, 10], "metallic_fractions": [0.0, 0.02]},
//!  "metrics": "immunity", "mc": {"tubes": 200}, "loads_f": [1e-15]}
//! {"type": "sweep_corner", "cell": {"kind": "inv"},
//!  "corner": {"tubes_per_4lambda": 10, "pitch_scale": 1.3,
//!             "metallic_fraction": 0.0, "seed": 42}}
//! {"type": "tran", "deck": "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1p\n.end",
//!  "dt": 1e-11, "t_stop": 1e-8, "probes": ["out"]}
//! {"type": "repair", "cells": [{"kind": "inv"}, {"kind": "nand2"}],
//!  "dies": 1000, "seed": 7, "spares": 2, "solver": "auto",
//!  "params": {"metallic_fraction": 0.05, "misposition_fraction": 0.2},
//!  "adjacent": [[0, 1]]}
//! {"type": "die", "cells": [{"kind": "inv"}], "die": 42, "seed": 7}
//! {"type": "optimize", "cells": [{"kind": "inv"}],
//!  "grid": {"tube_counts": [6, 26], "pitch_scales": [1.0, 1.5]},
//!  "target": {"min_yield": 0.9, "max_delay_s": 5e-11}, "passes": 2,
//!  "metrics": "immunity", "mc": {"tubes": 200}}
//! {"type": "macro", "kind": "cla", "width": 64, "scheme": "s2", "seed": 7}
//! {"type": "macro_slice", "kind": "cla", "width": 64, "bit": 9}
//! ```
//!
//! Cell kinds are `inv`, `nand2..4`, `nor2..4`, `aoi21`, `aoi22`,
//! `aoi31`, `oai21`, `oai22`; schemes are `s1` / `s2`. Every field
//! beyond `type` (and per-type requireds) is optional and defaults like
//! the in-process builders. A cell's optional `scheme` overrides the
//! arrangement scheme while keeping the server's rule deck; richer
//! [`GenerateOptions`] overrides stay an
//! in-process feature.
//!
//! # Responses and errors
//!
//! Results are summaries — geometry accounting, verdicts, metrics —
//! rather than full layout dumps; clients that need drawn geometry run
//! in-process. Failures render as one structured shape,
//!
//! ```json
//! {"error": {"kind": "generate", "message": "…"}}
//! ```
//!
//! where `kind` names the [`CnfetError`] variant (`generate`, `parse`,
//! `network`, `sim_singular`, `sim_no_convergence`, `deck`, `gds`,
//! `library`, `verilog`, `missing_cell`, `invalid_request`, `canceled`,
//! `io`) and malformed requests use `bad_request` with a byte `position`
//! when the JSON itself failed to parse. Simulation failures split by
//! cause so a client can tell a structurally broken deck (`sim_singular`
//! — floating node or source loop) from Newton trouble
//! (`sim_no_convergence`). Grid axes are validated at parse time — a
//! negative or non-finite `pitch_scales` / `metallic_fractions` entry
//! answers `400` naming the offending index (`grid.pitch_scales[1]`)
//! before the engine ever renders a cache key — and the engine's own
//! [`CnfetError::InvalidRequest`] guard maps to `400` the same way, so
//! a malformed value can never occupy a cache slot.

use crate::encode;
use crate::jobtable::RenderRow;
use crate::json::Json;
use cnfet::core::{GenerateOptions, Scheme, StdCellKind};
use cnfet::dk::CellLibrary;
use cnfet::immunity::McOptions;
use cnfet::logic::AdderKind;
use cnfet::mna::MnaError;
use cnfet::repair::{DefectParams, DieOutcome, Solver};
use cnfet::sweep::{
    CornerRow, CornerSummary, SweepCornerRequest, SweepMetrics, SweepReport, SweepRequest,
    VariationCorner, VariationGrid,
};
use cnfet::{
    CandidateRow, CellRequest, CellResult, CnfetError, DieRequest, FlowRequest, FlowResult,
    FlowSource, FlowTarget, ImmunityEngine, ImmunityReport, ImmunityRequest, LibraryRequest,
    MacroReport, MacroRequest, MacroSliceRequest, OptimizeReport, OptimizeRequest, OptimizeTarget,
    RepairReport, RepairRequest, RequestKind, ResponseKind, SimSpec, SliceOutcome, TranRequest,
    TranResult,
};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A semantically malformed request: well-formed JSON that does not
/// encode a request. The message names the offending field path
/// (`cells[2].kind`), and the server answers `400`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What is wrong, prefixed with the field path.
    pub message: String,
}

impl WireError {
    fn new(path: &str, message: impl std::fmt::Display) -> WireError {
        WireError {
            message: format!("{path}: {message}"),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WireError {}

/// The uniform error payload: `{"error": {"kind", "message"[, "position"]}}`.
pub fn error_body(kind: &str, message: &str, position: Option<usize>) -> Json {
    let mut fields = vec![
        ("kind".to_string(), Json::str(kind)),
        ("message".to_string(), Json::str(message)),
    ];
    if let Some(position) = position {
        fields.push(("position".to_string(), Json::from(position)));
    }
    Json::obj([("error", Json::Obj(fields))])
}

/// Maps an execution failure to its HTTP status and structured payload.
/// Domain failures are the client's problem (`422`); a canceled job
/// means the engine is going away (`503`).
pub fn error_response(error: &CnfetError) -> (u16, Json) {
    let kind = match error {
        CnfetError::Generate(_) => "generate",
        CnfetError::Parse(_) => "parse",
        CnfetError::Network(_) => "network",
        CnfetError::Sim(MnaError::Singular) => "sim_singular",
        CnfetError::Sim(MnaError::NoConvergence { .. }) => "sim_no_convergence",
        CnfetError::Deck(_) => "deck",
        CnfetError::Gds(_) => "gds",
        CnfetError::Library(_) => "library",
        CnfetError::Verilog(_) => "verilog",
        CnfetError::MissingCell(_) => "missing_cell",
        CnfetError::InvalidRequest { .. } => "invalid_request",
        CnfetError::Canceled => "canceled",
        CnfetError::Io(_) => "io",
        _ => "internal",
    };
    let status = match error {
        CnfetError::InvalidRequest { .. } => 400,
        CnfetError::Canceled => 503,
        CnfetError::Io(_) => 500,
        _ => 422,
    };
    (status, error_body(kind, &error.to_string(), None))
}

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// A present, non-null member.
fn opt<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    obj.get(key).filter(|v| !v.is_null())
}

fn need<'a>(obj: &'a Json, path: &str, key: &str) -> Result<&'a Json, WireError> {
    opt(obj, key).ok_or_else(|| WireError::new(&join(path, key), "missing required field"))
}

fn as_str<'a>(value: &'a Json, path: &str) -> Result<&'a str, WireError> {
    value
        .as_str()
        .ok_or_else(|| WireError::new(path, "expected a string"))
}

fn as_f64(value: &Json, path: &str) -> Result<f64, WireError> {
    value
        .as_f64()
        .ok_or_else(|| WireError::new(path, "expected a number"))
}

fn as_u64(value: &Json, path: &str) -> Result<u64, WireError> {
    value
        .as_u64()
        .ok_or_else(|| WireError::new(path, "expected a non-negative integer"))
}

/// A non-negative integer that fits a `u32`; larger values answer `400`
/// rather than wrapping into a request the client never sent.
fn as_u32(value: &Json, path: &str) -> Result<u32, WireError> {
    u32::try_from(as_u64(value, path)?)
        .map_err(|_| WireError::new(path, format!("expected an integer of at most {}", u32::MAX)))
}

fn as_bool(value: &Json, path: &str) -> Result<bool, WireError> {
    value
        .as_bool()
        .ok_or_else(|| WireError::new(path, "expected a boolean"))
}

fn as_arr<'a>(value: &'a Json, path: &str) -> Result<&'a [Json], WireError> {
    value
        .as_arr()
        .ok_or_else(|| WireError::new(path, "expected an array"))
}

fn num_list<T>(
    obj: &Json,
    path: &str,
    key: &str,
    convert: impl Fn(&Json, &str) -> Result<T, WireError>,
) -> Result<Option<Vec<T>>, WireError> {
    let Some(value) = opt(obj, key) else {
        return Ok(None);
    };
    let path = join(path, key);
    as_arr(value, &path)?
        .iter()
        .enumerate()
        .map(|(i, v)| convert(v, &format!("{path}[{i}]")))
        .collect::<Result<Vec<T>, WireError>>()
        .map(Some)
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

/// Parses one wire request object into the engine's [`RequestKind`].
pub fn parse_request(value: &Json) -> Result<RequestKind, WireError> {
    parse_request_at(value, "")
}

fn parse_request_at(value: &Json, path: &str) -> Result<RequestKind, WireError> {
    if !matches!(value, Json::Obj(_)) {
        return Err(WireError::new(path, "expected a request object"));
    }
    let ty = as_str(need(value, path, "type")?, &join(path, "type"))?;
    match ty {
        "cell" => Ok(RequestKind::Cell(parse_cell(value, path)?)),
        "library" => Ok(RequestKind::Library(LibraryRequest::new(parse_scheme(
            need(value, path, "scheme")?,
            &join(path, "scheme"),
        )?))),
        "immunity" => Ok(RequestKind::Immunity(parse_immunity(value, path)?)),
        "flow" => Ok(RequestKind::Flow(parse_flow(value, path)?)),
        "sweep" => Ok(RequestKind::Sweep(parse_sweep(value, path)?)),
        "sweep_corner" => Ok(RequestKind::SweepCorner(parse_sweep_corner(value, path)?)),
        "tran" => Ok(RequestKind::Tran(parse_tran(value, path)?)),
        "repair" => Ok(RequestKind::Repair(parse_repair(value, path)?)),
        "die" => Ok(RequestKind::Die(parse_die(value, path)?)),
        "optimize" => Ok(RequestKind::Optimize(parse_optimize(value, path)?)),
        "macro" => Ok(RequestKind::Macro(parse_macro(value, path)?)),
        "macro_slice" => Ok(RequestKind::MacroSlice(parse_macro_slice(value, path)?)),
        other => Err(WireError::new(
            &join(path, "type"),
            format!("unknown request type `{other}`"),
        )),
    }
}

fn parse_kind(value: &Json, path: &str) -> Result<StdCellKind, WireError> {
    match as_str(value, path)? {
        "inv" => Ok(StdCellKind::Inv),
        "nand2" => Ok(StdCellKind::Nand(2)),
        "nand3" => Ok(StdCellKind::Nand(3)),
        "nand4" => Ok(StdCellKind::Nand(4)),
        "nor2" => Ok(StdCellKind::Nor(2)),
        "nor3" => Ok(StdCellKind::Nor(3)),
        "nor4" => Ok(StdCellKind::Nor(4)),
        "aoi21" => Ok(StdCellKind::Aoi21),
        "aoi22" => Ok(StdCellKind::Aoi22),
        "aoi31" => Ok(StdCellKind::Aoi31),
        "oai21" => Ok(StdCellKind::Oai21),
        "oai22" => Ok(StdCellKind::Oai22),
        other => Err(WireError::new(
            path,
            format!("unknown cell kind `{other}` (inv, nand2..4, nor2..4, aoi21/22/31, oai21/22)"),
        )),
    }
}

/// Renders a cell kind back to its wire name.
pub fn kind_name(kind: StdCellKind) -> String {
    match kind {
        StdCellKind::Inv => "inv".to_string(),
        StdCellKind::Nand(n) => format!("nand{n}"),
        StdCellKind::Nor(n) => format!("nor{n}"),
        StdCellKind::Aoi21 => "aoi21".to_string(),
        StdCellKind::Aoi22 => "aoi22".to_string(),
        StdCellKind::Aoi31 => "aoi31".to_string(),
        StdCellKind::Oai21 => "oai21".to_string(),
        StdCellKind::Oai22 => "oai22".to_string(),
    }
}

fn parse_scheme(value: &Json, path: &str) -> Result<Scheme, WireError> {
    match as_str(value, path)? {
        "s1" | "scheme1" => Ok(Scheme::Scheme1),
        "s2" | "scheme2" => Ok(Scheme::Scheme2),
        other => Err(WireError::new(
            path,
            format!("unknown scheme `{other}` (s1, s2)"),
        )),
    }
}

fn scheme_name(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Scheme1 => "s1",
        Scheme::Scheme2 => "s2",
    }
}

fn parse_cell(value: &Json, path: &str) -> Result<CellRequest, WireError> {
    let mut request =
        CellRequest::new(parse_kind(need(value, path, "kind")?, &join(path, "kind"))?);
    if let Some(strength) = opt(value, "strength") {
        let strength = as_u64(strength, &join(path, "strength"))?;
        if !(1..=255).contains(&strength) {
            return Err(WireError::new(&join(path, "strength"), "expected 1..=255"));
        }
        request = request.strength(strength as u8);
    }
    if let Some(name) = opt(value, "name") {
        request = request.named(as_str(name, &join(path, "name"))?);
    }
    if let Some(scheme) = opt(value, "scheme") {
        // Scheme override on the default rule deck; richer option
        // overrides stay in-process (see the module docs).
        request = request.options(GenerateOptions {
            scheme: parse_scheme(scheme, &join(path, "scheme"))?,
            ..GenerateOptions::default()
        });
    }
    Ok(request)
}

fn parse_mc(value: &Json, path: &str) -> Result<McOptions, WireError> {
    let mut mc = McOptions::default();
    if let Some(tubes) = opt(value, "tubes") {
        mc.tubes = as_u64(tubes, &join(path, "tubes"))? as usize;
    }
    if let Some(tau) = opt(value, "tau") {
        mc.tau = as_f64(tau, &join(path, "tau"))?;
    }
    if let Some(len) = opt(value, "segment_len_lambda") {
        mc.segment_len_lambda = as_f64(len, &join(path, "segment_len_lambda"))?;
    }
    if let Some(seed) = opt(value, "seed") {
        mc.seed = as_u64(seed, &join(path, "seed"))?;
    }
    if let Some(fraction) = opt(value, "metallic_fraction") {
        mc.metallic_fraction = as_f64(fraction, &join(path, "metallic_fraction"))?;
    }
    Ok(mc)
}

fn parse_immunity(value: &Json, path: &str) -> Result<ImmunityRequest, WireError> {
    let cell = parse_cell(need(value, path, "cell")?, &join(path, "cell"))?;
    let mc = match opt(value, "mc") {
        Some(mc) => parse_mc(mc, &join(path, "mc"))?,
        None => McOptions::default(),
    };
    let engine = match opt(value, "engine") {
        None => ImmunityEngine::Certify,
        Some(engine) => match as_str(engine, &join(path, "engine"))? {
            "certify" => ImmunityEngine::Certify,
            "monte_carlo" => ImmunityEngine::MonteCarlo(mc),
            "both" => ImmunityEngine::Both(mc),
            other => {
                return Err(WireError::new(
                    &join(path, "engine"),
                    format!("unknown engine `{other}` (certify, monte_carlo, both)"),
                ))
            }
        },
    };
    Ok(ImmunityRequest { cell, engine })
}

fn parse_flow(value: &Json, path: &str) -> Result<FlowRequest, WireError> {
    let source = match need(value, path, "source")? {
        Json::Str(s) if s == "full_adder" => FlowSource::FullAdder,
        Json::Str(s) => {
            return Err(WireError::new(
                &join(path, "source"),
                format!("unknown source `{s}` (full_adder, or {{\"verilog\": …}})"),
            ))
        }
        obj @ Json::Obj(_) => FlowSource::Verilog(
            as_str(
                need(obj, &join(path, "source"), "verilog")?,
                &join(path, "source.verilog"),
            )?
            .to_string(),
        ),
        _ => {
            return Err(WireError::new(
                &join(path, "source"),
                "expected `full_adder` or {\"verilog\": …}",
            ))
        }
    };
    let target = match as_str(need(value, path, "target")?, &join(path, "target"))? {
        "cmos" => FlowTarget::Cmos,
        scheme => FlowTarget::Cnfet(parse_scheme(&Json::str(scheme), &join(path, "target"))?),
    };
    let mut request = FlowRequest {
        source,
        target,
        sim: None,
        emit_gds: false,
    };
    if let Some(gds) = opt(value, "emit_gds") {
        request.emit_gds = as_bool(gds, &join(path, "emit_gds"))?;
    }
    if let Some(sim) = opt(value, "sim") {
        let sim_path = join(path, "sim");
        let mut ties = BTreeMap::new();
        if let Some(Json::Obj(fields)) = opt(sim, "ties") {
            for (name, tied) in fields {
                ties.insert(
                    name.clone(),
                    as_bool(tied, &format!("{sim_path}.ties.{name}"))?,
                );
            }
        }
        request.sim = Some(SimSpec {
            toggle_in: as_str(
                need(sim, &sim_path, "toggle_in")?,
                &join(&sim_path, "toggle_in"),
            )?
            .to_string(),
            ties,
            watch_out: as_str(
                need(sim, &sim_path, "watch_out")?,
                &join(&sim_path, "watch_out"),
            )?
            .to_string(),
        });
    }
    Ok(request)
}

fn parse_metrics(value: &Json, path: &str) -> Result<SweepMetrics, WireError> {
    match value {
        Json::Str(s) => match s.as_str() {
            "all" => Ok(SweepMetrics::ALL),
            "immunity" => Ok(SweepMetrics::IMMUNITY),
            "timing" => Ok(SweepMetrics::TIMING),
            other => Err(WireError::new(
                path,
                format!("unknown metric set `{other}` (all, immunity, timing, or an object)"),
            )),
        },
        obj @ Json::Obj(_) => {
            let flag = |key: &str| -> Result<bool, WireError> {
                opt(obj, key).map_or(Ok(false), |v| as_bool(v, &join(path, key)))
            };
            Ok(SweepMetrics {
                immunity: flag("immunity")?,
                timing: flag("timing")?,
                liberty: flag("liberty")?,
                retain_waveforms: flag("waveforms")?,
            })
        }
        _ => Err(WireError::new(path, "expected a string or an object")),
    }
}

/// A float axis value the grid key can render: finite and non-negative.
/// Rejected here — mirroring the engine's own
/// [`VariationGrid::validate`] guard — so a bad axis answers `400` with
/// its index named instead of reaching the cache-key path at all.
fn finite_axis(value: &Json, path: &str) -> Result<f64, WireError> {
    let v = as_f64(value, path)?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(WireError::new(
            path,
            format!("expected a finite non-negative number, got {v}"),
        ))
    }
}

fn parse_grid(value: &Json, path: &str) -> Result<VariationGrid, WireError> {
    let mut grid = VariationGrid::nominal();
    if let Some(counts) = num_list(value, path, "tube_counts", as_u32)? {
        grid.tube_counts = counts;
    }
    if let Some(scales) = num_list(value, path, "pitch_scales", finite_axis)? {
        grid.pitch_scales = scales;
    }
    if let Some(fractions) = num_list(value, path, "metallic_fractions", finite_axis)? {
        grid.metallic_fractions = fractions;
    }
    if let Some(seeds) = num_list(value, path, "seeds", as_u64)? {
        grid.seeds = seeds;
    }
    Ok(grid)
}

fn parse_sweep(value: &Json, path: &str) -> Result<SweepRequest, WireError> {
    let mut request = SweepRequest::new(parse_cells(value, path)?);
    if let Some(grid) = opt(value, "grid") {
        request = request.grid(parse_grid(grid, &join(path, "grid"))?);
    }
    if let Some(metrics) = opt(value, "metrics") {
        request = request.metrics(parse_metrics(metrics, &join(path, "metrics"))?);
    }
    if let Some(mc) = opt(value, "mc") {
        request = request.mc(parse_mc(mc, &join(path, "mc"))?);
    }
    if let Some(loads) = num_list(value, path, "loads_f", as_f64)? {
        request = request.loads(loads);
    }
    Ok(request)
}

fn parse_corner(value: &Json, path: &str) -> Result<VariationCorner, WireError> {
    let mut corner = VariationCorner::nominal();
    if let Some(tubes) = opt(value, "tubes_per_4lambda") {
        corner.tubes_per_4lambda = as_u32(tubes, &join(path, "tubes_per_4lambda"))?;
    }
    if let Some(scale) = opt(value, "pitch_scale") {
        corner.pitch_scale = as_f64(scale, &join(path, "pitch_scale"))?;
    }
    if let Some(fraction) = opt(value, "metallic_fraction") {
        corner.metallic_fraction = as_f64(fraction, &join(path, "metallic_fraction"))?;
    }
    if let Some(seed) = opt(value, "seed") {
        corner.seed = as_u64(seed, &join(path, "seed"))?;
    }
    Ok(corner)
}

fn parse_sweep_corner(value: &Json, path: &str) -> Result<SweepCornerRequest, WireError> {
    let cell = parse_cell(need(value, path, "cell")?, &join(path, "cell"))?;
    let corner = match opt(value, "corner") {
        Some(corner) => parse_corner(corner, &join(path, "corner"))?,
        None => VariationCorner::nominal(),
    };
    let metrics = match opt(value, "metrics") {
        Some(metrics) => parse_metrics(metrics, &join(path, "metrics"))?,
        None => SweepMetrics::ALL,
    };
    let mc = match opt(value, "mc") {
        Some(mc) => parse_mc(mc, &join(path, "mc"))?,
        None => McOptions::default(),
    };
    let loads_f = num_list(value, path, "loads_f", as_f64)?.unwrap_or_else(|| vec![1e-15]);
    Ok(SweepCornerRequest {
        cell,
        corner,
        metrics,
        mc,
        loads_f,
    })
}

fn parse_tran(value: &Json, path: &str) -> Result<TranRequest, WireError> {
    let deck = as_str(need(value, path, "deck")?, &join(path, "deck"))?;
    // Reject non-physical time steps here so the engine's own validation
    // never has to run on a server thread with garbage input.
    let positive = |key: &str| -> Result<f64, WireError> {
        let p = join(path, key);
        let v = as_f64(need(value, path, key)?, &p)?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(WireError::new(&p, "expected a positive finite number"))
        }
    };
    let dt = positive("dt")?;
    let t_stop = positive("t_stop")?;
    let mut request = TranRequest::new(deck, dt, t_stop);
    if let Some(probes) = opt(value, "probes") {
        let probes_path = join(path, "probes");
        let names = as_arr(probes, &probes_path)?
            .iter()
            .enumerate()
            .map(|(i, v)| as_str(v, &format!("{probes_path}[{i}]")).map(str::to_string))
            .collect::<Result<Vec<String>, WireError>>()?;
        request = request.probes(names);
    }
    Ok(request)
}

fn parse_cells(value: &Json, path: &str) -> Result<Vec<CellRequest>, WireError> {
    let cells_path = join(path, "cells");
    as_arr(need(value, path, "cells")?, &cells_path)?
        .iter()
        .enumerate()
        .map(|(i, c)| parse_cell(c, &format!("{cells_path}[{i}]")))
        .collect()
}

fn parse_defect_params(value: &Json, path: &str) -> Result<DefectParams, WireError> {
    let mut params = DefectParams::default();
    if let Some(fraction) = opt(value, "metallic_fraction") {
        params.metallic_fraction = as_f64(fraction, &join(path, "metallic_fraction"))?;
    }
    if let Some(fraction) = opt(value, "open_fraction") {
        params.open_fraction = as_f64(fraction, &join(path, "open_fraction"))?;
    }
    if let Some(fraction) = opt(value, "misposition_fraction") {
        params.misposition_fraction = as_f64(fraction, &join(path, "misposition_fraction"))?;
    }
    if let Some(tubes) = opt(value, "tubes_per_site") {
        params.tubes_per_site = as_u32(tubes, &join(path, "tubes_per_site"))?;
    }
    if let Some(tolerance) = opt(value, "open_tolerance") {
        params.open_tolerance = as_f64(tolerance, &join(path, "open_tolerance"))?;
    }
    if let Some(tau) = opt(value, "tau") {
        params.tau = as_f64(tau, &join(path, "tau"))?;
    }
    if let Some(len) = opt(value, "segment_len_lambda") {
        params.segment_len_lambda = as_f64(len, &join(path, "segment_len_lambda"))?;
    }
    Ok(params)
}

fn parse_solver(value: &Json, path: &str) -> Result<Solver, WireError> {
    match as_str(value, path)? {
        "auto" => Ok(Solver::Auto),
        "matching" => Ok(Solver::Matching),
        "sat" => Ok(Solver::Sat),
        other => Err(WireError::new(
            path,
            format!("unknown solver `{other}` (auto, matching, sat)"),
        )),
    }
}

fn parse_adjacent(value: &Json, path: &str) -> Result<Vec<(u32, u32)>, WireError> {
    let Some(pairs) = opt(value, "adjacent") else {
        return Ok(Vec::new());
    };
    let path = join(path, "adjacent");
    as_arr(pairs, &path)?
        .iter()
        .enumerate()
        .map(|(i, pair)| {
            let pair_path = format!("{path}[{i}]");
            let pair = as_arr(pair, &pair_path)?;
            if pair.len() != 2 {
                return Err(WireError::new(&pair_path, "expected a [from, to] pair"));
            }
            Ok((
                as_u32(&pair[0], &format!("{pair_path}[0]"))?,
                as_u32(&pair[1], &format!("{pair_path}[1]"))?,
            ))
        })
        .collect()
}

fn parse_repair(value: &Json, path: &str) -> Result<RepairRequest, WireError> {
    let mut request = RepairRequest::new(parse_cells(value, path)?);
    if let Some(dies) = opt(value, "dies") {
        request = request.dies(as_u64(dies, &join(path, "dies"))?);
    }
    if let Some(seed) = opt(value, "seed") {
        request = request.base_seed(as_u64(seed, &join(path, "seed"))?);
    }
    if let Some(spares) = opt(value, "spares") {
        request = request.spares(as_u32(spares, &join(path, "spares"))?);
    }
    if let Some(params) = opt(value, "params") {
        request = request.params(parse_defect_params(params, &join(path, "params"))?);
    }
    if let Some(solver) = opt(value, "solver") {
        request = request.solver(parse_solver(solver, &join(path, "solver"))?);
    }
    Ok(request.adjacent(parse_adjacent(value, path)?))
}

fn parse_die(value: &Json, path: &str) -> Result<DieRequest, WireError> {
    // One die shares the repair request's fields minus the lot size; the
    // required `die` index addresses the lot's seeded defect stream.
    let lot = parse_repair(value, path)?;
    Ok(DieRequest {
        cells: lot.cells,
        die: as_u64(need(value, path, "die")?, &join(path, "die"))?,
        base_seed: lot.base_seed,
        spares: lot.spares,
        params: lot.params,
        solver: lot.solver,
        adjacent: lot.adjacent,
    })
}

fn parse_target(value: &Json, path: &str) -> Result<OptimizeTarget, WireError> {
    let mut target = OptimizeTarget::new();
    if let Some(v) = opt(value, "min_yield") {
        target = target.min_yield(as_f64(v, &join(path, "min_yield"))?);
    }
    if let Some(v) = opt(value, "max_delay_s") {
        target = target.max_delay_s(as_f64(v, &join(path, "max_delay_s"))?);
    }
    if let Some(v) = opt(value, "max_energy_j") {
        target = target.max_energy_j(as_f64(v, &join(path, "max_energy_j"))?);
    }
    Ok(target)
}

fn parse_optimize(value: &Json, path: &str) -> Result<OptimizeRequest, WireError> {
    let mut request = OptimizeRequest::new(parse_cells(value, path)?);
    if let Some(grid) = opt(value, "grid") {
        request = request.grid(parse_grid(grid, &join(path, "grid"))?);
    }
    if let Some(target) = opt(value, "target") {
        request = request.target(parse_target(target, &join(path, "target"))?);
    }
    if let Some(passes) = opt(value, "passes") {
        let p = join(path, "passes");
        let passes = as_u32(passes, &p)?;
        if passes == 0 {
            return Err(WireError::new(&p, "expected a pass count of at least 1"));
        }
        request = request.passes(passes);
    }
    if let Some(metrics) = opt(value, "metrics") {
        request = request.metrics(parse_metrics(metrics, &join(path, "metrics"))?);
    }
    if let Some(mc) = opt(value, "mc") {
        request = request.mc(parse_mc(mc, &join(path, "mc"))?);
    }
    if let Some(loads) = num_list(value, path, "loads_f", as_f64)? {
        request = request.loads(loads);
    }
    Ok(request)
}

fn parse_adder_kind(value: &Json, path: &str) -> Result<AdderKind, WireError> {
    match as_str(value, path)? {
        "ripple" => Ok(AdderKind::Ripple),
        "cla" => Ok(AdderKind::Cla),
        other => Err(WireError::new(
            path,
            format!("unknown adder kind `{other}` (ripple, cla)"),
        )),
    }
}

/// The macro width gate, mirrored from [`MacroRequest::validate`] so a
/// malformed width answers `400` with its field path at parse time — it
/// never reaches the engine (whose own guard would also map to `400`).
fn parse_width(value: &Json, path: &str) -> Result<u32, WireError> {
    let width = as_u64(value, path)?;
    if matches!(width, 8 | 32 | 64) {
        Ok(width as u32)
    } else {
        Err(WireError::new(path, "expected one of 8|32|64"))
    }
}

fn parse_macro(value: &Json, path: &str) -> Result<MacroRequest, WireError> {
    let kind = parse_adder_kind(need(value, path, "kind")?, &join(path, "kind"))?;
    let width = parse_width(need(value, path, "width")?, &join(path, "width"))?;
    let mut request = MacroRequest::new(kind, width);
    if let Some(scheme) = opt(value, "scheme") {
        request = request.scheme(parse_scheme(scheme, &join(path, "scheme"))?);
    }
    if let Some(seed) = opt(value, "seed") {
        request = request.seed(as_u64(seed, &join(path, "seed"))?);
    }
    Ok(request)
}

fn parse_macro_slice(value: &Json, path: &str) -> Result<MacroSliceRequest, WireError> {
    // One slice shares the macro request's fields; the required `bit`
    // index addresses the slice within the (width-keyed) prefix plan.
    let whole = parse_macro(value, path)?;
    let bit_path = join(path, "bit");
    let bit = as_u64(need(value, path, "bit")?, &bit_path)?;
    if bit >= u64::from(whole.width) {
        return Err(WireError::new(&bit_path, "expected a bit below the width"));
    }
    Ok(MacroSliceRequest {
        kind: whole.kind,
        width: whole.width,
        bit: bit as u32,
        scheme: whole.scheme,
        seed: whole.seed,
    })
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

/// Renders any engine response as its wire summary.
pub fn render_response(response: &ResponseKind) -> Json {
    match response {
        ResponseKind::Cell(r) => render_cell(r),
        ResponseKind::Library(lib) => render_library(lib),
        ResponseKind::Immunity(r) => render_immunity(r),
        ResponseKind::Flow(r) => render_flow(r),
        ResponseKind::Sweep(r) => render_sweep(r),
        ResponseKind::SweepCorner(row) => {
            let mut fields = match render_row(row) {
                Json::Obj(fields) => fields,
                _ => unreachable!("rows render as objects"),
            };
            fields.insert(0, ("type".to_string(), Json::str("sweep_corner")));
            Json::Obj(fields)
        }
        ResponseKind::Tran(r) => render_tran(r),
        ResponseKind::Repair(r) => render_repair(r),
        ResponseKind::Die(outcome) => {
            let mut fields = match render_die_row(outcome) {
                Json::Obj(fields) => fields,
                _ => unreachable!("die rows render as objects"),
            };
            fields.insert(0, ("type".to_string(), Json::str("die")));
            Json::Obj(fields)
        }
        ResponseKind::Optimize(report) => render_optimize(report),
        ResponseKind::Macro(report) => render_macro(report),
        ResponseKind::MacroSlice(outcome) => {
            let mut fields = match render_slice_row(outcome) {
                Json::Obj(fields) => fields,
                _ => unreachable!("slice rows render as objects"),
            };
            fields.insert(0, ("type".to_string(), Json::str("macro_slice")));
            Json::Obj(fields)
        }
    }
}

fn render_tran(result: &TranResult) -> Json {
    Json::obj([
        ("type", Json::str("tran")),
        ("points", Json::from(result.time.len())),
        ("time", result.time.iter().copied().collect::<Json>()),
        (
            "probes",
            Json::Obj(
                result
                    .probes
                    .iter()
                    .map(|(name, samples)| {
                        (name.clone(), samples.iter().copied().collect::<Json>())
                    })
                    .collect(),
            ),
        ),
    ])
}

fn render_cell(result: &CellResult) -> Json {
    let cell = &result.cell;
    Json::obj([
        ("type", Json::str("cell")),
        ("name", Json::str(&cell.name)),
        ("kind", Json::str(kind_name(cell.kind))),
        ("scheme", Json::str(scheme_name(cell.scheme))),
        ("cached", Json::from(result.cached)),
        ("width_lambda", Json::from(cell.width_lambda)),
        ("height_lambda", Json::from(cell.height_lambda)),
        ("footprint_l2", Json::from(cell.footprint_l2)),
        ("pun_active_area_l2", Json::from(cell.pun_active_area_l2)),
        ("pdn_active_area_l2", Json::from(cell.pdn_active_area_l2)),
        ("via_on_gate_count", Json::from(cell.via_on_gate_count)),
        (
            "pins",
            cell.pins
                .iter()
                .map(|(name, _)| name.as_str())
                .collect::<Json>(),
        ),
    ])
}

fn render_library(lib: &CellLibrary) -> Json {
    Json::obj([
        ("type", Json::str("library")),
        ("scheme", Json::str(scheme_name(lib.scheme))),
        ("cells", Json::from(lib.cells.len())),
        (
            "names",
            lib.cells.iter().map(|c| c.name.as_str()).collect::<Json>(),
        ),
    ])
}

fn render_immunity(report: &ImmunityReport) -> Json {
    Json::obj([
        ("type", Json::str("immunity")),
        ("cell", Json::str(&report.cell.name)),
        ("immune", Json::from(report.immune)),
        (
            "cert",
            report.cert.as_ref().map_or(Json::Null, |cert| {
                Json::obj([
                    ("immune", Json::from(cert.immune)),
                    ("segments_checked", Json::from(cert.segments_checked)),
                    ("harmful", Json::from(cert.harmful.len())),
                ])
            }),
        ),
        (
            "mc",
            report.mc.as_ref().map_or(Json::Null, |mc| {
                Json::obj([
                    ("tubes", Json::from(mc.tubes)),
                    ("failures", Json::from(mc.failures)),
                    ("metallic_failures", Json::from(mc.metallic_failures)),
                    ("failure_probability", Json::from(mc.failure_probability())),
                ])
            }),
        ),
    ])
}

fn render_flow(result: &FlowResult) -> Json {
    Json::obj([
        ("type", Json::str("flow")),
        ("netlist", Json::str(&result.netlist.name)),
        ("instances", Json::from(result.netlist.instances.len())),
        (
            "placement",
            Json::obj([
                ("width_l", Json::from(result.placement.width_l)),
                ("height_l", Json::from(result.placement.height_l)),
                ("area_l2", Json::from(result.placement.area_l2)),
                ("utilization", Json::from(result.placement.utilization)),
            ]),
        ),
        (
            "metrics",
            result.metrics.as_ref().map_or(Json::Null, |m| {
                Json::obj([
                    ("delay_s", Json::from(m.delay_s)),
                    ("energy_j", Json::from(m.energy_j)),
                ])
            }),
        ),
        ("gds_len", Json::from(result.gds.as_ref().map(Vec::len))),
    ])
}

/// The `row` stream event: row `index` of a job's feed.
pub(crate) fn row_event(index: usize, row: Json) -> Json {
    Json::obj([
        ("event", Json::str("row")),
        ("index", Json::from(index)),
        ("row", row),
    ])
}

pub(crate) fn render_corner(corner: &VariationCorner) -> Json {
    Json::obj([
        (
            "tubes_per_4lambda",
            Json::from(u64::from(corner.tubes_per_4lambda)),
        ),
        ("pitch_scale", Json::from(corner.pitch_scale)),
        ("metallic_fraction", Json::from(corner.metallic_fraction)),
        ("seed", Json::from(corner.seed)),
    ])
}

pub(crate) fn render_row(row: &CornerRow) -> Json {
    Json::obj([
        ("cell", Json::str(&row.cell)),
        ("kind", Json::str(kind_name(row.kind))),
        ("strength", Json::from(u64::from(row.strength))),
        ("corner", render_corner(&row.corner)),
        ("mc_tubes", Json::from(row.mc_tubes)),
        ("mc_failures", Json::from(row.mc_failures)),
        ("immune", Json::from(row.immune)),
        ("metallic_yield", Json::from(row.metallic_yield)),
        ("delay_s", Json::from(row.delay_s())),
        ("energy_j", Json::from(row.energy_j())),
        ("yield", Json::from(row.yield_frac())),
        ("liberty", Json::from(row.liberty.clone())),
        ("waveform", Json::from(row.waveform.clone())),
    ])
}

impl RenderRow for CornerRow {
    fn json(&self) -> Json {
        render_row(self)
    }

    fn frame(&self, _index: usize) -> Vec<u8> {
        encode::frame(encode::FRAME_ROW, &encode::encode_row(self))
    }
}

fn render_summary(summary: &CornerSummary) -> Json {
    Json::obj([
        ("corner_index", Json::from(summary.corner_index)),
        ("corner", render_corner(&summary.corner)),
        ("min_yield", Json::from(summary.min_yield)),
        ("max_delay_s", Json::from(summary.max_delay_s)),
        ("total_energy_j", Json::from(summary.total_energy_j)),
    ])
}

fn render_sweep(report: &SweepReport) -> Json {
    Json::obj([
        ("type", Json::str("sweep")),
        ("cells", Json::from(report.cells)),
        (
            "corners",
            report.corners.iter().map(render_corner).collect::<Json>(),
        ),
        ("rows", report.rows.iter().map(render_row).collect::<Json>()),
        ("pareto", report.pareto.iter().copied().collect::<Json>()),
        (
            "best_corner",
            report
                .best_corner
                .as_ref()
                .map_or(Json::Null, render_summary),
        ),
        (
            "worst_corner",
            report
                .worst_corner
                .as_ref()
                .map_or(Json::Null, render_summary),
        ),
    ])
}

pub(crate) fn render_die_row(outcome: &DieOutcome) -> Json {
    Json::obj([
        ("die", Json::from(outcome.die)),
        ("sites", Json::from(u64::from(outcome.sites))),
        (
            "defective_sites",
            Json::from(u64::from(outcome.defective_sites)),
        ),
        ("repaired", Json::from(outcome.repaired)),
        ("solver", Json::str(outcome.solver)),
        ("spares_used", Json::from(u64::from(outcome.spares_used))),
        (
            "assignment",
            outcome
                .assignment
                .iter()
                .map(|site| Json::from(site.map(u64::from)))
                .collect::<Json>(),
        ),
    ])
}

impl RenderRow for DieOutcome {
    fn json(&self) -> Json {
        render_die_row(self)
    }

    fn frame(&self, _index: usize) -> Vec<u8> {
        encode::frame(encode::FRAME_DIE, &encode::encode_die(self))
    }
}

pub(crate) fn render_candidate(row: &CandidateRow) -> Json {
    Json::obj([
        ("index", Json::from(row.index)),
        ("pass", Json::from(u64::from(row.pass))),
        ("axis", Json::str(row.axis.name())),
        (
            "tubes_per_4lambda",
            Json::from(u64::from(row.outcome.tubes_per_4lambda)),
        ),
        ("pitch_scale", Json::from(row.outcome.pitch_scale)),
        (
            "metallic_fraction",
            Json::from(row.outcome.metallic_fraction),
        ),
        ("rows", Json::from(row.outcome.rows)),
        ("min_yield", Json::from(row.outcome.min_yield)),
        ("max_delay_s", Json::from(row.outcome.max_delay_s)),
        ("total_energy_j", Json::from(row.outcome.total_energy_j)),
        ("score", Json::from(row.score)),
        ("meets_target", Json::from(row.meets_target)),
        ("best_so_far", Json::from(row.best_so_far)),
    ])
}

impl RenderRow for CandidateRow {
    fn json(&self) -> Json {
        render_candidate(self)
    }
}

fn render_target(target: &OptimizeTarget) -> Json {
    Json::obj([
        ("min_yield", Json::from(target.min_yield)),
        ("max_delay_s", Json::from(target.max_delay_s)),
        ("max_energy_j", Json::from(target.max_energy_j)),
    ])
}

fn render_optimize(report: &OptimizeReport) -> Json {
    Json::obj([
        ("type", Json::str("optimize")),
        ("cells", Json::from(report.cells)),
        ("target", render_target(&report.target)),
        ("passes", Json::from(u64::from(report.passes))),
        (
            "candidates",
            report
                .candidates
                .iter()
                .map(render_candidate)
                .collect::<Json>(),
        ),
        ("best_index", Json::from(report.best_index)),
        ("converged", Json::from(report.converged)),
    ])
}

pub(crate) fn render_slice_row(outcome: &SliceOutcome) -> Json {
    Json::obj([
        ("bit", Json::from(u64::from(outcome.bit))),
        ("fanout", Json::from(u64::from(outcome.fanout))),
        ("load_f", Json::from(outcome.load_f)),
        ("sum_delay_s", Json::from(outcome.sum_delay_s)),
        ("carry_delay_s", Json::from(outcome.carry_delay_s)),
    ])
}

impl RenderRow for SliceOutcome {
    fn json(&self) -> Json {
        render_slice_row(self)
    }
}

fn render_macro(report: &MacroReport) -> Json {
    Json::obj([
        ("type", Json::str("macro")),
        ("kind", Json::str(report.kind.name())),
        ("width", Json::from(u64::from(report.width))),
        ("scheme", Json::str(scheme_name(report.scheme))),
        (
            "slices",
            report.slices.iter().map(render_slice_row).collect::<Json>(),
        ),
        ("critical_path_s", Json::from(report.critical_path_s)),
        ("area_l2", Json::from(report.area_l2)),
        ("gate_count", Json::from(report.gate_count)),
        ("fa_instances", Json::from(report.fa_instances)),
        ("spice_len", Json::from(report.spice.len())),
        ("gds_len", Json::from(report.gds.len())),
    ])
}

fn render_repair(report: &RepairReport) -> Json {
    Json::obj([
        ("type", Json::str("repair")),
        ("cells", Json::from(report.cells)),
        ("spares", Json::from(u64::from(report.spares))),
        (
            "dies",
            report.dies.iter().map(render_die_row).collect::<Json>(),
        ),
        ("repaired_dies", Json::from(report.repaired_dies)),
        (
            "unrepairable",
            report.unrepairable.iter().copied().collect::<Json>(),
        ),
        ("spares_used", Json::from(report.spares_used)),
        (
            "yield_after_repair",
            Json::from(report.yield_after_repair()),
        ),
        ("spare_utilization", Json::from(report.spare_utilization())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn req(doc: &str) -> Result<RequestKind, WireError> {
        parse_request(&parse(doc).unwrap())
    }

    #[test]
    fn parses_every_request_type() {
        assert!(matches!(
            req(r#"{"type":"cell","kind":"nand3","strength":2}"#).unwrap(),
            RequestKind::Cell(c) if c.kind == StdCellKind::Nand(3) && c.strength == 2
        ));
        assert!(matches!(
            req(r#"{"type":"library","scheme":"s2"}"#).unwrap(),
            RequestKind::Library(l) if l.scheme == Scheme::Scheme2
        ));
        assert!(matches!(
            req(r#"{"type":"immunity","cell":{"kind":"inv"},"engine":"both","mc":{"tubes":9}}"#)
                .unwrap(),
            RequestKind::Immunity(ImmunityRequest {
                engine: ImmunityEngine::Both(mc),
                ..
            }) if mc.tubes == 9
        ));
        assert!(matches!(
            req(r#"{"type":"flow","source":"full_adder","target":"cmos"}"#).unwrap(),
            RequestKind::Flow(FlowRequest {
                target: FlowTarget::Cmos,
                ..
            })
        ));
        let RequestKind::Sweep(sweep) = req(
            r#"{"type":"sweep","cells":[{"kind":"inv"}],"metrics":"immunity",
                "grid":{"tube_counts":[26,10],"seeds":[1,2]}}"#,
        )
        .unwrap() else {
            panic!("expected a sweep");
        };
        assert_eq!(sweep.grid.len(), 4);
        assert_eq!(sweep.metrics, SweepMetrics::IMMUNITY);
        assert!(matches!(
            req(r#"{"type":"sweep_corner","cell":{"kind":"inv"},"corner":{"seed":3}}"#).unwrap(),
            RequestKind::SweepCorner(c) if c.corner.seed == 3
        ));
        let RequestKind::Tran(tran) = req(r#"{"type":"tran","deck":"V1 a 0 DC 1\n.end","dt":1e-11,
                "t_stop":1e-9,"probes":["a"]}"#)
        .unwrap() else {
            panic!("expected a tran");
        };
        assert_eq!(tran.dt, 1e-11);
        assert_eq!(tran.probes, vec!["a".to_string()]);
    }

    #[test]
    fn field_paths_name_the_offender() {
        let e = req(r#"{"type":"sweep","cells":[{"kind":"inv"},{"kind":"frob"}]}"#).unwrap_err();
        assert!(e.message.starts_with("cells[1].kind"), "{e}");
        let e = req(r#"{"type":"cell"}"#).unwrap_err();
        assert!(e.message.starts_with("kind: missing"), "{e}");
        let e = req(r#"{"type":"immunity","cell":{"kind":"inv"},"engine":"maybe"}"#).unwrap_err();
        assert!(e.message.starts_with("engine:"), "{e}");
        let e = req(r#"{"type":"warp"}"#).unwrap_err();
        assert!(e.message.contains("unknown request type"), "{e}");
        let e = req(r#"{"type":"tran","deck":".end","dt":-1e-11,"t_stop":1e-9}"#).unwrap_err();
        assert!(e.message.starts_with("dt: expected a positive"), "{e}");
        let e = req(r#"{"type":"tran","deck":".end","dt":1e-11,"t_stop":0}"#).unwrap_err();
        assert!(e.message.starts_with("t_stop: expected a positive"), "{e}");
    }

    #[test]
    fn parses_optimize_requests() {
        let RequestKind::Optimize(opt) = req(r#"{"type":"optimize","cells":[{"kind":"inv"}],
                "grid":{"tube_counts":[6,26],"pitch_scales":[1.0,1.5]},
                "target":{"min_yield":0.9,"max_delay_s":5e-11},
                "passes":3,"metrics":"immunity","mc":{"tubes":100}}"#)
        .unwrap() else {
            panic!("expected an optimize");
        };
        assert_eq!(opt.grid.tube_counts, vec![6, 26]);
        assert_eq!(opt.target.min_yield, Some(0.9));
        assert_eq!(opt.target.max_energy_j, None);
        assert_eq!(opt.passes, 3);
        assert_eq!(opt.mc.tubes, 100);
        // passes must stay at least 1.
        let e = req(r#"{"type":"optimize","cells":[{"kind":"inv"}],"passes":0}"#).unwrap_err();
        assert!(e.message.starts_with("passes:"), "{e}");
    }

    #[test]
    fn grid_axes_reject_non_finite_and_negative_values() {
        let e = req(r#"{"type":"sweep","cells":[{"kind":"inv"}],
                "grid":{"pitch_scales":[1.0,-0.5]}}"#)
        .unwrap_err();
        assert!(e.message.starts_with("grid.pitch_scales[1]"), "{e}");
        assert!(e.message.contains("finite non-negative"), "{e}");
        let e = req(r#"{"type":"optimize","cells":[{"kind":"inv"}],
                "grid":{"metallic_fractions":[-1.0]}}"#)
        .unwrap_err();
        assert!(e.message.starts_with("grid.metallic_fractions[0]"), "{e}");
        // Zero (including a parsed `-0.0`) is a valid axis value.
        assert!(req(r#"{"type":"sweep","cells":[{"kind":"inv"}],
                "grid":{"metallic_fractions":[-0.0, 0.02]}}"#,)
        .is_ok());
    }

    #[test]
    fn integers_past_u32_answer_400_instead_of_wrapping() {
        // 2^32 + 26 and 2^32 + 1 used to wrap to 26 and 1: an answer to a
        // request the client never sent.
        for (body, field) in [
            (
                r#"{"type":"sweep","cells":[{"kind":"inv"}],"grid":{"tube_counts":[4294967322]}}"#,
                "grid.tube_counts[0]",
            ),
            (
                r#"{"type":"sweep_corner","cell":{"kind":"inv"},"corner":{"tubes_per_4lambda":4294967322}}"#,
                "corner.tubes_per_4lambda",
            ),
            (
                r#"{"type":"repair","cells":[{"kind":"inv"}],"params":{"tubes_per_site":4294967296}}"#,
                "params.tubes_per_site",
            ),
            (
                r#"{"type":"repair","cells":[{"kind":"inv"}],"adjacent":[[0,4294967296]]}"#,
                "adjacent[0][1]",
            ),
            (
                r#"{"type":"repair","cells":[{"kind":"inv"}],"spares":4294967297}"#,
                "spares",
            ),
            (
                r#"{"type":"optimize","cells":[{"kind":"inv"}],"passes":4294967296}"#,
                "passes",
            ),
        ] {
            let e = req(body).unwrap_err();
            assert!(e.message.starts_with(field), "{field}: {e}");
            assert!(e.message.contains("at most 4294967295"), "{field}: {e}");
        }
        // The largest u32 still parses.
        let RequestKind::Repair(lot) =
            req(r#"{"type":"repair","cells":[{"kind":"inv"}],"spares":4294967295}"#).unwrap()
        else {
            panic!("expected a repair lot");
        };
        assert_eq!(lot.spares, u32::MAX);
    }

    #[test]
    fn invalid_request_errors_answer_400_with_the_field_path() {
        let (status, body) = error_response(&CnfetError::InvalidRequest {
            field: "grid.metallic_fractions[1]".into(),
            message: "expected a finite non-negative number, got NaN".into(),
        });
        assert_eq!(status, 400);
        let error = body.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("invalid_request"));
        assert!(error
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("grid.metallic_fractions[1]"));
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in StdCellKind::ALL {
            let name = kind_name(kind);
            assert_eq!(parse_kind(&Json::str(&name), "kind").unwrap(), kind);
        }
    }

    #[test]
    fn error_payloads_are_structured() {
        let (status, body) = error_response(&CnfetError::MissingCell("X".into()));
        assert_eq!(status, 422);
        let error = body.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("missing_cell"));
        assert!(error
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("`X`"));
        assert_eq!(error_response(&CnfetError::Canceled).0, 503);

        // Simulation failures split by cause on the wire.
        let (status, body) = error_response(&CnfetError::Sim(MnaError::Singular));
        assert_eq!(status, 422);
        let kind = body.get("error").unwrap().get("kind").unwrap();
        assert_eq!(kind.as_str(), Some("sim_singular"));
        let (_, body) = error_response(&CnfetError::Sim(MnaError::NoConvergence { at_step: 7 }));
        let error = body.get("error").unwrap();
        assert_eq!(
            error.get("kind").unwrap().as_str(),
            Some("sim_no_convergence")
        );
        assert!(error
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("step 7"));
    }
}
