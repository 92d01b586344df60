//! The traced run: spans recorded from the benchmark's own files around
//! each call into a layer, kept in memory and written out at the end.
//!
//! Composites are replayed bottom-up through their public sub-requests
//! (`SweepCornerRequest`, `DieRequest`, `MacroSliceRequest`,
//! `OptimizeCandidateRequest`) on a pool of width 1: every child runs in
//! its own span first, so the composite's own `Session::run` afterwards
//! finds its children cached and its span times only the fan-out itself
//! (submit, harvest, help and reduce). Transient decks are replayed
//! through the crate functions `TranRequest` calls (parse, lower,
//! analyze, integrate) on a benchmark-owned MNA engine, whose solver
//! counters become the `mna.*` metrics.

use cnfet::core::{Scheme, StdCellKind};
use cnfet::dk::CellLibrary;
use cnfet::flow::{assemble_macro_gds, place_macro, MacroAdder};
use cnfet::mna::{Engine, Pattern, TranSpec};
use cnfet::{
    CacheKey, CellRequest, CellResult, DieRequest, LibraryRequest, MacroRequest, MacroSliceRequest,
    OptimizeCandidateRequest, OptimizeReport, OptimizeRequest, RepairRequest, RequestKind,
    ResponseKind, Session, SessionRequest, SweepCornerRequest, SweepRequest, TranRequest,
    TranResult,
};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The parent of a root span, and the id a disabled tracer hands out.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Timed outside its parent's interval (a second call of work the
    /// parent already did): it still comes off the parent's self time,
    /// and off its request's wall time.
    pub out_of_line: bool,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span recorder plus the counters recorded at the same
/// boundaries.
pub struct Tracer {
    /// A disabled tracer records nothing: the untraced replay runs the
    /// same code with every span and counter call a no-op.
    enabled: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
    counters: BTreeMap<&'static str, f64>,
    /// Summed duration of every closed out-of-line span.
    out_of_line_ns: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            enabled: true,
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            request: 0,
            counters: BTreeMap::new(),
            out_of_line_ns: 0,
        }
    }
}

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            spans: Vec::new(),
            ..Tracer::default()
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: u32, out_of_line: bool) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request: self.request,
            parent,
            start_ns,
            end_ns: start_ns,
            out_of_line,
        });
        self.stack.push(id);
        id
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.open(name, parent, false)
    }

    /// Opens an out-of-line span under an already closed `parent`.
    pub fn begin_out_of_line(&mut self, name: &'static str, parent: u32) -> u32 {
        self.open(name, parent, true)
    }

    /// Opens the root span of request `request`.
    pub fn begin_request(&mut self, request: u32, name: &'static str) -> u32 {
        self.request = request;
        self.open(name, NO_PARENT, false)
    }

    pub fn end(&mut self, id: u32) {
        if id == NO_PARENT {
            return;
        }
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        if span.out_of_line {
            self.out_of_line_ns += span.ns();
        }
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
    }

    pub fn rename(&mut self, id: u32, name: &'static str) {
        if id != NO_PARENT {
            self.spans[id as usize].name = name;
        }
    }

    pub fn count(&mut self, counter: &'static str, by: f64) {
        if !self.enabled {
            return;
        }
        *self.counters.entry(counter).or_default() += by;
    }

    pub fn out_of_line_ns(&self) -> u64 {
        self.out_of_line_ns
    }

    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    /// Times `f` in a span of its own.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Times `f` out of line under the innermost open span.
    pub fn time_out_of_line<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let id = self.begin_out_of_line(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Writes every span as one tab-separated line.
    pub fn render(&self) -> String {
        let mut out = String::from("id\tname\trequest\tparent\tstart_ns\tend_ns\tout_of_line\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name, s.request, s.start_ns, s.end_ns, s.out_of_line
            );
        }
        out
    }
}

/// Calls and self time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layer {
    pub calls: u64,
    pub self_ns: f64,
    pub total_ns: f64,
}

/// Summed duration of each span's direct children.
fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut out = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        out[s.parent as usize] += s.ns();
    }
    out
}

/// Per-name aggregation: a span's self time is its duration minus its
/// direct children's durations.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let child_ns = child_ns(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.self_ns += s.ns().saturating_sub(children) as f64;
        layer.total_ns += s.ns() as f64;
    }
    out
}

/// Span names that are not layers: request roots, and the served
/// round trip whose in-process share the serve layers break down.
pub fn is_layer(name: &str) -> bool {
    !matches!(name, "request" | "setup" | "serve.roundtrip")
}

/// Coverage of the traced requests: summed layer self time over summed
/// request wall time (each root's duration minus its out-of-line spans).
pub fn coverage(spans: &[Span]) -> f64 {
    let mut is_request = vec![false; spans.len()];
    let mut wall = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NO_PARENT && s.name == "request" {
            is_request[i] = true;
            wall += s.ns() as f64;
        }
    }
    // Root of each span: spans open after their parents, so one forward
    // pass resolves every ancestor chain.
    let mut root = vec![0u32; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = if s.parent == NO_PARENT {
            i as u32
        } else {
            root[s.parent as usize]
        };
    }
    let child_ns = child_ns(spans);
    let mut covered = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if !is_request[root[i] as usize] || s.parent == NO_PARENT {
            continue;
        }
        if s.out_of_line {
            wall -= s.ns() as f64;
        }
        if is_layer(s.name) {
            covered += s.ns().saturating_sub(child_ns[i]) as f64;
        }
    }
    if wall > 0.0 {
        covered / wall
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// Bottom-up replay of in-process requests
// ---------------------------------------------------------------------------

/// The full adder's sub-cell mix every macro slice generates (a copy of
/// the engine's private list; `Replayer::sub_request` fails the run if
/// the two drift apart).
const FA_CELL_MIX: [(StdCellKind, u8); 4] = [
    (StdCellKind::Nand(2), 2),
    (StdCellKind::Inv, 4),
    (StdCellKind::Inv, 7),
    (StdCellKind::Inv, 9),
];

/// The cache key a direct caller of this request would build.
pub fn cache_key(request: &RequestKind, session: &Session) -> Option<CacheKey> {
    match request {
        RequestKind::Cell(r) => r.cache_key(session),
        RequestKind::Library(r) => r.cache_key(session),
        RequestKind::Immunity(r) => r.cache_key(session),
        RequestKind::Flow(r) => r.cache_key(session),
        RequestKind::Sweep(r) => r.cache_key(session),
        RequestKind::SweepCorner(r) => r.cache_key(session),
        RequestKind::Repair(r) => r.cache_key(session),
        RequestKind::Die(r) => r.cache_key(session),
        RequestKind::Optimize(r) => r.cache_key(session),
        RequestKind::Macro(r) => r.cache_key(session),
        RequestKind::MacroSlice(r) => r.cache_key(session),
        RequestKind::Tran(r) => r.cache_key(session),
    }
}

pub struct Replayer<'a> {
    pub tr: &'a mut Tracer,
    pub session: &'a Session,
}

type Res<T> = Result<T, String>;

fn err(e: cnfet::CnfetError) -> String {
    e.to_string()
}

impl Replayer<'_> {
    fn leaf<R: SessionRequest>(&mut self, name: &'static str, request: &R) -> Res<R::Output> {
        let id = self.tr.begin(name);
        let out = self.session.run(request);
        self.tr.end(id);
        out.map_err(err)
    }

    fn cell(&mut self, request: &CellRequest) -> Res<CellResult> {
        let id = self.tr.begin("core.generate");
        let out = self.session.run(request);
        self.tr.end(id);
        let out = out.map_err(err)?;
        if out.cached {
            self.tr.rename(id, "cache.hit");
        }
        Ok(out)
    }

    fn library_cell(&self, kind: StdCellKind, strength: u8, scheme: Scheme) -> CellRequest {
        CellRequest {
            kind,
            strength,
            options: Some(cnfet::dk::library_options(self.session.kit(), scheme)),
            name: Some(CellLibrary::cell_name(kind, strength)),
        }
    }

    fn library(&mut self, request: LibraryRequest) -> Res<Arc<CellLibrary>> {
        let kit = self.session.kit();
        let mut cells = Vec::new();
        for &kind in &kit.functions {
            for &strength in &kit.strengths {
                if kind == StdCellKind::Inv || strength <= 2 {
                    cells.push(self.library_cell(kind, strength, request.scheme));
                }
            }
        }
        for cell in &cells {
            self.cell(cell)?;
        }
        let hits = self.session.stats().libraries.hits;
        let id = self.tr.begin("dk.library");
        let out = self.session.run(&request);
        self.tr.end(id);
        if self.session.stats().libraries.hits > hits {
            self.tr.rename(id, "cache.hit");
        }
        out.map_err(err)
    }

    fn corner(&mut self, request: &SweepCornerRequest) -> Res<cnfet::CornerRow> {
        self.cell(&request.cell)?;
        let characterizes = request.metrics.timing || request.metrics.liberty;
        let name = match (characterizes, request.metrics.immunity) {
            (true, true) => "sweep.corner",
            (true, false) => "dk.characterize",
            (false, _) => "immunity.mc",
        };
        self.sub_request(name, request, |s| s.sweeps)
    }

    /// A composite's sub-request in a span of its own, renamed
    /// `cache.hit` when its class (`class`) counted no miss. Its cells
    /// were generated before, each in its own span: a cell miss inside
    /// this span would book generation under `name`, so it fails the run.
    fn sub_request<R: SessionRequest>(
        &mut self,
        name: &'static str,
        request: &R,
        class: fn(&cnfet::SessionStats) -> cnfet::RequestStats,
    ) -> Res<R::Output> {
        let before = self.session.stats();
        let id = self.tr.begin(name);
        let out = self.session.run(request);
        self.tr.end(id);
        let after = self.session.stats();
        if after.cells.misses != before.cells.misses {
            return Err(format!("{name} generated cells inside its span"));
        }
        if class(&after).misses == class(&before).misses {
            self.tr.rename(id, "cache.hit");
        }
        out.map_err(err)
    }

    fn sweep(&mut self, request: &SweepRequest) -> Res<Arc<cnfet::SweepReport>> {
        let corners = request.grid.corners();
        for cell in &request.cells {
            for &corner in &corners {
                self.corner(&SweepCornerRequest {
                    cell: cell.clone(),
                    corner,
                    metrics: request.metrics,
                    mc: request.mc.clone(),
                    loads_f: request.loads_f.clone(),
                })?;
            }
        }
        self.tr.count(
            "fanout.children",
            (request.cells.len() * corners.len()) as f64,
        );
        self.leaf("fanout", request)
    }

    fn repair(&mut self, request: &RepairRequest) -> Res<Arc<cnfet::RepairReport>> {
        for die in 0..request.dies {
            let die_request = DieRequest {
                cells: request.cells.clone(),
                die,
                base_seed: request.base_seed,
                spares: request.spares,
                params: request.params,
                solver: request.solver,
                adjacent: request.adjacent.clone(),
            };
            for cell in &die_request.cells {
                self.cell(cell)?;
            }
            let outcome = self.leaf("repair.die", &die_request)?;
            self.tr.count("repair.dies", 1.0);
            if outcome.solver == "sat" {
                self.tr.count("repair.sat_dies", 1.0);
            }
        }
        self.tr.count("fanout.children", request.dies as f64);
        self.leaf("fanout", request)
    }

    fn slice(&mut self, request: &MacroSliceRequest) -> Res<cnfet::SliceOutcome> {
        for (kind, strength) in FA_CELL_MIX {
            let cell = self.library_cell(kind, strength, request.scheme);
            self.cell(&cell)?;
        }
        self.sub_request("dk.characterize", request, |s| s.macros)
    }

    fn macro_adder(&mut self, request: &MacroRequest) -> Res<Arc<cnfet::MacroReport>> {
        for bit in 0..request.width {
            self.slice(&MacroSliceRequest {
                kind: request.kind,
                width: request.width,
                bit,
                scheme: request.scheme,
                seed: request.seed,
            })?;
        }
        self.tr.count("fanout.children", f64::from(request.width));
        let lib = self.library(LibraryRequest::new(request.scheme))?;
        let fanout = self.tr.begin("fanout");
        let report = self.session.run(request);
        self.tr.end(fanout);
        let report = report.map_err(err)?;
        // The hierarchy assembly the macro just did, timed out of line on
        // the same inputs so placement, GDS and SPICE get spans of their
        // own (and checked against the report's artifacts).
        let adder = MacroAdder::new(request.kind, request.width);
        let id = self.tr.begin_out_of_line("flow.place", fanout);
        let placement = place_macro(&adder, &lib);
        self.tr.end(id);
        let id = self.tr.begin_out_of_line("flow.gds", fanout);
        let gds = assemble_macro_gds(&adder, &placement, &lib);
        self.tr.end(id);
        let id = self.tr.begin_out_of_line("flow.spice", fanout);
        let spice = adder.to_spice();
        self.tr.end(id);
        if gds != report.gds || spice != report.spice {
            return Err("macro artifacts differ from their replayed assembly".into());
        }
        Ok(report)
    }

    fn optimize(
        &mut self,
        request: &OptimizeRequest,
        plan: &OptimizeReport,
    ) -> Res<Arc<OptimizeReport>> {
        let mut seen = HashSet::new();
        for row in &plan.candidates {
            let o = &row.outcome;
            let coords = (
                o.tubes_per_4lambda,
                o.pitch_scale.to_bits(),
                o.metallic_fraction.to_bits(),
            );
            if !seen.insert(coords) {
                continue;
            }
            let candidate = OptimizeCandidateRequest {
                cells: request.cells.clone(),
                tubes_per_4lambda: o.tubes_per_4lambda,
                pitch_scale: o.pitch_scale,
                metallic_fraction: o.metallic_fraction,
                seeds: request.grid.seeds.clone(),
                metrics: request.metrics,
                mc: request.mc.clone(),
                loads_f: request.loads_f.clone(),
            };
            self.sweep(&candidate.sweep_request())?;
            self.leaf("fanout", &candidate)?;
        }
        self.tr
            .count("fanout.children", plan.candidates.len() as f64);
        let report = self.leaf("fanout", request)?;
        if report.render() != plan.render() {
            return Err("replayed search diverged from its plan".into());
        }
        Ok(report)
    }

    /// `TranRequest::execute`, call by call, on a benchmark-owned engine.
    fn tran(&mut self, request: &TranRequest) -> Res<TranResult> {
        let circuit = self
            .tr
            .time("spice.parse", || {
                cnfet::spice::Circuit::from_spice(&request.deck)
            })
            .map_err(|e| e.to_string())?;
        let probes: Vec<(String, usize)> = (1..circuit.node_count())
            .map(|n| (circuit.node_name(cnfet::spice::Node(n)).to_string(), n))
            .collect();
        let mna = self
            .tr
            .time("spice.lower", || cnfet::spice::to_mna(&circuit));
        let pattern = self
            .tr
            .time("mna.analyze", || Arc::new(Pattern::analyze(&mna)));
        let id = self.tr.begin("mna.tran");
        let mut engine = Engine::new(pattern);
        let wave = engine.tran(&mna, &TranSpec::new(request.dt, request.t_stop));
        self.tr.end(id);
        let stats = engine.stats();
        self.tr
            .count("mna.factorizations", stats.factorizations as f64);
        self.tr
            .count("mna.refactorizations", stats.refactorizations as f64);
        self.tr.count("mna.solves", stats.solves as f64);
        let wave = match wave {
            Ok(wave) => wave,
            Err(e) => {
                self.tr.count("mna.failures", 1.0);
                return Err(e.to_string());
            }
        };
        self.tr
            .count("mna.tran.steps", wave.len().saturating_sub(1) as f64);
        Ok(TranResult {
            time: wave.time().to_vec(),
            probes: probes
                .into_iter()
                .map(|(name, n)| (name, wave.voltage(n).to_vec()))
                .collect(),
        })
    }

    /// Replays one request bottom-up. `plan` is the search an optimize
    /// request will walk (from an untraced planning run).
    pub fn exec(
        &mut self,
        request: &RequestKind,
        plan: Option<&OptimizeReport>,
    ) -> Res<ResponseKind> {
        use cnfet::ImmunityEngine;
        Ok(match request {
            RequestKind::Cell(r) => ResponseKind::Cell(self.cell(r)?),
            RequestKind::Library(r) => ResponseKind::Library(self.library(*r)?),
            RequestKind::Immunity(r) => {
                self.cell(&r.cell)?;
                let name = match r.engine {
                    ImmunityEngine::Certify => "immunity.certify",
                    ImmunityEngine::MonteCarlo(_) => "immunity.mc",
                    ImmunityEngine::Both(_) => "immunity.both",
                };
                ResponseKind::Immunity(self.leaf(name, r)?)
            }
            RequestKind::Flow(r) => {
                let scheme = match r.target {
                    cnfet::FlowTarget::Cnfet(scheme) => scheme,
                    cnfet::FlowTarget::Cmos => Scheme::Scheme1,
                };
                self.library(LibraryRequest::new(scheme))?;
                ResponseKind::Flow(self.leaf("flow.run", r)?)
            }
            RequestKind::Sweep(r) => ResponseKind::Sweep(self.sweep(r)?),
            RequestKind::SweepCorner(r) => ResponseKind::SweepCorner(self.corner(r)?),
            RequestKind::Repair(r) => ResponseKind::Repair(self.repair(r)?),
            RequestKind::Die(r) => {
                for cell in &r.cells {
                    self.cell(cell)?;
                }
                ResponseKind::Die(self.leaf("repair.die", r)?)
            }
            RequestKind::Optimize(r) => {
                let plan = plan.ok_or("optimize replay needs its plan")?;
                ResponseKind::Optimize(self.optimize(r, plan)?)
            }
            RequestKind::Macro(r) => ResponseKind::Macro(self.macro_adder(r)?),
            RequestKind::MacroSlice(r) => ResponseKind::MacroSlice(self.slice(r)?),
            RequestKind::Tran(r) => ResponseKind::Tran(self.tran(r)?),
        })
    }
}

/// Plans an optimize request on an untraced session (the candidate
/// sequence depends on earlier candidates' outcomes).
pub fn plan(planner: &Session, request: &RequestKind) -> Res<Option<Arc<OptimizeReport>>> {
    match request {
        RequestKind::Optimize(r) => planner.run(r).map(Some).map_err(err),
        _ => Ok(None),
    }
}

/// Replays a request list bottom-up on a session (a traced set-up).
pub fn replay_all(tr: &mut Tracer, session: &Session, requests: &[RequestKind]) -> Res<()> {
    let planner = Session::builder().batch_workers(1).build();
    for request in requests {
        let plan = plan(&planner, request)?;
        Replayer { tr, session }.exec(request, plan.as_deref())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start: u64, end: u64, ool: bool) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns: start,
            end_ns: end,
            out_of_line: ool,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span("request", NO_PARENT, 0, 100, false),
            span("fanout", 0, 10, 90, false),
            span("repair.die", 1, 20, 50, false),
            span("repair.die", 1, 50, 80, false),
        ];
        let l = layers(&spans);
        assert_eq!(l["request"].self_ns, 20.0);
        assert_eq!(l["fanout"].self_ns, 20.0);
        assert_eq!(l["repair.die"].calls, 2);
        assert_eq!(l["repair.die"].self_ns, 60.0);
        assert!((coverage(&spans) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn out_of_line_spans_leave_the_wall_time() {
        // fanout [10, 60) already contains the flow work, timed again
        // out of line in [60, 80).
        let spans = vec![
            span("request", NO_PARENT, 0, 80, false),
            span("fanout", 0, 10, 60, false),
            span("flow.place", 1, 60, 80, true),
        ];
        let l = layers(&spans);
        assert_eq!(l["fanout"].self_ns, 30.0);
        assert_eq!(l["flow.place"].self_ns, 20.0);
        // Wall 80 - 20 out of line = 60; layers cover 30 + 20.
        assert!((coverage(&spans) - 50.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_renders() {
        let mut tr = Tracer::default();
        let root = tr.begin_request(7, "request");
        let child = tr.begin("cache.hit");
        tr.end(child);
        tr.end(root);
        tr.count("jobs.jobs", 2.0);
        assert_eq!(tr.spans[1].parent, root);
        assert_eq!(tr.spans[1].request, 7);
        assert_eq!(tr.counter("jobs.jobs"), 2.0);
        assert_eq!(tr.render().lines().count(), 3);
    }
}
