//! Seeded request generators. Every input the engine sees in a run is
//! built here from `--seed`, before any timing starts.

use crate::rng::{Rng, Zipf};
use cnfet::core::{GenerateOptions, Scheme, StdCellKind};
use cnfet::immunity::McOptions;
use cnfet::logic::AdderKind;
use cnfet::repair::DefectParams;
use cnfet::{
    CellRequest, FlowRequest, FlowSource, ImmunityRequest, LibraryRequest, MacroRequest,
    OptimizeRequest, OptimizeTarget, RepairRequest, RequestKind, SweepMetrics, SweepRequest,
    TranRequest, VariationGrid,
};
use cnfet_serve::json::Json;
use std::fmt::Write as _;

/// One caller operation of a closed loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Session::run` of a request of the warm set (index), which must
    /// equal that request's first execution.
    Hit(u32),
    /// `Session::run` of the caller's next never-seen request.
    Fresh,
    /// `Session::run_batch` of the 24-cell matrix.
    Batch,
    /// `Session::submit_all` of the 38-request mix, waiting on every job.
    SubmitAll,
    /// One HTTP exchange of the served table (index).
    Http(u32),
}

/// A fresh-request list of at least `n` entries for the two cold
/// workloads: `timing` selects `cold_timing`'s stream, else `cold_yield`'s.
pub fn cold_stream(seed: u64, n: usize, timing: bool) -> Vec<RequestKind> {
    let mut rng = Rng::new(seed, if timing { 1 } else { 2 });
    let mut out = Vec::with_capacity(n);
    let mut cycle = 0u64;
    // A fixed per-cycle composition keeps the latency distribution's shape
    // the same on every seed; the seed picks every request's parameters.
    // Sizes are stratified over cycles (deck node counts and lot die
    // counts rotate through bands), so a run's total work varies little
    // from seed to seed. The shares put every reported percentile inside
    // one component's spread rather than on the edge between two, where
    // a small change of share would move it far:
    // - cold_timing, 6 per cycle: 2 sweeps (33%) < 3 decks (50%) < 1
    //   macro (17%), so p50 falls among the decks, p90 two fifths of the
    //   way into the macros' spread and p99 near its top;
    // - cold_yield, 8 per cycle: 3 sweeps (38%) < 3 searches (38%) < 2
    //   lots (25%), so p50 falls among the searches, p90 and p99 among
    //   the lots.
    while out.len() < n {
        if timing {
            out.push(macro_request(&mut rng, cycle));
            for k in 0..3u64 {
                if k < 2 {
                    out.push(timing_sweep(&mut rng, 1 + ((2 * cycle + k) % 3) as usize));
                }
                let band = (3 * cycle + k) % 4;
                let lo = 10 + 8 * band;
                let rlc = (cycle + k).is_multiple_of(4);
                out.push(ladder_deck(&mut rng, lo, lo + 7, rlc, 2e-12, 4e-9));
            }
        } else {
            let band = 100 * (cycle % 4);
            let constrained = cycle % 2 == 1;
            out.push(repair_lot(&mut rng, 200 + band, 299 + band, constrained));
            out.push(immunity_sweep(&mut rng, 2));
            out.push(optimize_search(&mut rng, 1));
            out.push(immunity_sweep(&mut rng, 3));
            out.push(repair_lot(&mut rng, 600 + band, 699 + band, false));
            out.push(optimize_search(&mut rng, 2));
            out.push(immunity_sweep(&mut rng, 2 + cycle as usize % 2));
            out.push(optimize_search(&mut rng, 1 + cycle as usize % 2));
        }
        cycle += 1;
    }
    out
}

/// Ripple/CLA × 8/32/64 in a fixed rotation, with a fresh jitter seed so
/// every slice misses while the full adder's sub-cells hit.
fn macro_request(rng: &mut Rng, cycle: u64) -> RequestKind {
    const SHAPES: [(AdderKind, u32); 6] = [
        (AdderKind::Ripple, 8),
        (AdderKind::Cla, 32),
        (AdderKind::Ripple, 64),
        (AdderKind::Cla, 8),
        (AdderKind::Ripple, 32),
        (AdderKind::Cla, 64),
    ];
    let (kind, width) = SHAPES[(cycle % 6) as usize];
    RequestKind::Macro(MacroRequest::new(kind, width).seed(rng.next_u64()))
}

fn distinct_kinds(rng: &mut Rng, n: usize) -> Vec<StdCellKind> {
    let mut kinds = StdCellKind::ALL.to_vec();
    for i in 0..n {
        let j = i + rng.below((kinds.len() - i) as u64) as usize;
        kinds.swap(i, j);
    }
    kinds.truncate(n);
    kinds
}

/// A float that is new with overwhelming probability, on a 1e-9 grid so
/// its rendering is short.
fn fresh_float(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    let steps = ((hi - lo) * 1e9) as u64;
    lo + rng.below(steps) as f64 * 1e-9
}

/// A `TIMING` sweep of `cells` cells over one fresh tube/pitch corner.
fn timing_sweep(rng: &mut Rng, cells: usize) -> RequestKind {
    let cells = distinct_kinds(rng, cells);
    let tubes = rng.range(8, 30) as u32;
    let pitch = fresh_float(rng, 0.75, 1.25);
    RequestKind::Sweep(
        SweepRequest::new(cells)
            .grid(
                VariationGrid::nominal()
                    .tube_counts([tubes])
                    .pitch_scales([pitch]),
            )
            .metrics(SweepMetrics::TIMING),
    )
}

/// An RC or RLC ladder of `lo..=hi` nodes driven by a pulse, integrated
/// over `t_stop / dt` steps.
pub fn ladder_deck(
    rng: &mut Rng,
    lo: u64,
    hi: u64,
    rlc: bool,
    dt: f64,
    t_stop: f64,
) -> RequestKind {
    let nodes = rng.range(lo, hi);
    let mut deck = String::from("V1 n0 0 PULSE(0 1 1e-10 1e-11 1e-11 2e-9 4e-9)\n");
    for i in 0..nodes {
        let r = rng.range(50, 200);
        let c = rng.range(5, 20);
        if rlc && i % 2 == 1 {
            let _ = writeln!(deck, "L{i} n{i} n{} {}p", i + 1, rng.range(200, 2000));
        } else {
            let _ = writeln!(deck, "R{i} n{i} n{} {r}", i + 1);
        }
        let _ = writeln!(deck, "C{i} n{} 0 {c}f", i + 1);
    }
    deck.push_str(".end\n");
    RequestKind::Tran(TranRequest::new(deck, dt, t_stop))
}

fn defect_params(rng: &mut Rng) -> DefectParams {
    DefectParams {
        metallic_fraction: 0.02 + 0.01 * rng.below(5) as f64,
        misposition_fraction: 0.1 + 0.05 * rng.below(4) as f64,
        ..DefectParams::default()
    }
}

/// A lot of `lo..=hi` dies with a fresh base seed; `constrained` lots
/// carry adjacency pairs, so their dies escalate to the SAT solver.
fn repair_lot(rng: &mut Rng, lo: u64, hi: u64, constrained: bool) -> RequestKind {
    let cells = distinct_kinds(rng, 3);
    let lot = RepairRequest::new(cells)
        .dies(rng.range(lo, hi))
        .base_seed(rng.next_u64())
        .spares(2)
        .params(defect_params(rng));
    RequestKind::Repair(if constrained {
        lot.adjacent([(0, 1), (1, 2)])
    } else {
        lot
    })
}

/// An `IMMUNITY` sweep of `cells` cells over four corners with a fresh
/// MC seed.
fn immunity_sweep(rng: &mut Rng, cells: usize) -> RequestKind {
    let cells = distinct_kinds(rng, cells);
    RequestKind::Sweep(
        SweepRequest::new(cells)
            .grid(
                VariationGrid::nominal()
                    .tube_counts([26, 10])
                    .metallic_fractions([0.0, 0.05])
                    .seeds([rng.next_u64()]),
            )
            .metrics(SweepMetrics::IMMUNITY)
            .mc(McOptions {
                tubes: 200,
                ..McOptions::default()
            }),
    )
}

/// A 20-candidate `IMMUNITY` co-optimization of `cells` cells with a
/// fresh MC seed.
fn optimize_search(rng: &mut Rng, cells: usize) -> RequestKind {
    let cells = distinct_kinds(rng, cells);
    RequestKind::Optimize(
        OptimizeRequest::new(cells)
            .grid(
                VariationGrid::nominal()
                    .tube_counts([26, 20, 16, 10, 8])
                    .pitch_scales([1.0, 0.9, 0.8])
                    .metallic_fractions([0.0, 0.01])
                    .seeds([rng.next_u64()]),
            )
            .target(OptimizeTarget::new().min_yield(0.5))
            .passes(2)
            .metrics(SweepMetrics::IMMUNITY)
            .mc(McOptions {
                tubes: 200,
                ..McOptions::default()
            }),
    )
}

// ---------------------------------------------------------------------------
// The warm set
// ---------------------------------------------------------------------------

/// The 24-cell matrix: every function in both schemes.
pub fn matrix() -> Vec<cnfet::CellRequest> {
    let mut requests = Vec::new();
    for kind in StdCellKind::ALL {
        for scheme in [Scheme::Scheme1, Scheme::Scheme2] {
            requests.push(CellRequest::new(kind).options(GenerateOptions {
                scheme,
                ..GenerateOptions::default()
            }));
        }
    }
    requests
}

/// The 38-request mix: matrix cells with a certification verdict after
/// every two, then two flows.
pub fn mixed() -> Vec<RequestKind> {
    let cells = matrix();
    let mut requests = Vec::new();
    let mut cell_iter = cells.into_iter();
    for kind in StdCellKind::ALL {
        requests.extend(cell_iter.by_ref().take(2).map(RequestKind::from));
        requests.push(RequestKind::from(ImmunityRequest::certify(kind)));
    }
    requests.extend(cell_iter.map(RequestKind::from));
    requests.push(FlowRequest::cnfet(FlowSource::FullAdder, Scheme::Scheme1).into());
    requests.push(FlowRequest::cmos(FlowSource::FullAdder).into());
    requests
}

/// The warm set of `warm_mixed`, every request class represented, in a
/// fixed popularity order (Zipf rank = index) that interleaves classes.
pub fn warm_set() -> Vec<RequestKind> {
    let cells = matrix();
    let sweep = SweepRequest::new([StdCellKind::Inv, StdCellKind::Nand(2), StdCellKind::Nor(2)])
        .grid(
            VariationGrid::nominal()
                .tube_counts([26, 10])
                .metallic_fractions([0.0, 0.05])
                .seeds([5]),
        )
        .metrics(SweepMetrics::IMMUNITY)
        .mc(McOptions {
            tubes: 200,
            ..McOptions::default()
        });
    let timing = SweepRequest::new([StdCellKind::Inv, StdCellKind::Nand(2)])
        .grid(VariationGrid::nominal().pitch_scales([1.0, 0.9]))
        .metrics(SweepMetrics::TIMING);
    let mut rng = Rng::new(0x5EED, 0);
    let RequestKind::Repair(lot) = repair_lot(&mut rng, 200, 200, false) else {
        unreachable!("repair_lot builds repair lots")
    };
    let RequestKind::Optimize(search) = optimize_search(&mut rng, 2) else {
        unreachable!("optimize_search builds searches")
    };
    let mc = |kind| {
        ImmunityRequest::monte_carlo(
            kind,
            McOptions {
                tubes: 200,
                seed: 11,
                ..McOptions::default()
            },
        )
    };
    let mut set: Vec<RequestKind> = Vec::new();
    let extras: Vec<RequestKind> = vec![
        ImmunityRequest::certify(StdCellKind::Nand(2)).into(),
        LibraryRequest::new(Scheme::Scheme1).into(),
        RequestKind::Sweep(sweep),
        mc(StdCellKind::Inv).into(),
        FlowRequest::cnfet(FlowSource::FullAdder, Scheme::Scheme1).into(),
        RequestKind::Repair(lot),
        MacroRequest::new(AdderKind::Cla, 8).seed(3).into(),
        ImmunityRequest::certify(StdCellKind::Aoi22).into(),
        RequestKind::Optimize(search),
        LibraryRequest::new(Scheme::Scheme2).into(),
        mc(StdCellKind::Nor(2)).into(),
        RequestKind::Sweep(timing),
        FlowRequest::cmos(FlowSource::FullAdder).into(),
        MacroRequest::new(AdderKind::Ripple, 8).seed(3).into(),
        ImmunityRequest::certify(StdCellKind::Oai21).into(),
        FlowRequest::cnfet(FlowSource::FullAdder, Scheme::Scheme2).into(),
    ];
    let mut extras = extras.into_iter();
    for (i, cell) in cells.into_iter().enumerate() {
        set.push(cell.into());
        if i % 2 == 1 {
            set.extend(extras.next());
        }
    }
    set.extend(extras);
    set
}

/// A miss of `warm_mixed`'s trickle, drawn before timing and kept
/// compact: a never-seen cell name (layout generation) or a Monte-Carlo
/// verdict under a never-seen seed.
#[derive(Clone, Copy, Debug)]
pub struct Miss {
    kind: StdCellKind,
    monte_carlo: bool,
    seed: u64,
}

impl Miss {
    pub fn draw(rng: &mut Rng) -> Miss {
        Miss {
            kind: *rng.pick(&StdCellKind::ALL),
            monte_carlo: rng.below(3) == 0,
            seed: rng.next_u64(),
        }
    }

    /// The request of miss `i` of caller `caller` (names stay unique).
    pub fn request(self, caller: usize, i: usize) -> RequestKind {
        if self.monte_carlo {
            let mc = McOptions {
                tubes: 50,
                seed: self.seed,
                ..McOptions::default()
            };
            ImmunityRequest::monte_carlo(self.kind, mc).into()
        } else {
            let name = format!("MISS_{caller}_{i}_{:x}", self.seed & 0xFFFF);
            CellRequest::new(self.kind).named(name).into()
        }
    }
}

/// One caller's `warm_mixed` schedule: Zipf-skewed single hits, the
/// 24-cell batch, the 38-request `submit_all`, and a 6% miss trickle.
/// The weights are chosen, not taken from traffic data (NOTES.md).
pub fn warm_schedule(rng: &mut Rng, warm: usize, len: usize) -> Vec<Op> {
    let zipf = Zipf::new(warm, 1.0);
    (0..len)
        .map(|_| match rng.below(100) {
            0..=3 => Op::Batch,
            4..=7 => Op::SubmitAll,
            8..=13 => Op::Fresh,
            _ => Op::Hit(zipf.sample(rng) as u32),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The served table
// ---------------------------------------------------------------------------

/// How one served exchange is sent.
#[derive(Clone, Debug)]
pub enum Call {
    /// `POST /v1/run` with a JSON answer.
    Run(Json),
    /// `POST /v1/batch`.
    Batch(Json),
    /// `POST /v1/run` with `Accept: application/x-cnfet-rows`.
    Binary(Json),
    /// `POST /v1/submit` then `GET /v1/jobs/{id}/stream`.
    Stream(Json),
    /// `GET /v1/stats`.
    Stats,
}

fn cell_json(kind: &str) -> Json {
    Json::obj([("type", Json::str("cell")), ("kind", Json::str(kind))])
}

fn sweep_json(seed: u64) -> Json {
    Json::obj([
        ("type", Json::str("sweep")),
        (
            "cells",
            Json::Arr(vec![
                Json::obj([("kind", Json::str("inv"))]),
                Json::obj([("kind", Json::str("nand2"))]),
            ]),
        ),
        (
            "grid",
            Json::obj([
                ("tube_counts", [26u64, 10].into_iter().collect::<Json>()),
                ("seeds", [seed].into_iter().collect::<Json>()),
            ]),
        ),
        ("metrics", Json::str("immunity")),
        ("mc", Json::obj([("tubes", Json::from(100u64))])),
    ])
}

fn repair_json() -> Json {
    Json::obj([
        ("type", Json::str("repair")),
        (
            "cells",
            Json::Arr(vec![
                Json::obj([("kind", Json::str("inv"))]),
                Json::obj([("kind", Json::str("nand2"))]),
                Json::obj([("kind", Json::str("nor2"))]),
            ]),
        ),
        ("dies", Json::from(100u64)),
        ("seed", Json::from(7u64)),
        ("spares", Json::from(2u64)),
    ])
}

/// A small uncached transient deck as a wire request: its answer carries
/// every node's waveform.
fn tran_json(rng: &mut Rng, nodes: u64, rlc: bool) -> Json {
    let RequestKind::Tran(tran) = ladder_deck(rng, nodes, nodes, rlc, 8e-12, 4e-9) else {
        unreachable!("ladder_deck builds transient requests")
    };
    Json::obj([
        ("type", Json::str("tran")),
        ("deck", Json::str(tran.deck)),
        ("dt", Json::Num(tran.dt)),
        ("t_stop", Json::Num(tran.t_stop)),
    ])
}

/// The served table: every exchange `served_mixed` sends, each one
/// repeatable (cache hits, or deterministic uncached decks). The hits are
/// a fixed set; the decks all have six nodes (every other one RLC), so
/// their latencies form two close groups, and component values drawn
/// from the seed.
pub fn served_table(seed: u64) -> Vec<Call> {
    let kinds = ["inv", "nand2", "nand3", "nor2", "aoi22", "oai21"];
    let mut table: Vec<Call> = kinds.iter().map(|k| Call::Run(cell_json(k))).collect();
    table.push(Call::Run(Json::obj([
        ("type", Json::str("immunity")),
        ("cell", Json::obj([("kind", Json::str("aoi22"))])),
        ("engine", Json::str("certify")),
    ])));
    table.push(Call::Run(sweep_json(5)));
    table.push(Call::Run(repair_json()));
    table.push(Call::Run(Json::obj([
        ("type", Json::str("macro")),
        ("kind", Json::str("cla")),
        ("width", Json::from(8u64)),
        ("seed", Json::from(3u64)),
    ])));
    table.push(Call::Batch(Json::obj([(
        "requests",
        kinds.iter().map(|k| cell_json(k)).collect::<Json>(),
    )])));
    table.push(Call::Binary(sweep_json(5)));
    table.push(Call::Binary(repair_json()));
    table.push(Call::Stream(sweep_json(6)));
    table.push(Call::Stats);
    let mut rng = Rng::new(seed, 3);
    for k in 0..6 {
        table.push(Call::Run(tran_json(&mut rng, 6, k % 2 == 0)));
    }
    table
}

/// One client's `served_mixed` schedule over [`served_table`]: JSON hits
/// (Zipf over the hit rows), batches, binary hits, streams, decks and
/// stats polls in fixed proportions, chosen rather than taken from
/// traffic data (NOTES.md). The decks are the slowest exchanges; at 13%
/// of them, p90 falls a quarter of the way into their spread and p99
/// near its top, rather than on the edge between decks and batches.
pub fn served_schedule(rng: &mut Rng, len: usize) -> Vec<Op> {
    // Row layout of `served_table`: 0..10 JSON hits, 10 batch, 11–12
    // binary, 13 stream, 14 stats, 15..21 decks.
    let zipf = Zipf::new(10, 1.0);
    (0..len)
        .map(|_| {
            let row = match rng.below(100) {
                0..=9 => 10,
                10..=19 => 11 + rng.below(2),
                20 => 13,
                21..=30 => 14,
                31..=43 => 15 + rng.below(6),
                _ => zipf.sample(rng) as u64,
            };
            Op::Http(row as u32)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(requests: &[RequestKind]) -> Vec<String> {
        requests.iter().map(|r| format!("{r:?}")).collect()
    }

    #[test]
    fn cold_streams_are_deterministic_per_seed() {
        for timing in [true, false] {
            let a = cold_stream(17, 40, timing);
            let b = cold_stream(17, 40, timing);
            assert_eq!(keys(&a), keys(&b));
            let c = cold_stream(18, 40, timing);
            assert_ne!(keys(&a), keys(&c), "another seed gives other inputs");
        }
    }

    #[test]
    fn cold_requests_never_repeat() {
        for timing in [true, false] {
            let stream = keys(&cold_stream(5, 200, timing));
            let mut unique = stream.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), stream.len());
        }
    }

    #[test]
    fn schedules_are_deterministic_and_mixed() {
        let a = warm_schedule(&mut Rng::new(3, 10), 40, 5000);
        let b = warm_schedule(&mut Rng::new(3, 10), 40, 5000);
        assert_eq!(a, b);
        let misses = a.iter().filter(|op| matches!(op, Op::Fresh)).count();
        assert!((200..=400).contains(&misses), "6% trickle, got {misses}");
        assert!(a.contains(&Op::Batch) && a.contains(&Op::SubmitAll));
        let served = served_schedule(&mut Rng::new(3, 11), 5000);
        assert_eq!(served, served_schedule(&mut Rng::new(3, 11), 5000));
        let table = served_table(3).len() as u32;
        assert!(served
            .iter()
            .all(|op| matches!(op, Op::Http(i) if *i < table)));
    }

    #[test]
    fn warm_set_covers_every_class() {
        let set = warm_set();
        for class in cnfet::RequestClass::ALL {
            assert!(
                set.iter().any(|r| r.class() == Some(class)),
                "{class:?} missing"
            );
        }
        assert_eq!(mixed().len(), 38);
        assert_eq!(matrix().len(), 24);
    }
}
