//! Column decomposition of a semantic layout.
//!
//! The cell is cut into vertical slabs at every rectangle edge; within a
//! column, the y-axis is cut into [`Slab`]s of uniform semantics. Priority
//! on overlap: etch > contact > gate > doped; anything uncovered is
//! intrinsic (dead for conduction).
//!
//! [`build_columns`] returns that decomposition with named regions
//! ([`ColumnMap`]). [`TraceMap::new`] flattens it once per layout into
//! the form every tube walk reads: one flat slab array indexed by
//! column, each slab's region interned (contact nets to indices, gates
//! to gate-mask bits), plus the nominal path masks of every contact-net
//! pair. A cursor follows a tube through the map by stepping from
//! the previous sample's column and slab rather than searching, and
//! holds a box around the slab it last answered, so a sample that stays
//! in that box costs four comparisons and no step at all.

use crate::verdict::{gate_bit, nominal_path_masks};
use cnfet_core::{PullSide, SemKind, SemanticLayout};
use cnfet_geom::Rect;
use cnfet_logic::VarId;

/// What a tube experiences inside a region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// Touching metal of the named net.
    Contact(String),
    /// Gated (channel) region: conducts iff the gate is on.
    Gate(VarId, PullSide),
    /// Doped region: conducts unconditionally.
    Doped(PullSide),
    /// Etched or intrinsic: conduction dies here.
    Dead,
}

impl RegionKind {
    /// Whether a conduction segment can pass through this region.
    pub fn conducts(&self) -> bool {
        !matches!(self, RegionKind::Dead)
    }
}

/// A maximal y-interval of uniform semantics within one column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slab {
    /// Bottom edge, dbu.
    pub y0: i64,
    /// Top edge, dbu.
    pub y1: i64,
    /// Semantics.
    pub kind: RegionKind,
}

/// The column decomposition of a cell, with named regions.
#[derive(Clone, Debug)]
pub struct ColumnMap {
    /// Column boundaries (ascending, `len = columns.len() + 1`), dbu.
    pub xs: Vec<i64>,
    /// Slabs per column, bottom-up, covering the cell bbox exactly.
    pub columns: Vec<Vec<Slab>>,
}

/// A region as the tube walks see it: contact nets interned to indices
/// into [`TraceMap`]'s net table, gates to their bit in a gate mask (see
/// [`crate::verdict`]). Two slabs carry equal regions iff their
/// [`RegionKind`]s are equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Region {
    Dead,
    Doped(PullSide),
    Gate(u8),
    Contact(u16),
}

/// One slab of a [`TraceMap`] column.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MapSlab {
    pub(crate) y0: i64,
    pub(crate) y1: i64,
    pub(crate) region: Region,
    /// The right edge of the run of columns, from this one on, that
    /// each hold a slab of this extent and region; one dbu past it when
    /// the run reaches the last column, whose right edge is closed.
    pub(crate) x_end: i64,
}

/// A cell layout prepared once for every tube walk over it: the column
/// boundaries, each slab's interned region, the contact nets, and the
/// nominal path masks of every contact-net pair (see [`crate::verdict`]).
///
/// Build it with [`TraceMap::new`] once per layout; [`crate::simulate`],
/// [`crate::certify`], [`crate::trace_polyline`] and the repair crate's
/// site tester all only read it, so one map (it is `Send + Sync`) serves
/// any number of runs, dies and threads.
#[derive(Clone, Debug)]
pub struct TraceMap {
    pub(crate) bbox: Rect,
    /// Column boundaries (ascending, one more than there are columns).
    pub(crate) xs: Vec<i64>,
    /// `slabs[column_start[c]..column_start[c + 1]]` is column `c`,
    /// bottom-up.
    pub(crate) column_start: Vec<usize>,
    pub(crate) slabs: Vec<MapSlab>,
    /// Contact nets, indexed by `Region::Contact`.
    pub(crate) nets: Vec<String>,
    /// Nominal path gate masks of nets `a` and `b` at `a * nets.len() + b`.
    pub(crate) paths: Vec<Vec<u128>>,
}

impl TraceMap {
    /// Decomposes `sem` into columns, interns its regions and contact
    /// nets, and derives the nominal paths of every contact-net pair.
    ///
    /// # Panics
    ///
    /// Panics when a gate's variable index is 64 or more — the ceiling
    /// [`cnfet_logic::VarTable`] already enforces.
    pub fn new(sem: &SemanticLayout) -> TraceMap {
        let cm = build_columns(sem);
        let mut nets: Vec<String> = Vec::new();
        let mut column_start = Vec::with_capacity(cm.columns.len() + 1);
        let mut slabs = Vec::new();
        for column in &cm.columns {
            column_start.push(slabs.len());
            for slab in column {
                let region = match &slab.kind {
                    RegionKind::Dead => Region::Dead,
                    RegionKind::Doped(side) => Region::Doped(*side),
                    RegionKind::Gate(var, side) => Region::Gate(gate_bit(*var, *side)),
                    RegionKind::Contact(net) => Region::Contact(intern(&mut nets, net)),
                };
                slabs.push(MapSlab {
                    y0: slab.y0,
                    y1: slab.y1,
                    region,
                    x_end: 0,
                });
            }
        }
        column_start.push(slabs.len());
        // Right to left, so each slab extends the run of its twin in the
        // next column.
        let columns = cm.columns.len();
        for col in (0..columns).rev() {
            let own_end = cm.xs[col + 1] + i64::from(col + 1 == columns);
            let next = column_start[col + 1]..column_start.get(col + 2).map_or(slabs.len(), |&e| e);
            for i in column_start[col]..column_start[col + 1] {
                let s = slabs[i];
                let twin = slabs[next.clone()]
                    .iter()
                    .find(|t| (t.y0, t.y1, t.region) == (s.y0, s.y1, s.region));
                slabs[i].x_end = twin.map_or(own_end, |t| t.x_end);
            }
        }
        let paths = nominal_path_masks(sem, &nets);
        TraceMap {
            bbox: sem.bbox,
            xs: cm.xs,
            column_start,
            slabs,
            nets,
            paths,
        }
    }

    /// The cell bounding box the map covers.
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Number of columns.
    pub(crate) fn columns(&self) -> usize {
        self.column_start.len() - 1
    }

    /// The flat slab range of column `col`.
    pub(crate) fn column(&self, col: usize) -> std::ops::Range<usize> {
        self.column_start[col]..self.column_start[col + 1]
    }

    /// The named form of a region.
    #[cfg(test)]
    pub(crate) fn kind_of(&self, region: Region) -> RegionKind {
        match region {
            Region::Dead => RegionKind::Dead,
            Region::Doped(side) => RegionKind::Doped(side),
            Region::Gate(bit) => {
                let (var, side) = crate::verdict::gate_of(bit);
                RegionKind::Gate(var, side)
            }
            Region::Contact(net) => RegionKind::Contact(self.nets[usize::from(net)].clone()),
        }
    }
}

fn intern(nets: &mut Vec<String>, net: &str) -> u16 {
    let id = nets.iter().position(|n| n == net).unwrap_or_else(|| {
        nets.push(net.to_string());
        nets.len() - 1
    });
    u16::try_from(id).expect("fewer than 65536 contact nets")
}

/// A position in a [`TraceMap`] that follows a tube's samples: each
/// lookup steps the column and slab index from the previous one instead
/// of searching, since x is monotone along a tube and y moves little
/// between samples. Any order of points is answered correctly; the walk
/// is only short when consecutive points are close.
///
/// The cursor also holds a box around the slab its last region came from
/// ([`Cursor::holds`]): the slab, and its twins of the same extent and
/// region in the columns right of it (see `MapSlab::x_end`). The box is
/// exactly the set of points [`seek`] would answer with one of those
/// slabs, so every point inside it has the last region, and a caller
/// that remembers that region can skip them all.
///
/// [`seek`]: Cursor::seek
pub(crate) struct Cursor<'a> {
    map: &'a TraceMap,
    col: usize,
    /// Slab index within the column.
    slab: usize,
    /// The held box, half-open `[x0, x1) × [y0, y1)`, dbu; empty until
    /// the first region.
    held: [i64; 4],
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(map: &'a TraceMap) -> Cursor<'a> {
        Cursor {
            map,
            col: 0,
            slab: 0,
            held: [0; 4],
        }
    }

    /// Whether `(x, y)` lies in the box held around the slab of the last
    /// region [`seek`] answered, which is then that point's region too.
    /// A seek that answers `None` leaves the box as it was.
    ///
    /// [`seek`]: Cursor::seek
    #[inline]
    pub(crate) fn holds(&self, x: i64, y: i64) -> bool {
        let [x0, x1, y0, y1] = self.held;
        x >= x0 && x < x1 && y >= y0 && y < y1
    }

    /// The region at `(x, y)`, or `None` outside the cell. Columns are
    /// half-open `[xa, xb)` and slabs `[y0, y1)`, except that the last
    /// column and each column's top slab are closed.
    pub(crate) fn seek(&mut self, x: i64, y: i64) -> Option<Region> {
        let map = self.map;
        let xs = &map.xs;
        if map.slabs.is_empty() || x < xs[0] || x > xs[xs.len() - 1] {
            return None;
        }
        let (by0, by1) = (map.bbox.y0().0, map.bbox.y1().0);
        if y < by0 || y > by1 {
            return None;
        }
        let last_col = map.columns() - 1;
        while self.col < last_col && x >= xs[self.col + 1] {
            self.col += 1;
        }
        while x < xs[self.col] {
            self.col -= 1;
        }
        let column = &map.slabs[map.column(self.col)];
        self.slab = self.slab.min(column.len() - 1);
        while y < column[self.slab].y0 {
            self.slab -= 1;
        }
        while self.slab + 1 < column.len() && y >= column[self.slab].y1 {
            self.slab += 1;
        }
        let slab = column[self.slab];
        // A top slab's closed edge takes one more dbu in the half-open box.
        let top = i64::from(self.slab + 1 == column.len());
        self.held = [xs[self.col], slab.x_end, slab.y0, slab.y1 + top];
        Some(slab.region)
    }
}

fn priority(kind: &SemKind) -> u8 {
    match kind {
        SemKind::Etch => 3,
        SemKind::Contact { .. } => 2,
        SemKind::Gate { .. } => 1,
        SemKind::Doped { .. } => 0,
    }
}

fn to_region(kind: &SemKind) -> RegionKind {
    match kind {
        SemKind::Etch => RegionKind::Dead,
        SemKind::Contact { net } => RegionKind::Contact(net.clone()),
        SemKind::Gate { var, side } => RegionKind::Gate(*var, *side),
        SemKind::Doped { side } => RegionKind::Doped(*side),
    }
}

/// Builds the column decomposition of a semantic layout.
pub fn build_columns(layout: &SemanticLayout) -> ColumnMap {
    let bbox = layout.bbox;
    let mut xs: Vec<i64> = vec![bbox.x0().0, bbox.x1().0];
    for r in &layout.rects {
        xs.push(r.rect.x0().0.clamp(bbox.x0().0, bbox.x1().0));
        xs.push(r.rect.x1().0.clamp(bbox.x0().0, bbox.x1().0));
    }
    xs.sort_unstable();
    xs.dedup();

    let mut columns = Vec::with_capacity(xs.len() - 1);
    for w in xs.windows(2) {
        let (xa, xb) = (w[0], w[1]);
        // Rects covering this whole column.
        let covering: Vec<_> = layout
            .rects
            .iter()
            .filter(|r| r.rect.x0().0 <= xa && r.rect.x1().0 >= xb)
            .collect();
        let mut ys: Vec<i64> = vec![bbox.y0().0, bbox.y1().0];
        for r in &covering {
            ys.push(r.rect.y0().0.clamp(bbox.y0().0, bbox.y1().0));
            ys.push(r.rect.y1().0.clamp(bbox.y0().0, bbox.y1().0));
        }
        ys.sort_unstable();
        ys.dedup();

        let mut slabs: Vec<Slab> = Vec::new();
        for yw in ys.windows(2) {
            let (ya, yb) = (yw[0], yw[1]);
            let winner = covering
                .iter()
                .filter(|r| r.rect.y0().0 <= ya && r.rect.y1().0 >= yb)
                .max_by_key(|r| priority(&r.kind));
            let kind = winner.map_or(RegionKind::Dead, |r| to_region(&r.kind));
            match slabs.last_mut() {
                Some(last) if last.kind == kind => last.y1 = yb,
                _ => slabs.push(Slab {
                    y0: ya,
                    y1: yb,
                    kind,
                }),
            }
        }
        columns.push(slabs);
    }
    ColumnMap { xs, columns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnfet_core::{generate_cell, GenerateOptions, StdCellKind};

    fn nand2_columns() -> ColumnMap {
        let cell = generate_cell(StdCellKind::Nand(2), &GenerateOptions::default()).unwrap();
        build_columns(&cell.semantics)
    }

    #[test]
    fn columns_cover_bbox() {
        let cell = generate_cell(StdCellKind::Nand(2), &GenerateOptions::default()).unwrap();
        let cm = nand2_columns();
        let bbox = cell.semantics.bbox;
        assert_eq!(cm.xs[0], bbox.x0().0);
        assert_eq!(*cm.xs.last().unwrap(), bbox.x1().0);
        for slabs in &cm.columns {
            assert_eq!(slabs.first().unwrap().y0, bbox.y0().0);
            assert_eq!(slabs.last().unwrap().y1, bbox.y1().0);
            for w in slabs.windows(2) {
                assert_eq!(w[0].y1, w[1].y0, "slabs must tile");
                assert_ne!(w[0].kind, w[1].kind, "adjacent slabs merged");
            }
        }
    }

    #[test]
    fn kinds_present() {
        let cm = nand2_columns();
        let mut has = (false, false, false, false);
        for slabs in &cm.columns {
            for s in slabs {
                match &s.kind {
                    RegionKind::Contact(_) => has.0 = true,
                    RegionKind::Gate(..) => has.1 = true,
                    RegionKind::Doped(_) => has.2 = true,
                    RegionKind::Dead => has.3 = true,
                }
            }
        }
        assert!(has.0 && has.1 && has.2 && has.3, "{has:?}");
    }

    #[test]
    fn cursor_answers_any_order_of_points() {
        // A cursor steps from wherever the previous point left it; it must
        // answer every point as a fresh cursor does, whether the points
        // move forward, backward or jump.
        use cnfet_rng::rngs::StdRng;
        use cnfet_rng::{Rng, SeedableRng};
        let cell = generate_cell(StdCellKind::Nand(2), &GenerateOptions::default()).unwrap();
        let map = TraceMap::new(&cell.semantics);
        let (x0, x1) = (map.bbox.x0().0, map.bbox.x1().0);
        let (y0, y1) = (map.bbox.y0().0, map.bbox.y1().0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut cursor = Cursor::new(&map);
        for _ in 0..2000 {
            let x = rng.gen_range((x0 - 40) as f64..=(x1 + 40) as f64) as i64;
            let y = rng.gen_range((y0 - 40) as f64..=(y1 + 40) as f64) as i64;
            assert_eq!(
                cursor.seek(x, y),
                Cursor::new(&map).seek(x, y),
                "({x}, {y})"
            );
        }
        assert_eq!(Cursor::new(&map).seek(x0 - 1, y0), None);
        assert_eq!(Cursor::new(&map).seek(x0, y1 + 1), None);
        // The last column and the top slab are closed.
        assert!(Cursor::new(&map).seek(x1, y1).is_some());
    }

    #[test]
    fn held_box_is_exactly_what_seek_sends_to_the_slab_or_its_twins() {
        // One cursor seeks every slab in turn (so each seek moves it to
        // another slab). After each, the held box must hold exactly the
        // probes a fresh cursor sends to that slab or to a twin of the
        // same extent and region in the unbroken run of columns right of
        // it, closed edges included; a seek outside the cell must leave
        // the box as it was.
        for kind in [StdCellKind::Nand(2), StdCellKind::Aoi31] {
            let cell = generate_cell(kind, &GenerateOptions::default()).unwrap();
            let map = TraceMap::new(&cell.semantics);
            let xs = &map.xs;
            let twin = |col: usize, s: &MapSlab| {
                map.slabs[map.column(col)]
                    .iter()
                    .position(|t| (t.y0, t.y1, t.region) == (s.y0, s.y1, s.region))
            };
            let mut cursor = Cursor::new(&map);
            for col in 0..map.columns() {
                for slab in map.column(col) {
                    let s = map.slabs[slab];
                    let run_end = (col..map.columns())
                        .find(|&c| twin(c, &s).is_none())
                        .unwrap_or(map.columns());
                    assert!(cursor.seek(xs[col], s.y0).is_some());
                    assert_eq!(cursor.col, col);
                    assert_eq!(cursor.seek(xs[col], map.bbox.y1().0 + 1), None);
                    let edges = [xs[col], xs[col + 1], xs[run_end]];
                    for x in edges.into_iter().flat_map(|e| [e - 1, e, e + 1]) {
                        for y in [s.y0 - 1, s.y0, s.y1 - 1, s.y1, s.y1 + 1] {
                            let mut fresh = Cursor::new(&map);
                            let same = fresh.seek(x, y).is_some()
                                && (col..run_end).contains(&fresh.col)
                                && twin(fresh.col, &s) == Some(fresh.slab);
                            assert_eq!(cursor.holds(x, y), same, "{kind} ({x}, {y})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trace_maps_are_shareable_across_threads() {
        fn shareable<T: Send + Sync>() {}
        shareable::<TraceMap>();
    }

    #[test]
    fn trace_map_flattens_the_column_map() {
        let cell = generate_cell(StdCellKind::Aoi31, &GenerateOptions::default()).unwrap();
        let cm = build_columns(&cell.semantics);
        let map = TraceMap::new(&cell.semantics);
        assert_eq!(map.xs, cm.xs);
        assert_eq!(map.columns(), cm.columns.len());
        for (col, slabs) in cm.columns.iter().enumerate() {
            let flat = &map.slabs[map.column(col)];
            assert_eq!(flat.len(), slabs.len());
            for (a, b) in flat.iter().zip(slabs) {
                assert_eq!((a.y0, a.y1), (b.y0, b.y1));
                assert_eq!(map.kind_of(a.region), b.kind);
            }
        }
    }

    #[test]
    fn contact_beats_doped_gate_beats_doped() {
        // In a contact column the contact wins over the doping mask.
        let cm = nand2_columns();
        let any_contact = cm
            .columns
            .iter()
            .flatten()
            .any(|s| matches!(s.kind, RegionKind::Contact(_)));
        assert!(any_contact);
    }
}
