//! Harmfulness judgement of stray conduction segments.
//!
//! The walks judge segments on interned data only: the two contact nets
//! as indices into a [`TraceMap`]'s net table and the polarity-tagged
//! gate set as a `u128` mask — bit `2·v` for variable `v` gating a
//! pull-up device, bit `2·v + 1` for a pull-down one, so 64 variables ×
//! 2 polarities, the ceiling `SpNetwork::conducts(u64)` and
//! [`cnfet_logic::VarTable`] already set. [`TraceMap::new`] stores the
//! nominal paths of every contact-net pair as masks, which makes the
//! superset test `path & !gates == 0` and the whole judgement free of
//! allocation. [`Segment`] is the named form handed back to callers, for
//! witnesses and certificate entries only.

use crate::region::TraceMap;
use cnfet_core::{PullSide, SemanticLayout};
use cnfet_logic::VarId;
use std::collections::BTreeSet;
use std::fmt;
/// A stray conduction segment created by a mispositioned tube: it ties the
/// contacts of `net_a` and `net_b` together through the polarity-tagged
/// gate regions in `gates`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Segment {
    /// Net of the first contact touched.
    pub net_a: String,
    /// Net of the second contact touched.
    pub net_b: String,
    /// Gates crossed between the two contacts.
    pub gates: BTreeSet<(VarId, PullSide)>,
}

/// The judgement of a segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Both ends on the same net: a harmless parallel wire/device.
    SameNet,
    /// The segment's conduction condition is unsatisfiable (some input
    /// would need to be high and low simultaneously).
    Unsatisfiable,
    /// The gate set is a superset of a nominal path between the nets: the
    /// stray tube conducts only when the cell already does.
    SupersetOfNominal,
    /// None of the above: the segment can change the cell's function
    /// (e.g. the fully doped Vdd–Out short of Figure 2b).
    Harmful,
}

impl Verdict {
    /// Whether the segment leaves the function intact.
    pub fn is_harmless(&self) -> bool {
        !matches!(self, Verdict::Harmful)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::SameNet => write!(f, "same-net"),
            Verdict::Unsatisfiable => write!(f, "unsatisfiable"),
            Verdict::SupersetOfNominal => write!(f, "superset-of-nominal"),
            Verdict::Harmful => write!(f, "HARMFUL"),
        }
    }
}

/// The pull-up bits of a gate mask.
const UP_BITS: u128 = 0x5555_5555_5555_5555_5555_5555_5555_5555;

/// The bit of a polarity-tagged gate in a gate mask.
///
/// # Panics
///
/// Panics when the variable index is 64 or more.
pub(crate) fn gate_bit(var: VarId, side: PullSide) -> u8 {
    assert!(
        var.index() < 64,
        "gate variable {var} is past the 64-variable ceiling"
    );
    (var.index() * 2 + usize::from(side == PullSide::Down)) as u8
}

/// The gate a mask bit stands for.
pub(crate) fn gate_of(bit: u8) -> (VarId, PullSide) {
    let side = if bit.is_multiple_of(2) {
        PullSide::Up
    } else {
        PullSide::Down
    };
    (VarId(u32::from(bit / 2)), side)
}

/// Whether some variable gates both a p-device (needs 0) and an
/// n-device (needs 1), so the gates can never all conduct.
fn unsatisfiable(gates: u128) -> bool {
    gates & (gates >> 1) & UP_BITS != 0
}

fn mask_of(gates: &BTreeSet<(VarId, PullSide)>) -> u128 {
    gates
        .iter()
        .fold(0, |mask, &(var, side)| mask | 1 << gate_bit(var, side))
}

/// The nominal path masks of every pair of `nets`, at `a * nets.len() +
/// b` (both orders; the diagonal stays empty, as same-net segments are
/// never looked up).
pub(crate) fn nominal_path_masks(sem: &SemanticLayout, nets: &[String]) -> Vec<Vec<u128>> {
    let n = nets.len();
    let mut paths = vec![Vec::new(); n * n];
    for a in 0..n {
        for b in a + 1..n {
            let masks: Vec<u128> = sem
                .node_paths(&nets[a], &nets[b])
                .iter()
                .map(mask_of)
                .collect();
            paths[b * n + a] = masks.clone();
            paths[a * n + b] = masks;
        }
    }
    paths
}

impl TraceMap {
    /// Judges the segment between contact nets `a` and `b` crossing the
    /// gates in `gates`.
    pub(crate) fn verdict(&self, a: u16, b: u16, gates: u128) -> Verdict {
        if a == b {
            return Verdict::SameNet;
        }
        if unsatisfiable(gates) {
            return Verdict::Unsatisfiable;
        }
        let pair = usize::from(a) * self.nets.len() + usize::from(b);
        if self.paths[pair].iter().any(|&path| path & !gates == 0) {
            Verdict::SupersetOfNominal
        } else {
            Verdict::Harmful
        }
    }

    /// Whether the segment can alter the cell's function. A `metallic`
    /// tube conducts with its gates stuck on, so only [`Verdict::SameNet`]
    /// saves it.
    pub(crate) fn harmful(&self, a: u16, b: u16, gates: u128, metallic: bool) -> bool {
        if metallic {
            a != b
        } else {
            self.verdict(a, b, gates) == Verdict::Harmful
        }
    }

    /// The named form of a segment.
    pub(crate) fn segment(&self, a: u16, b: u16, gates: u128) -> Segment {
        Segment {
            net_a: self.nets[usize::from(a)].clone(),
            net_b: self.nets[usize::from(b)].clone(),
            gates: (0..128u8)
                .filter(|&bit| gates >> bit & 1 == 1)
                .map(gate_of)
                .collect(),
        }
    }

    /// Judges a named segment against this layout's nominal networks. A
    /// net that is not one of the layout's contacts has no nominal path
    /// (a traced segment always ends on contacts).
    ///
    /// # Panics
    ///
    /// Panics when a gate's variable index is 64 or more.
    pub fn classify(&self, seg: &Segment) -> Verdict {
        if seg.net_a == seg.net_b {
            return Verdict::SameNet;
        }
        let gates = mask_of(&seg.gates);
        let id = |net: &str| self.nets.iter().position(|n| n == net);
        match (id(&seg.net_a), id(&seg.net_b)) {
            (Some(a), Some(b)) => self.verdict(a as u16, b as u16, gates),
            _ if unsatisfiable(gates) => Verdict::Unsatisfiable,
            _ => Verdict::Harmful,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnfet_core::{generate_cell, GenerateOptions, StdCellKind};

    fn seg(a: &str, b: &str, gates: &[(u32, PullSide)]) -> Segment {
        Segment {
            net_a: a.to_string(),
            net_b: b.to_string(),
            gates: gates.iter().map(|&(v, s)| (VarId(v), s)).collect(),
        }
    }

    fn nand2_judge_test(segment: Segment, expected: Verdict) {
        let cell = generate_cell(StdCellKind::Nand(2), &GenerateOptions::default()).unwrap();
        let map = TraceMap::new(&cell.semantics);
        assert_eq!(map.classify(&segment), expected, "{segment:?}");
    }

    #[test]
    fn bare_short_is_harmful() {
        // The Figure 2(b) failure: fully doped tube from Vdd to Out.
        nand2_judge_test(seg("VDD", "OUT", &[]), Verdict::Harmful);
    }

    #[test]
    fn same_net_harmless() {
        nand2_judge_test(seg("VDD", "VDD", &[(0, PullSide::Up)]), Verdict::SameNet);
    }

    #[test]
    fn redundant_parallel_device_harmless() {
        // A stray A-gated p-tube between Vdd and Out duplicates a nominal
        // device.
        nand2_judge_test(
            seg("VDD", "OUT", &[(0, PullSide::Up)]),
            Verdict::SupersetOfNominal,
        );
    }

    #[test]
    fn superset_harmless() {
        nand2_judge_test(
            seg("VDD", "OUT", &[(0, PullSide::Up), (1, PullSide::Up)]),
            Verdict::SupersetOfNominal,
        );
    }

    #[test]
    fn crowbar_with_one_polarity_harmful() {
        // Vdd–Gnd bridge gated only by A(p): conducts whenever A = 0.
        nand2_judge_test(seg("VDD", "GND", &[(0, PullSide::Up)]), Verdict::Harmful);
    }

    #[test]
    fn inverter_like_crossing_unsatisfiable() {
        // Vdd–Gnd bridge through both A(p) and A(n) never conducts.
        nand2_judge_test(
            seg("VDD", "GND", &[(0, PullSide::Up), (0, PullSide::Down)]),
            Verdict::Unsatisfiable,
        );
    }

    #[test]
    fn partial_pdn_path_harmful() {
        // Gnd→Out through only A(n): NAND2 needs A·B.
        nand2_judge_test(seg("GND", "OUT", &[(0, PullSide::Down)]), Verdict::Harmful);
    }

    #[test]
    fn full_pdn_path_harmless() {
        nand2_judge_test(
            seg("GND", "OUT", &[(0, PullSide::Down), (1, PullSide::Down)]),
            Verdict::SupersetOfNominal,
        );
    }

    #[test]
    fn mask_judge_matches_the_set_judge_on_every_gate_subset() {
        // The superset criterion over `BTreeSet`s, as the string-keyed
        // judge applied it, against the mask judge for every contact-net
        // pair and every subset of the cell's polarity-tagged gates.
        for kind in [StdCellKind::Nand(3), StdCellKind::Aoi31, StdCellKind::Oai22] {
            let cell = generate_cell(kind, &GenerateOptions::default()).unwrap();
            let sem = &cell.semantics;
            let map = TraceMap::new(sem);
            let bits = 2 * sem.vars.len() as u32;
            for a in &map.nets {
                for b in &map.nets {
                    for subset in 0..1u128 << bits {
                        let segment = Segment {
                            net_a: a.clone(),
                            net_b: b.clone(),
                            gates: (0..bits as u8)
                                .filter(|&bit| subset >> bit & 1 == 1)
                                .map(gate_of)
                                .collect(),
                        };
                        let up: BTreeSet<VarId> = segment
                            .gates
                            .iter()
                            .filter(|(_, s)| *s == PullSide::Up)
                            .map(|(v, _)| *v)
                            .collect();
                        let expected = if a == b {
                            Verdict::SameNet
                        } else if segment
                            .gates
                            .iter()
                            .any(|(v, s)| *s == PullSide::Down && up.contains(v))
                        {
                            Verdict::Unsatisfiable
                        } else if sem
                            .node_paths(a, b)
                            .iter()
                            .any(|p| p.is_subset(&segment.gates))
                        {
                            Verdict::SupersetOfNominal
                        } else {
                            Verdict::Harmful
                        };
                        assert_eq!(map.classify(&segment), expected, "{kind} {segment:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn gate_bits_round_trip_up_to_the_ceiling() {
        for var in [0, 1, 31, 32, 63] {
            for side in [PullSide::Up, PullSide::Down] {
                assert_eq!(gate_of(gate_bit(VarId(var), side)), (VarId(var), side));
            }
        }
    }

    #[test]
    #[should_panic(expected = "64-variable ceiling")]
    fn gate_bit_refuses_variables_past_the_ceiling() {
        gate_bit(VarId(64), PullSide::Up);
    }
}
