//! Shared reporting helpers for the table/figure regenerator binaries,
//! and the workspace's dependency-free benchmark harness.
//!
//! Each binary under `src/bin/` regenerates one experimental artifact of
//! the paper and prints measured-vs-paper rows:
//!
//! * `table1` — Table 1 (area difference, new vs old immune layouts);
//! * `fig2_immunity` — Figure 2 (vulnerable vs immune NAND under
//!   mispositioned CNTs);
//! * `fig34_layouts` — Figures 3–4 (NAND3 and AOI layouts, SVG/GDS dumps);
//! * `fig7_fo4` — Figure 7 (FO4 delay gain vs number of CNTs);
//! * `case_study1` — Case study 1 (technology comparison + area gain);
//! * `case_study2` — Case study 2 (full-adder delay/energy/area);
//! * `edp_summary` — the headline EDP/EDAP gains.
//!
//! The `benches/` targets use [`harness`] (the workspace builds without
//! network access, so criterion is not available): wall-clock timing over
//! a fixed iteration count, a printed table, and a JSON baseline written
//! under `target/bench-baselines/` for future perf PRs to diff against.

#![forbid(unsafe_code)]

pub mod harness;

/// Formats a measured-vs-paper comparison line.
pub fn compare_line(label: &str, measured: f64, paper: f64, unit: &str) -> String {
    let delta = if paper != 0.0 {
        format!("{:+.1}%", (measured - paper) / paper * 100.0)
    } else {
        "—".to_string()
    };
    format!("{label:<34} measured {measured:>9.3} {unit:<5} paper {paper:>9.3} {unit:<5} Δ {delta}")
}

/// Renders a simple ASCII table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_line_formats() {
        let line = compare_line("test", 4.2, 4.0, "x");
        assert!(line.contains("measured"));
        assert!(line.contains("+5.0%"));
    }

    #[test]
    fn row_aligns() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
