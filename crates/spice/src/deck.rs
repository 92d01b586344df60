//! Parsing SPICE-like decks back into [`Circuit`]s — the inverse of
//! [`Circuit::to_spice`] for the element cards the engine supports.
//!
//! The grammar is deliberately small: `R`/`C`/`L` cards (`name a b
//! value`), `V` cards (`DC x`, `PULSE(...)`, `PWL(...)`), `*` comments,
//! and `.end`. Values accept scientific notation plus the common SPICE
//! magnitude suffixes (`f p n u m k meg g`). Transistor (`M`) cards are
//! rejected: device models carry behavior a text card cannot round-trip.

use crate::netlist::Circuit;
use cnfet_mna::SourceWave;
use std::fmt;

/// A deck parse failure, with the 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeckError {
    /// 1-based line number of the offending card; `0` when the failure
    /// is about the deck as a whole (a bad analysis spec or probe name)
    /// rather than one card.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DeckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "deck: {}", self.message)
        } else {
            write!(f, "deck line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for DeckError {}

fn err(line: usize, message: impl Into<String>) -> DeckError {
    DeckError {
        line,
        message: message.into(),
    }
}

/// Parses a value token: plain float, scientific notation, or a float
/// with a SPICE magnitude suffix (`2.5k`, `10p`, `1meg`).
fn parse_value(tok: &str, line: usize) -> Result<f64, DeckError> {
    if let Ok(v) = tok.parse::<f64>() {
        return Ok(v);
    }
    let lower = tok.to_ascii_lowercase();
    let (scale, digits) = if let Some(d) = lower.strip_suffix("meg") {
        (1e6, d)
    } else if let Some(d) = lower.strip_suffix('f') {
        (1e-15, d)
    } else if let Some(d) = lower.strip_suffix('p') {
        (1e-12, d)
    } else if let Some(d) = lower.strip_suffix('n') {
        (1e-9, d)
    } else if let Some(d) = lower.strip_suffix('u') {
        (1e-6, d)
    } else if let Some(d) = lower.strip_suffix('m') {
        (1e-3, d)
    } else if let Some(d) = lower.strip_suffix('k') {
        (1e3, d)
    } else if let Some(d) = lower.strip_suffix('g') {
        (1e9, d)
    } else {
        return Err(err(line, format!("invalid value `{tok}`")));
    };
    digits
        .parse::<f64>()
        .map(|v| v * scale)
        .map_err(|_| err(line, format!("invalid value `{tok}`")))
}

/// Splits a source specification like `PULSE(a b c)` into its keyword
/// and argument values.
fn parse_call(spec: &str, line: usize) -> Result<(String, Vec<f64>), DeckError> {
    let open = spec
        .find('(')
        .ok_or_else(|| err(line, "expected `(` in source specification"))?;
    let close = spec
        .rfind(')')
        .filter(|&close| close > open)
        .ok_or_else(|| err(line, "expected `)` after `(` in source specification"))?;
    let keyword = spec[..open].trim().to_ascii_uppercase();
    let mut args = Vec::new();
    for tok in spec[open + 1..close].split_whitespace() {
        args.push(parse_value(tok, line)?);
    }
    Ok((keyword, args))
}

fn parse_source(spec: &str, line: usize) -> Result<SourceWave, DeckError> {
    let upper = spec.trim().to_ascii_uppercase();
    if let Some(rest) = upper.strip_prefix("DC") {
        let tok = rest.trim();
        if tok.is_empty() {
            return Err(err(line, "DC source missing value"));
        }
        return Ok(SourceWave::Dc(parse_value(tok, line)?));
    }
    let (keyword, args) = parse_call(spec, line)?;
    match keyword.as_str() {
        "PULSE" => {
            if args.len() != 7 {
                return Err(err(
                    line,
                    format!("PULSE needs 7 arguments, got {}", args.len()),
                ));
            }
            Ok(SourceWave::Pulse {
                v0: args[0],
                v1: args[1],
                delay: args[2],
                rise: args[3],
                fall: args[4],
                width: args[5],
                period: args[6],
            })
        }
        "PWL" => {
            if args.len() < 2 || args.len() % 2 != 0 {
                return Err(err(line, "PWL needs an even, non-zero argument count"));
            }
            let points: Vec<(f64, f64)> = args.chunks(2).map(|p| (p[0], p[1])).collect();
            if points.windows(2).any(|w| w[1].0 <= w[0].0) {
                return Err(err(line, "PWL times must strictly increase"));
            }
            Ok(SourceWave::Pwl(points))
        }
        other => Err(err(line, format!("unsupported source kind `{other}`"))),
    }
}

impl Circuit {
    /// Parses a SPICE-like deck (the dialect [`Circuit::to_spice`]
    /// renders) into a circuit. Node names are interned in order of first
    /// appearance; `0` and `gnd` are ground.
    ///
    /// # Errors
    ///
    /// Returns a [`DeckError`] naming the offending line for malformed
    /// cards, bad values (negative resistance, non-increasing PWL times),
    /// unsupported directives, and `M` (transistor) cards.
    pub fn from_spice(text: &str) -> Result<Circuit, DeckError> {
        let mut circuit = Circuit::new();
        for (k, raw) in text.lines().enumerate() {
            let line = k + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('*') {
                continue;
            }
            if trimmed.eq_ignore_ascii_case(".end") {
                break;
            }
            if trimmed.starts_with('.') {
                let directive = trimmed.split_whitespace().next().unwrap_or(trimmed);
                return Err(err(line, format!("unsupported directive `{directive}`")));
            }
            let kind = trimmed.chars().next().unwrap().to_ascii_uppercase();
            let fields: Vec<&str> = trimmed.split_whitespace().collect();
            match kind {
                'R' | 'C' | 'L' => {
                    if fields.len() != 4 {
                        return Err(err(line, format!("{kind} card needs `name a b value`")));
                    }
                    let a = circuit.node(fields[1]);
                    let b = circuit.node(fields[2]);
                    let value = parse_value(fields[3], line)?;
                    match kind {
                        'R' => {
                            if !(value.is_finite() && value > 0.0) {
                                return Err(err(line, "resistance must be positive"));
                            }
                            circuit.add_resistor(a, b, value);
                        }
                        'C' => {
                            if !(value.is_finite() && value >= 0.0) {
                                return Err(err(line, "capacitance must be non-negative"));
                            }
                            circuit.add_capacitor(a, b, value);
                        }
                        _ => {
                            if !(value.is_finite() && value > 0.0) {
                                return Err(err(line, "inductance must be positive"));
                            }
                            circuit.add_inductor(a, b, value);
                        }
                    }
                }
                'V' => {
                    if fields.len() < 4 {
                        return Err(err(line, "V card needs `name p n spec`"));
                    }
                    let p = circuit.node(fields[1]);
                    let n = circuit.node(fields[2]);
                    // `fields` borrow from `trimmed`: the spec starts at
                    // the fourth field, however the first three are spaced.
                    let spec_start = fields[3].as_ptr() as usize - trimmed.as_ptr() as usize;
                    let wave = parse_source(&trimmed[spec_start..], line)?;
                    circuit.add_vsource(p, n, wave);
                }
                'M' => {
                    return Err(err(
                        line,
                        "transistor cards are not supported (device models are not text)",
                    ));
                }
                other => {
                    return Err(err(line, format!("unsupported card `{other}`")));
                }
            }
        }
        Ok(circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_rendered_deck() {
        let mut c = Circuit::new();
        let a = c.node("in");
        let b = c.node("out");
        c.add_vsource(
            a,
            Circuit::GROUND,
            SourceWave::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1e-10,
                rise: 1e-11,
                fall: 1e-11,
                width: 1e-9,
                period: 2e-9,
            },
        );
        c.add_resistor(a, b, 1e3);
        c.add_inductor(b, Circuit::GROUND, 1e-9);
        c.add_capacitor(b, Circuit::GROUND, 1e-15);
        let rendered = c.to_spice("rlc");
        let reparsed = Circuit::from_spice(&rendered).unwrap();
        assert_eq!(reparsed.to_spice("rlc"), rendered);
    }

    #[test]
    fn parses_si_suffixes_and_aliases() {
        use cnfet_mna::MnaElement;
        let c = Circuit::from_spice(
            "V1  a\tgnd  DC 1.0\nR1 a b 2.5k\nC1 b 0 10p\nL1 b 0 1n\nR2 b 0 1meg\n.end\n",
        )
        .unwrap();
        let value = |e: &MnaElement| match e {
            MnaElement::Resistor { ohms, .. } => *ohms,
            MnaElement::Capacitor { farads, .. } => *farads,
            MnaElement::Inductor { henries, .. } => *henries,
            _ => panic!("unexpected element"),
        };
        let close = |got: f64, want: f64| (got - want).abs() <= want * 1e-12;
        assert!(close(value(&c.elements()[1]), 2.5e3));
        assert!(close(value(&c.elements()[2]), 1e-11));
        assert!(close(value(&c.elements()[3]), 1e-9));
        assert!(close(value(&c.elements()[4]), 1e6));
        assert!(matches!(
            &c.elements()[0],
            MnaElement::VSource { n: 0, wave: SourceWave::Dc(v), .. } if *v == 1.0
        ));
    }

    #[test]
    fn pwl_and_comments() {
        let c = Circuit::from_spice(
            "* a comment\n\nV1 in 0 PWL(0.0 0.0 1e-9 1.0)\nR1 in 0 50\n.end\nignored garbage",
        )
        .unwrap();
        assert_eq!(c.elements().len(), 2);
        assert_eq!(
            Circuit::from_spice("V1 in 0 PWL(1e-9 1.0 0.0 0.0)\n.end")
                .unwrap_err()
                .message,
            "PWL times must strictly increase"
        );
    }

    #[test]
    fn rejects_bad_cards_with_line_numbers() {
        let e = Circuit::from_spice("R1 a 0 1k\nR2 a 0 -5\n.end").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("positive"));
        assert!(e.to_string().starts_with("deck line 2:"));

        let e = Circuit::from_spice("M1 d g s cnfet_n\n.end").unwrap_err();
        assert!(e.message.contains("transistor"));

        let e = Circuit::from_spice(".tran 1n 10n\n.end").unwrap_err();
        assert!(e.message.contains(".tran"));

        let e = Circuit::from_spice("X1 a b sub\n.end").unwrap_err();
        assert!(e.message.contains('X'));

        let e = Circuit::from_spice("V1 a 0 SIN(0 1 1k)\n.end").unwrap_err();
        assert!(e.message.contains("SIN"));

        let e = Circuit::from_spice("R1 a 0 1k\nV1 a 0 )(\n.end").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("expected `)` after `(`"), "{e}");
    }
}
