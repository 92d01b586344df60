//! Property tests for the hand-rolled parsers. Seeded `cnfet-rng`
//! generators drive the JSON codec, the wire request decoder, the binary
//! frame decoders and the SPICE deck parser with generated values and
//! hostile token soups. Every case is reproducible from its seed, which a
//! failure names together with the input.

use cnfet::core::StdCellKind;
use cnfet::dk::TimingTable;
use cnfet::repair::DieOutcome;
use cnfet::spice::Circuit;
use cnfet::{CornerRow, VariationCorner};
use cnfet_rng::rngs::StdRng;
use cnfet_rng::{Rng, SeedableRng};
use cnfet_serve::json::{self, Json};
use cnfet_serve::{encode, wire};
use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Seeded cases per property.
const CASES: u64 = 3_000;

/// Runs `check` on one generated input per seed; a failing case reports
/// its seed and input before the failure propagates.
fn for_each_seed<T: Debug>(generate: impl Fn(&mut StdRng) -> T, check: impl Fn(&T)) {
    for seed in 0..CASES {
        let input = generate(&mut StdRng::seed_from_u64(seed));
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(&input))) {
            eprintln!("seed {seed} failed on input {input:?}");
            resume_unwind(panic);
        }
    }
}

fn pick<T: Clone>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

/// A finite number covering JSON's edge cases: both zeros, integers past
/// 2^53, fractions, and the extremes of magnitude.
fn number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..5u32) {
        0 => pick(
            rng,
            &[
                0.0,
                -0.0,
                1.0,
                -1.0,
                0.1,
                f64::MAX,
                f64::MIN,
                f64::MIN_POSITIVE,
                5e-324,
                9_007_199_254_740_993.0,
            ],
        ),
        1 => rng.gen_range(-1_000..1_000i64) as f64,
        2 => rng.gen_range(-1.0..1.0),
        3 => rng.gen_range(0..u64::MAX) as f64,
        _ => loop {
            let n = f64::from_bits(rng.next_u64());
            if n.is_finite() {
                break n;
            }
        },
    }
}

/// A string mixing plain ASCII with everything the codec must escape or
/// pass through: quotes, backslashes, control characters, multi-byte and
/// astral-plane characters (surrogate pairs when escaped).
fn string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..12usize);
    (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => char::from(rng.gen_range(0x20..0x7fu32) as u8),
            1 => pick(rng, &['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}']),
            2 => char::from_u32(rng.gen_range(0..0x20u32)).unwrap(),
            _ => pick(
                rng,
                &[
                    'é',
                    '€',
                    '\u{7f}',
                    '\u{ffff}',
                    '\u{e000}',
                    '😀',
                    '\u{10000}',
                    '\u{10ffff}',
                ],
            ),
        })
        .collect()
}

/// A generated JSON value, nesting at most `depth` more levels.
fn value(rng: &mut StdRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_range(0..2u32) == 1),
        2 => Json::Num(number(rng)),
        3 => Json::Str(string(rng)),
        4 => Json::Arr(
            (0..rng.gen_range(0..4usize))
                .map(|_| value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..4usize))
                .map(|_| (string(rng), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// `value` rendered with every string character as a `\uXXXX` escape —
/// a surrogate pair for astral characters, hex digits in mixed case — so
/// the parser's escape path must rebuild what the renderer writes raw.
fn render_escaped(value: &Json, out: &mut String) {
    fn string(s: &str, out: &mut String) {
        out.push('"');
        let mut buf = [0u16; 2];
        for (i, c) in s.chars().enumerate() {
            for unit in c.encode_utf16(&mut buf) {
                if i % 2 == 0 {
                    out.push_str(&format!("\\u{unit:04x}"));
                } else {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
        out.push('"');
    }
    match value {
        Json::Str(s) => string(s, out),
        Json::Arr(items) => {
            out.push_str("[ ");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(" ,\n");
                }
                render_escaped(item, out);
            }
            out.push_str(" ]");
        }
        Json::Obj(fields) => {
            out.push_str("{\t");
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                string(key, out);
                out.push_str(" : ");
                render_escaped(item, out);
            }
            out.push_str("\r}");
        }
        scalar => out.push_str(&scalar.render()),
    }
}

#[test]
fn json_parse_inverts_render() {
    for_each_seed(
        |rng| value(rng, 4),
        |value| {
            let text = value.render();
            let parsed = json::parse(&text).expect("rendered JSON parses");
            assert_eq!(&parsed, value);
            // Byte-equal re-rendering also pins what `==` cannot see:
            // the sign of a zero.
            assert_eq!(parsed.render(), text);

            let mut escaped = String::new();
            render_escaped(value, &mut escaped);
            let parsed = json::parse(&escaped).expect("escaped JSON parses");
            assert_eq!(parsed.render(), text, "escapes decode to the raw text");
        },
    );
}

#[test]
fn json_depth_bound_holds() {
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        let nest = |levels: usize| format!("{}0{}", open.repeat(levels), close.repeat(levels));
        assert!(json::parse(&nest(64)).is_ok(), "64 levels parse ({open})");
        let error = json::parse(&nest(65)).unwrap_err();
        assert!(error.message.contains("nesting"), "65 levels: {error}");
    }
    // Far past the bound the parser still refuses rather than recursing.
    assert!(json::parse(&"[{\"k\":".repeat(100_000)).is_err());
}

/// JSON punctuation, literals, numbers and escapes, and the wire
/// protocol's field names and values, space-separated.
const JSON_TOKENS: &str = r#"{ } [ ] : , " \ \u \uD83D \uDE00 \ud800 \n 0 - -0 1 1.5 1e400 1e
    e+ . 4294967297 9007199254740993 true false null nul é 😀 "type" "cells" "cell" "kind" "grid"
    "tube_counts" "seeds" "mc" "tubes" "dies" "spares" "adjacent" "passes" "width" "bit" "deck"
    "sweep" "repair" "optimize" "macro" "macro_slice" "tran" "inv" "nand3" "cla""#;

/// One of the space-separated words of `list`.
fn word(rng: &mut StdRng, list: &'static str) -> &'static str {
    pick(rng, &list.split_whitespace().collect::<Vec<_>>())
}

/// Up to `len` tokens of `list`, each followed by a separator drawn from
/// `separators`.
fn soup(rng: &mut StdRng, list: &'static str, separators: &[&str], len: usize) -> String {
    let mut soup = String::new();
    for _ in 0..rng.gen_range(0..len) {
        soup.push_str(word(rng, list));
        soup.push_str(pick(rng, separators));
    }
    soup
}

fn json_soup(rng: &mut StdRng) -> String {
    soup(
        rng,
        JSON_TOKENS,
        &["", "", " ", "\n", "\t", "\u{0}", "\u{7f}"],
        40,
    )
}

#[test]
fn json_token_soups_never_panic() {
    for_each_seed(json_soup, |soup| {
        if let Ok(value) = json::parse(soup) {
            // Whatever parses renders back to something that parses.
            let again = json::parse(&value.render()).expect("re-render parses");
            assert_eq!(again.render(), value.render());
            let _ = wire::parse_request(&value);
        }
    });
}

/// One valid request of every type the wire decoder knows — the seeds
/// the mutations start from, so decoding reaches past the required
/// fields into every per-type parser.
const WIRE_TEMPLATES: &[&str] = &[
    r#"{"type":"cell","kind":"nand3","strength":2,"name":"N3_X2","scheme":"s2"}"#,
    r#"{"type":"library","scheme":"s1"}"#,
    r#"{"type":"immunity","cell":{"kind":"aoi22"},"engine":"monte_carlo",
        "mc":{"tubes":500,"seed":7,"metallic_fraction":0.02}}"#,
    r#"{"type":"flow","source":"full_adder","target":"s1","emit_gds":true,
        "sim":{"toggle_in":"A","ties":{"B":true,"CI":false},"watch_out":"S"}}"#,
    r#"{"type":"flow","source":{"verilog":"module t(a, y); input a; output y; endmodule"},
        "target":"cmos"}"#,
    r#"{"type":"sweep","cells":[{"kind":"inv"},{"kind":"nand2"}],
        "grid":{"tube_counts":[26,10],"metallic_fractions":[0.0,0.02],"seeds":[1]},
        "metrics":"immunity","mc":{"tubes":200},"loads_f":[1e-15]}"#,
    r#"{"type":"sweep_corner","cell":{"kind":"inv"},
        "corner":{"tubes_per_4lambda":10,"pitch_scale":1.3,"metallic_fraction":0.0,"seed":42}}"#,
    r#"{"type":"tran","deck":"V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1p\n.end",
        "dt":1e-11,"t_stop":1e-8,"probes":["out"]}"#,
    r#"{"type":"repair","cells":[{"kind":"inv"},{"kind":"nand2"}],"dies":1000,"seed":7,
        "spares":2,"solver":"auto","params":{"metallic_fraction":0.05,"tubes_per_site":4},
        "adjacent":[[0,1]]}"#,
    r#"{"type":"die","cells":[{"kind":"inv"}],"die":42,"seed":7}"#,
    r#"{"type":"optimize","cells":[{"kind":"inv"}],
        "grid":{"tube_counts":[6,26],"pitch_scales":[1.0,1.5]},
        "target":{"min_yield":0.9,"max_delay_s":5e-11},"passes":2,
        "metrics":"immunity","mc":{"tubes":200}}"#,
    r#"{"type":"macro","kind":"cla","width":64,"scheme":"s2","seed":7}"#,
    r#"{"type":"macro_slice","kind":"cla","width":64,"bit":9}"#,
];

/// Field names and word values of the protocol, for mutations to use.
const WIRE_FIELDS: &str = "type kind cell cells scheme strength engine mc tubes seed source
    target sim grid tube_counts pitch_scales seeds corner tubes_per_4lambda deck dt t_stop probes
    dies spares solver params adjacent die passes metrics loads_f width bit min_yield";
const WIRE_WORDS: &str = "inv nand4 nor3 aoi31 oai22 frob s1 s2 cmos ripple cla auto matching
    sat certify both immunity timing all full_adder .end macro";

/// An arbitrary value for a mutated field: in or out of range, wrongly
/// typed, or nested.
fn wire_value(rng: &mut StdRng, depth: u32) -> Json {
    match rng.gen_range(0..if depth == 0 { 4 } else { 6u32 }) {
        0 => Json::Num(number(rng)),
        1 => Json::Num(pick(
            rng,
            &[0.0, 1.0, 2.0, 9.0, 64.0, 4_294_967_296.0, -1.0],
        )),
        2 => Json::str(word(rng, WIRE_WORDS)),
        3 => pick(rng, &[Json::Null, Json::Bool(true), Json::Bool(false)]),
        4 => Json::Obj(
            (0..rng.gen_range(0..4usize))
                .map(|_| {
                    (
                        word(rng, WIRE_FIELDS).to_string(),
                        wire_value(rng, depth - 1),
                    )
                })
                .collect(),
        ),
        _ => Json::Arr(
            (0..rng.gen_range(0..4usize))
                .map(|_| wire_value(rng, depth - 1))
                .collect(),
        ),
    }
}

/// Mutates one random spot of `value`: a field is dropped, overwritten
/// or added, or an array element or scalar is replaced.
fn mutate(rng: &mut StdRng, value: &mut Json) {
    match value {
        Json::Obj(fields) if !fields.is_empty() && rng.gen_range(0..3u32) > 0 => {
            let at = rng.gen_range(0..fields.len());
            match rng.gen_range(0..3u32) {
                0 => mutate(rng, &mut fields[at].1),
                1 => drop(fields.remove(at)),
                _ => fields[at].1 = wire_value(rng, 2),
            }
        }
        Json::Obj(fields) => fields.push((word(rng, WIRE_FIELDS).to_string(), wire_value(rng, 2))),
        Json::Arr(items) if !items.is_empty() && rng.gen_range(0..2u32) > 0 => {
            let at = rng.gen_range(0..items.len());
            mutate(rng, &mut items[at]);
        }
        other => *other = wire_value(rng, 2),
    }
}

fn wire_request(rng: &mut StdRng) -> Json {
    let mut request = json::parse(pick(rng, WIRE_TEMPLATES)).expect("templates parse");
    for _ in 0..rng.gen_range(0..4usize) {
        mutate(rng, &mut request);
    }
    request
}

#[test]
fn wire_requests_never_panic_the_decoder() {
    for template in WIRE_TEMPLATES {
        let request = json::parse(template).unwrap();
        assert!(wire::parse_request(&request).is_ok(), "{template}");
    }
    for_each_seed(wire_request, |request| {
        let _ = wire::parse_request(request);
    });
}

/// Binary building blocks: presence and bool bytes, small and huge
/// lengths, raw 8-byte words, text, and the table magics.
fn binary_soup(rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..rng.gen_range(0..24usize) {
        match rng.gen_range(0..6u32) {
            0 => bytes.push(pick(rng, &[0u8, 1, 2, 0xff])),
            1 => bytes.extend_from_slice(&rng.gen_range(0..8u32).to_le_bytes()),
            2 => bytes.extend_from_slice(&pick(rng, &[u32::MAX, 1 << 31, 1 << 16]).to_le_bytes()),
            3 => bytes.extend_from_slice(&rng.next_u64().to_le_bytes()),
            4 => bytes.extend_from_slice(pick(rng, &["INV_X1", "é", "CNR1", "CND1"]).as_bytes()),
            _ => bytes.push(rng.gen_range(0..256u32) as u8),
        }
    }
    bytes
}

fn corner_row() -> CornerRow {
    CornerRow {
        cell: "NAND2_X1".into(),
        kind: StdCellKind::Nand(2),
        strength: 1,
        corner: VariationCorner::nominal(),
        mc_tubes: Some(200),
        mc_failures: None,
        immune: Some(true),
        metallic_yield: Some(0.9),
        timing: Some(TimingTable {
            loads_f: vec![1e-15],
            delays_s: vec![2.5e-12],
            energy_j: 3e-16,
        }),
        liberty: None,
        waveform: Some("0 0\n".into()),
    }
}

fn die_outcome() -> DieOutcome {
    DieOutcome {
        die: 3,
        sites: 4,
        defective_sites: 1,
        repaired: true,
        solver: "matching",
        spares_used: 1,
        assignment: vec![Some(0), Some(3), None],
    }
}

/// A binary input for the decoders: a soup, or a valid encoding cut
/// short or with a few bytes corrupted.
fn binary_input(rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = match rng.gen_range(0..5u32) {
        0 => return binary_soup(rng),
        1 => encode::encode_row(&corner_row()),
        2 => encode::encode_die(&die_outcome()),
        3 => encode::encode_row_table(&[corner_row(), corner_row()]),
        _ => encode::encode_die_table(&[die_outcome()]),
    };
    if rng.gen_range(0..2u32) == 0 {
        bytes.truncate(rng.gen_range(0..bytes.len() + 1));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        if !bytes.is_empty() {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen_range(0..256u32) as u8;
        }
    }
    bytes
}

#[test]
fn binary_decoders_never_panic() {
    for_each_seed(binary_input, |bytes| {
        let _ = encode::decode_row(bytes);
        let _ = encode::decode_row_table(bytes);
        let _ = encode::decode_die(bytes);
        let _ = encode::decode_die_table(bytes);
        if let Some((tag, payload, used)) = encode::read_frame(bytes) {
            assert_eq!(tag, bytes[0]);
            assert_eq!(used, 5 + payload.len());
            assert!(used <= bytes.len());
        }
    });
}

/// Card letters, node names, values with and without SPICE suffixes,
/// source specifications and directives.
const DECK_TOKENS: &str = "R1 C1 L1 V1 M1 X1 r v a b 0 gnd vdd 1k 2.5meg 10p 1f -1 1e-15 nan inf
    1e400 meg k DC dc PULSE( PWL( ( ) 1 2 3 .end .END .tran * + é 😀";

/// A deck of up to five lines of deck tokens.
fn deck_soup(rng: &mut StdRng) -> String {
    let mut deck = String::new();
    for _ in 0..rng.gen_range(0..6usize) {
        deck.push_str(&soup(rng, DECK_TOKENS, &[" ", " ", "", "\t", "\u{0}"], 9));
        deck.push_str(pick(rng, &["\n", "\r\n"]));
    }
    deck
}

#[test]
fn deck_token_soups_never_panic() {
    for_each_seed(deck_soup, |deck| {
        let _ = Circuit::from_spice(deck);
    });
}
