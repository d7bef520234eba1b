//! Byte-identity pins for the BLIF reader and writer.
//!
//! Result-cache keys hash node numbering, cache files store written
//! text, and clients see which inputs are refused and where. So the
//! reader must build the same graph, the writer must emit the same
//! bytes, and both must accept and reject exactly the same inputs as the
//! per-gate-string document they replaced. The digests below were
//! recorded from that document:
//!
//! * for every BLIF mutant of the hostile-input corpus, and for mutants
//!   of a text that uses every lexical feature the reader knows (CRLF,
//!   `\` continuations, `#` comments, Unicode whitespace, zero-input
//!   tables, off-set covers): the error's kind and position, or the
//!   re-written text and the graph's fingerprint;
//! * for hand-written texts at each accept/reject decision (content
//!   after `.end`, mixed covers found only after the whole parse, the
//!   order of the conversion errors): the error as displayed, or the
//!   graph and the re-written text;
//! * for the checked-in benchmarks and three generated circuits: the
//!   graph read back, the text written from the graph, and the text
//!   written from the parsed document.

mod common;

use io::blif::Blif;
use io::ParseError;
use mig::Mig;
use testrand::Rng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a of `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn eat_error(h: u64, e: &ParseError) -> u64 {
    fnv(h, format!("{:?} at {:?}", e.kind, e.position).as_bytes())
}

fn eat_graph(h: u64, m: &Mig) -> u64 {
    let h = fnv(h, &(m.num_inputs() as u64).to_le_bytes());
    let h = fnv(h, &m.fingerprint().to_le_bytes());
    m.outputs()
        .iter()
        .fold(h, |h, s| fnv(h, &(s.code() as u64).to_le_bytes()))
}

/// Folds one input's outcome into `h`: the parse error, or the parsed
/// document's text and then the conversion error or the graph.
fn eat_outcome(h: u64, text: &str) -> (u64, bool) {
    match Blif::parse(text) {
        Err(e) => (eat_error(h, &e), false),
        Ok(doc) => {
            let h = fnv(h, doc.to_text().as_bytes());
            match doc.to_mig() {
                Err(e) => (eat_error(h, &e), false),
                Ok(m) => (eat_graph(h, &m), true),
            }
        }
    }
}

#[test]
fn mutant_outcomes_keep_their_recorded_digests() {
    // (file, mutants that convert, digest of all outcomes)
    const PINNED: [(&str, usize, u64); 4] = [
        ("full_adder.aag", 0, 412546216141463625),
        ("adder8.aag", 0, 17461771469065540711),
        ("mult4.aig", 0, 15061461412358959180),
        ("adder4.blif", 40, 2839107325231056051),
    ];
    let mut seen: Vec<(&str, usize, u64)> =
        common::FILES.iter().map(|&f| (f, 0, FNV_OFFSET)).collect();
    common::for_each_mutant(|name, _, bytes| {
        let slot = seen.iter_mut().find(|s| s.0 == name).unwrap();
        let (h, converted) = eat_outcome(slot.2, &String::from_utf8_lossy(bytes));
        slot.1 += usize::from(converted);
        slot.2 = h;
    });
    assert_eq!(seen, PINNED);
}

/// Every lexical feature of the reader in one model that converts:
/// CRLF and LF lines, comments, continuations (one inside a `.names`
/// line), tabs and Unicode whitespace between tokens, tables out of
/// order, on-set and off-set covers, and constant tables.
const FEATURES: &str = "# feature corpus\r\n\
    .model feat # trailing comment\r\n\
    .inputs a b\tc \\\r\n d\r\n\
    .outputs y z\u{a0}w k v one zero\r\n\
    .names t u y\r\n10 1\r\n01 1\r\n\
    .names a b c t\r\n11- 1\r\n1-1 1\r\n-11 1\r\n\
    .names c d u\r\n11 0\r\n\
    .names a \\\r\nb d w\r\n1-0 1\r\n-11 1\r\n\
    .names t d k\r\n00\u{3000}0\r\n\
    .names s z\n0 1\n\
    .names b\u{b}c s\n1- 1\n-1\u{c}1\n\
    .names a c d v\n10- 0\n1-0 0\n-00 0\n\
    .names one\n1\n\
    .names zero\n\
    .end\n";

/// What the feature mutants insert: separators, line breaks,
/// continuations, comments, directives and cover characters.
const SNIPPETS: [&str; 27] = [
    " ", "\t", "\r", "\n", "\r\n", "\\", "\\\n", "#", "\u{a0}", "\u{3000}", "\u{b}", "\u{c}",
    "\u{85}", "\u{2028}", ".end", ".names", ".inputs", ".outputs", ".model", ".latch", "0", "1",
    "-", "a", "t", "y", "x",
];

/// `text` after one to four edits at character boundaries: insert a
/// snippet, delete one to three characters, or both.
fn mutate_text(rng: &mut Rng, text: &str) -> String {
    let mut s = text.to_string();
    for _ in 0..rng.range(1, 5) {
        let mut at = rng.usize_below(s.len() + 1);
        while !s.is_char_boundary(at) {
            at -= 1;
        }
        let edit = rng.below(3);
        if edit != 0 {
            for _ in 0..rng.range(1, 4) {
                if let Some(c) = s[at..].chars().next() {
                    s.replace_range(at..at + c.len_utf8(), "");
                }
            }
        }
        if edit != 1 {
            s.insert_str(at, SNIPPETS[rng.usize_below(SNIPPETS.len())]);
        }
    }
    s
}

#[test]
fn feature_mutant_outcomes_keep_their_recorded_digests() {
    // (mutants that convert, digest of all outcomes); the unmutated
    // text comes first.
    const PINNED: (usize, u64) = (168, 5882866641697627875);
    let mut rng = Rng::new(0xB11F_0001);
    let (mut h, converted) = eat_outcome(FNV_OFFSET, FEATURES);
    assert!(converted, "the feature corpus itself must convert");
    let mut count = 1;
    for _ in 0..2_000 {
        let (next, ok) = eat_outcome(h, &mutate_text(&mut rng, FEATURES));
        h = next;
        count += usize::from(ok);
    }
    assert_eq!((count, h), PINNED);
}

/// One input's outcome, spelled out: the error as displayed, or the
/// graph's and the re-written text's digests.
fn outcome(text: &str) -> String {
    let doc = match Blif::parse(text) {
        Ok(doc) => doc,
        Err(e) => return e.to_string(),
    };
    let written = fnv(FNV_OFFSET, doc.to_text().as_bytes());
    match doc.to_mig() {
        Ok(m) => format!("ok {:016x} {written:016x}", eat_graph(FNV_OFFSET, &m)),
        Err(e) => format!("{e} (text {written:016x})"),
    }
}

#[test]
fn edge_cases_keep_their_recorded_outcomes() {
    // (text, outcome)
    const CASES: [(&str, &str); 30] = [
        (".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n.names a z\n", "malformed token at line 7, column 1: content after .end"),
        (".model m\n.end\n\n  \t\n# after the end\n", "ok be9353d2d3993a21 28a7f05233ea1ab4"),
        (".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.end\n", "malformed token at end of input: table 0 for \"y\" mixes on-set and off-set rows"),
        (".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.latch a y\n", "unsupported feature at line 7, column 1: .latch is not supported (combinational .names only)"),
        (".inputs a\n.outputs y\n.names a y\n1 1\n0 0\n", "malformed header at end of input: no .model section found"),
        (".model m\n.inputs a\n.outputs y z\n.names a y\n1 1\n.names a z\n0 1\n1 0\n.names a w\n1 0\n0 1\n", "malformed token at end of input: table 1 for \"z\" mixes on-set and off-set rows"),
        (".model m\n.inputs a \\", "ok 8ab69da1db8f392c ffac00be1bcd3b0e"),
        (".model m # x\n.inputs a \\ # c\n b\n.outputs y\n.names a b y\n11 1\n.end\n", "ok c805a6b398ee4c42 23589772a3240972"),
        (".model m\n.outputs y\n.names y\n1 1\n", "malformed token at line 4, column 1: input plane \"1\" must be 0 characters of 0/1/-"),
        (".model m\n11 1\n", "malformed token at line 2, column 1: cover row \"11 1\" outside a .names table"),
        (".model m\n.inputs a\n.names a y\n1 1 1\n", "malformed token at line 4, column 1: cover row must be `<plane> <value>`, found \"1 1 1\""),
        (".model a\n.model b\n", "unsupported feature at line 2, column 1: multiple .model sections (hierarchy is not supported)"),
        (".model m\n.names\n", "malformed token at line 2, column 1: .names needs at least an output name"),
        (".model m\n.foo bar\n", "malformed token at line 2, column 1: unknown directive \".foo\""),
        (".model m\n.exdc\n", "unsupported feature at line 2, column 1: .exdc is not supported"),
        (".model m\n.inputs a a\n.names a y\n.names a y\n", "conflicting definition at end of input: primary input \"a\" is declared twice (text be3b9c9f543fa891)"),
        (".model m\n.inputs a\n.names a\n.names b\n.names b\n", "conflicting definition at end of input: table 0 drives primary input \"a\" (text a389f341f67c82ff)"),
        (".model m\n.inputs a\n.names b\n.names b\n.names q a\n", "conflicting definition at end of input: signal \"b\" is driven by multiple .names tables (text 06b69c35c4ee2fe0)"),
        (".model m\n.outputs y\n.names t y\n1 1\n.names y t\n1 1\n", "undefined or cyclic reference at end of input: cyclic definition through signal \"y\" (text 2702e481673cabe9)"),
        (".model m\n.outputs y\n.names t y\n1 1\n.names u t\n1 1\n", "undefined or cyclic reference at end of input: table for \"t\" references undriven signal \"u\" (text c64fcdbbeae8a4ad)"),
        (".model m\n.outputs y\n", "undefined or cyclic reference at end of input: primary output \"y\" has no driver (text e89d7a717ecb88eb)"),
        (".model m\n.inputs\u{a0}a\u{2003}b\u{85}c\n.outputs y\n.names a b\u{2028}c y\n111 1\n", "ok 9b1e77836ee6fce1 c67f7531a4cb25e5"),
        (".model m\n.inputs ä b\n.outputs y\n.names ä b y\n11 1\n", "ok c805a6b398ee4c42 77acda9b001c9062"),
        (".model m\r.inputs a\n.outputs a\n", "undefined or cyclic reference at end of input: primary output \"a\" has no driver (text 097bc8082cf60ee3)"),
        (".model m\n.inputs a#b c\n.outputs a\n", "ok 7af6ba9fee83e2fa a0a7db8aa4b28f09"),
        (".model m\n.inputs a \\\n\n.outputs a\n", "ok 7af6ba9fee83e2fa a0a7db8aa4b28f09"),
        (".model m\n.inputs a b c\n.outputs y\n.names a b c y\n1-1 0\n-11 0\n11- 0\n", "ok 8114eb64f844a6d3 b2132e5196f4ee4e"),
        (".model m\n.inputs a b c\n.outputs y\n.names a b c y\n1-- 1\n-1- 1\n--1 1\n", "ok a19ab1ae907ce927 fc9a311fef3837ad"),
        (".model m\n.outputs one zero\n.names one\n0\n.names zero\n1\n", "ok ba44fd5338026af8 d5737f5c92e9145b"),
        (".model\n.outputs z\n.names z\n", "ok 04b3330a52d71dfd 6070bbd0be8a7516"),
    ];
    let seen: Vec<(&str, String)> = CASES.iter().map(|&(t, _)| (t, outcome(t))).collect();
    let pinned: Vec<(&str, String)> = CASES.iter().map(|&(t, o)| (t, o.to_string())).collect();
    assert_eq!(seen, pinned);
}

/// The circuits pinned below, each as a graph and, for a BLIF file, its
/// own text.
fn circuits() -> Vec<(String, Mig, Option<String>)> {
    let mut out = Vec::new();
    for name in common::FILES {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../benchmarks")
            .join(name);
        let m = io::read_mig_path(&path).unwrap();
        let own = name
            .ends_with(".blif")
            .then(|| String::from_utf8(common::read(name)).unwrap());
        out.push((name.to_string(), m, own));
    }
    let and_expanded = |m: &Mig| aig::to_mig(&aig::from_mig(m));
    for (name, m) in [
        ("mult:10", benchgen::multiplier(10)),
        ("hyp:6", benchgen::hypotenuse(6)),
        ("ctrl:8:16:15:3", benchgen::random_control(8, 16, 15, 3)),
    ] {
        out.push((name.to_string(), and_expanded(&m), None));
    }
    out
}

#[test]
fn circuits_keep_their_recorded_graphs_and_text() {
    // (circuit, graph read back, text written from the graph, text
    // written from the parsed document)
    const PINNED: [(&str, u64, u64, u64); 7] = [
        (
            "full_adder.aag",
            6890577991753711660,
            4144822134148770455,
            4144822134148770455,
        ),
        (
            "adder8.aag",
            9245225596800702522,
            16322588495364673395,
            16322588495364673395,
        ),
        (
            "mult4.aig",
            5640835488507207916,
            15993383026691787035,
            15993383026691787035,
        ),
        (
            "adder4.blif",
            9112620595041509546,
            4496125113884805800,
            12823112158103047931,
        ),
        (
            "mult:10",
            11961740803622703320,
            17522176306608467898,
            17522176306608467898,
        ),
        (
            "hyp:6",
            16345345726128362688,
            2623284032268393240,
            2623284032268393240,
        ),
        (
            "ctrl:8:16:15:3",
            15705433887688824810,
            6279696045199631501,
            6279696045199631501,
        ),
    ];
    let mut seen = Vec::new();
    for (name, m, own) in circuits() {
        let written = Blif::from_mig(&m, "pin").to_text();
        let source = own.as_deref().unwrap_or(&written);
        let doc = Blif::parse(source).unwrap();
        let graph = eat_graph(FNV_OFFSET, &doc.to_mig().unwrap());
        let reread = fnv(FNV_OFFSET, doc.to_text().as_bytes());
        seen.push((name, graph, fnv(FNV_OFFSET, written.as_bytes()), reread));
    }
    let seen: Vec<(&str, u64, u64, u64)> = seen
        .iter()
        .map(|(n, g, w, r)| (n.as_str(), *g, *w, *r))
        .collect();
    assert_eq!(seen, PINNED);
}
