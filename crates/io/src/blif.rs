//! BLIF reader/writer (Berkeley Logic Interchange Format, combinational
//! subset).
//!
//! [`Blif`] is a lossless document model: `.model`, `.inputs`,
//! `.outputs` and the `.names` tables are preserved in order with their
//! covers, so `parse → write` is a fixed point for files produced by
//! this writer. Sequential constructs (`.latch`) and hierarchy
//! (`.subckt`, `.gate`) produce positioned [`ParseError`]s.

use crate::error::{ErrorKind, ParseError, Position};
use mig::{Mig, Signal};
use std::collections::{HashMap, HashSet};

/// One `.names` logic table: a single-output sum-of-products cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlifGate {
    /// Input signal names, in column order.
    pub inputs: Vec<String>,
    /// Output signal name.
    pub output: String,
    /// Cover rows: `(input plane, output value)`. The input plane uses
    /// `0`, `1`, `-` per column; for zero-input tables it is empty.
    pub cover: Vec<(String, char)>,
}

/// A parsed BLIF model (combinational subset: `.names` only).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Blif {
    /// The `.model` name.
    pub model: String,
    /// Primary input names, in declaration order.
    pub inputs: Vec<String>,
    /// Primary output names, in declaration order.
    pub outputs: Vec<String>,
    /// Logic tables, in file order.
    pub gates: Vec<BlifGate>,
}

/// Joins BLIF continuation lines (trailing `\`) and strips `#` comments,
/// keeping the 1-based line number of each logical line's first physical
/// line.
fn logical_lines(text: &str) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (i, raw) in text.lines().enumerate() {
        let no_comment = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let (cont, body) = match no_comment.trim_end().strip_suffix('\\') {
            Some(b) => (true, b.to_string()),
            None => (false, no_comment.to_string()),
        };
        match pending.take() {
            Some((ln, mut acc)) => {
                acc.push(' ');
                acc.push_str(&body);
                if cont {
                    pending = Some((ln, acc));
                } else {
                    out.push((ln, acc));
                }
            }
            None => {
                if cont {
                    pending = Some((i + 1, body));
                } else if !body.trim().is_empty() {
                    out.push((i + 1, body));
                }
            }
        }
    }
    if let Some((ln, acc)) = pending {
        out.push((ln, acc));
    }
    out
}

impl Blif {
    /// Parses a BLIF model.
    ///
    /// # Errors
    ///
    /// Returns a positioned [`ParseError`] on malformed or unsupported
    /// input; never panics.
    pub fn parse(text: &str) -> Result<Blif, ParseError> {
        let mut doc = Blif::default();
        let mut seen_model = false;
        let mut current: Option<BlifGate> = None;
        let mut ended = false;
        for (ln, line) in logical_lines(text) {
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.is_empty() {
                continue;
            }
            if ended {
                return Err(ParseError::at_line(
                    ErrorKind::BadToken,
                    ln,
                    1,
                    "content after .end",
                ));
            }
            match toks[0] {
                ".model" => {
                    if seen_model {
                        return Err(ParseError::at_line(
                            ErrorKind::Unsupported,
                            ln,
                            1,
                            "multiple .model sections (hierarchy is not supported)",
                        ));
                    }
                    seen_model = true;
                    doc.model = toks.get(1).unwrap_or(&"top").to_string();
                }
                ".inputs" => {
                    doc.inputs.extend(toks[1..].iter().map(|s| s.to_string()));
                }
                ".outputs" => {
                    doc.outputs.extend(toks[1..].iter().map(|s| s.to_string()));
                }
                ".names" => {
                    if toks.len() < 2 {
                        return Err(ParseError::at_line(
                            ErrorKind::BadToken,
                            ln,
                            1,
                            ".names needs at least an output name",
                        ));
                    }
                    if let Some(g) = current.take() {
                        doc.gates.push(g);
                    }
                    current = Some(BlifGate {
                        inputs: toks[1..toks.len() - 1]
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                        output: toks[toks.len() - 1].to_string(),
                        cover: Vec::new(),
                    });
                }
                ".latch" | ".subckt" | ".gate" | ".mlatch" | ".clock" => {
                    return Err(ParseError::at_line(
                        ErrorKind::Unsupported,
                        ln,
                        1,
                        format!("{} is not supported (combinational .names only)", toks[0]),
                    ));
                }
                ".end" => {
                    ended = true;
                }
                ".exdc" | ".wire_load_slope" | ".delay" => {
                    return Err(ParseError::at_line(
                        ErrorKind::Unsupported,
                        ln,
                        1,
                        format!("{} is not supported", toks[0]),
                    ));
                }
                t if t.starts_with('.') => {
                    return Err(ParseError::at_line(
                        ErrorKind::BadToken,
                        ln,
                        1,
                        format!("unknown directive {t:?}"),
                    ));
                }
                _ => {
                    // A cover row for the current .names table.
                    let Some(g) = current.as_mut() else {
                        return Err(ParseError::at_line(
                            ErrorKind::BadToken,
                            ln,
                            1,
                            format!("cover row {line:?} outside a .names table"),
                        ));
                    };
                    let (plane, value) = match toks.len() {
                        1 if g.inputs.is_empty() => (String::new(), toks[0]),
                        2 => (toks[0].to_string(), toks[1]),
                        _ => {
                            return Err(ParseError::at_line(
                                ErrorKind::BadToken,
                                ln,
                                1,
                                format!("cover row must be `<plane> <value>`, found {line:?}"),
                            ));
                        }
                    };
                    if plane.len() != g.inputs.len()
                        || !plane.chars().all(|c| matches!(c, '0' | '1' | '-'))
                    {
                        return Err(ParseError::at_line(
                            ErrorKind::BadToken,
                            ln,
                            1,
                            format!(
                                "input plane {plane:?} must be {} characters of 0/1/-",
                                g.inputs.len()
                            ),
                        ));
                    }
                    let v = match value {
                        "0" => '0',
                        "1" => '1',
                        _ => {
                            return Err(ParseError::at_line(
                                ErrorKind::BadToken,
                                ln,
                                1,
                                format!("output value must be 0 or 1, found {value:?}"),
                            ));
                        }
                    };
                    g.cover.push((plane, v));
                }
            }
        }
        if let Some(g) = current.take() {
            doc.gates.push(g);
        }
        if !seen_model {
            return Err(ParseError::new(
                ErrorKind::BadHeader,
                Position::Eof,
                "no .model section found",
            ));
        }
        for (ln, g) in doc.gates.iter().enumerate() {
            let mixed = g.cover.iter().any(|(_, v)| *v != g.cover[0].1);
            if mixed {
                return Err(ParseError::new(
                    ErrorKind::BadToken,
                    Position::Eof,
                    format!(
                        "table {ln} for {:?} mixes on-set and off-set rows",
                        g.output
                    ),
                ));
            }
        }
        Ok(doc)
    }

    /// Serializes back to BLIF text.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, ".model {}", self.model);
        if !self.inputs.is_empty() {
            let _ = writeln!(s, ".inputs {}", self.inputs.join(" "));
        }
        if !self.outputs.is_empty() {
            let _ = writeln!(s, ".outputs {}", self.outputs.join(" "));
        }
        for g in &self.gates {
            let mut head = String::from(".names");
            for i in &g.inputs {
                head.push(' ');
                head.push_str(i);
            }
            head.push(' ');
            head.push_str(&g.output);
            let _ = writeln!(s, "{head}");
            for (plane, v) in &g.cover {
                if plane.is_empty() {
                    let _ = writeln!(s, "{v}");
                } else {
                    let _ = writeln!(s, "{plane} {v}");
                }
            }
        }
        s.push_str(".end\n");
        s
    }

    /// Converts into an [`Mig`]. Each `.names` table becomes a
    /// sum-of-products over majority-encoded AND/OR gates; tables may be
    /// defined in any order and are resolved transitively.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Undefined`] when a referenced signal has no driver or
    /// definitions are cyclic; [`ErrorKind::Conflict`] when two tables
    /// drive the same signal or a table drives a primary input.
    pub fn to_mig(&self) -> Result<Mig, ParseError> {
        let mut m = Mig::new(self.inputs.len());
        let mut map: HashMap<&str, Signal> = HashMap::new();
        for (i, name) in self.inputs.iter().enumerate() {
            map.insert(name, m.input(i));
        }
        let mut input_names: HashSet<&str> = HashSet::new();
        for name in &self.inputs {
            if !input_names.insert(name.as_str()) {
                return Err(ParseError::new(
                    ErrorKind::Conflict,
                    Position::Eof,
                    format!("primary input {name:?} is declared twice"),
                ));
            }
        }
        let mut def_of: HashMap<&str, usize> = HashMap::new();
        for (k, g) in self.gates.iter().enumerate() {
            if input_names.contains(g.output.as_str()) {
                return Err(ParseError::new(
                    ErrorKind::Conflict,
                    Position::Eof,
                    format!("table {k} drives primary input {:?}", g.output),
                ));
            }
            if def_of.insert(g.output.as_str(), k).is_some() {
                return Err(ParseError::new(
                    ErrorKind::Conflict,
                    Position::Eof,
                    format!("signal {:?} is driven by multiple .names tables", g.output),
                ));
            }
        }
        let mut visiting = vec![false; self.gates.len()];
        for start in 0..self.gates.len() {
            let mut stack = vec![start];
            while let Some(&k) = stack.last() {
                let g = &self.gates[k];
                if map.contains_key(g.output.as_str()) {
                    visiting[k] = false;
                    stack.pop();
                    continue;
                }
                visiting[k] = true;
                let mut ready = true;
                for input in &g.inputs {
                    if map.contains_key(input.as_str()) {
                        continue;
                    }
                    let Some(&dep) = def_of.get(input.as_str()) else {
                        return Err(ParseError::new(
                            ErrorKind::Undefined,
                            Position::Eof,
                            format!(
                                "table for {:?} references undriven signal {input:?}",
                                g.output
                            ),
                        ));
                    };
                    if visiting[dep] {
                        return Err(ParseError::new(
                            ErrorKind::Undefined,
                            Position::Eof,
                            format!("cyclic definition through signal {input:?}"),
                        ));
                    }
                    ready = false;
                    stack.push(dep);
                }
                if ready {
                    let ins: Vec<Signal> = g.inputs.iter().map(|n| map[n.as_str()]).collect();
                    let sig = build_cover(&mut m, &ins, &g.cover);
                    // Borrow of self.gates outlives the loop; keys are &str
                    // tied to self, fine to insert.
                    map.insert(g.output.as_str(), sig);
                    visiting[k] = false;
                    stack.pop();
                }
            }
        }
        for name in &self.outputs {
            let Some(&s) = map.get(name.as_str()) else {
                return Err(ParseError::new(
                    ErrorKind::Undefined,
                    Position::Eof,
                    format!("primary output {name:?} has no driver"),
                ));
            };
            m.add_output(s);
        }
        Ok(m)
    }

    /// Builds a BLIF document from an [`Mig`]: inputs `x0..`, gates
    /// `n<id>` with 3-row majority covers (complemented fanins fold into
    /// the plane columns), outputs `y<i>` via buffer/inverter tables.
    pub fn from_mig(mig: &Mig, model: &str) -> Blif {
        let mut doc = Blif {
            model: model.to_string(),
            inputs: (0..mig.num_inputs()).map(|i| format!("x{i}")).collect(),
            outputs: (0..mig.num_outputs()).map(|i| format!("y{i}")).collect(),
            gates: Vec::new(),
        };
        let name_of = |s: Signal| -> String {
            if s.is_constant() {
                "const0".to_string()
            } else if (s.node() as usize) <= mig.num_inputs() {
                format!("x{}", s.node() - 1)
            } else {
                format!("n{}", s.node())
            }
        };
        // Constant-0 driver, emitted only if some gate or output uses it.
        let uses_const = mig
            .gates()
            .flat_map(|g| mig.fanins(g))
            .any(|s| s.is_constant())
            || mig.outputs().iter().any(|s| s.is_constant());
        if uses_const {
            doc.gates.push(BlifGate {
                inputs: Vec::new(),
                output: "const0".to_string(),
                cover: Vec::new(),
            });
        }
        for g in mig.topo_gates() {
            let fanins = mig.fanins(g);
            // Majority cover {11-, 1-1, -11}, with a column flipped for
            // each complemented fanin.
            let mut cover = Vec::with_capacity(3);
            for pair in [[0usize, 1], [0, 2], [1, 2]] {
                let mut row = ['-'; 3];
                for &col in &pair {
                    row[col] = if fanins[col].is_complemented() {
                        '0'
                    } else {
                        '1'
                    };
                }
                cover.push((row.iter().collect::<String>(), '1'));
            }
            doc.gates.push(BlifGate {
                inputs: fanins.iter().map(|&s| name_of(s)).collect(),
                output: format!("n{g}"),
                cover,
            });
        }
        for (i, &o) in mig.outputs().iter().enumerate() {
            doc.gates.push(BlifGate {
                inputs: vec![name_of(o)],
                output: format!("y{i}"),
                cover: vec![(if o.is_complemented() { "0" } else { "1" }.to_string(), '1')],
            });
        }
        doc
    }
}

/// The graph that [`Blif::from_mig`] text of `mig` reads back as
/// through [`Blif::to_mig`], built without the text: every gate is
/// re-created in the writer's topological order through [`Mig::maj`],
/// as the reader rebuilds each majority table, so slot numbers come out
/// dense and independent of `mig`'s rewrite history.
pub fn round_trip(mig: &Mig) -> Mig {
    let mut out = Mig::new(mig.num_inputs());
    let mut map = vec![Signal::ZERO; mig.num_nodes()];
    for i in 0..mig.num_inputs() {
        map[i + 1] = out.input(i);
    }
    let mapped =
        |map: &[Signal], s: Signal| map[s.node() as usize].complement_if(s.is_complemented());
    for &g in mig.topo_gates_shared().iter() {
        let [a, b, c] = mig.fanins(g);
        map[g as usize] = out.maj(mapped(&map, a), mapped(&map, b), mapped(&map, c));
    }
    for &o in mig.outputs() {
        out.add_output(mapped(&map, o));
    }
    out
}

/// Builds the function of one cover over mapped input signals.
///
/// Three-input covers realizing a (possibly input/output-complemented)
/// majority become a single `maj` gate, so MIGs written by
/// [`Blif::from_mig`] read back node-for-node instead of through an
/// AND/OR expansion; everything else goes through sum-of-products.
fn build_cover(m: &mut Mig, ins: &[Signal], cover: &[(String, char)]) -> Signal {
    if cover.is_empty() {
        // Empty cover: constant 0.
        return Signal::ZERO;
    }
    let on_set = cover[0].1 == '1';
    if ins.len() == 3 {
        let tt = cover_truth_table3(cover, on_set);
        if let Some(sig) = match_majority3(m, ins, tt) {
            return sig;
        }
    }
    let mut acc = Signal::ZERO;
    for (plane, _) in cover {
        let mut cube = Signal::ONE;
        for (col, ch) in plane.chars().enumerate() {
            match ch {
                '1' => cube = m.and(cube, ins[col]),
                '0' => cube = m.and(cube, !ins[col]),
                _ => {}
            }
        }
        acc = m.or(acc, cube);
    }
    acc.complement_if(!on_set)
}

/// The 8-bit truth table of a 3-input cover (bit `j` = output under the
/// assignment with input `k` = bit `k` of `j`).
fn cover_truth_table3(cover: &[(String, char)], on_set: bool) -> u8 {
    let mut tt = 0u8;
    for j in 0..8u8 {
        let covered = cover.iter().any(|(plane, _)| {
            plane.bytes().enumerate().all(|(k, ch)| match ch {
                b'1' => j >> k & 1 == 1,
                b'0' => j >> k & 1 == 0,
                _ => true,
            })
        });
        if covered == on_set {
            tt |= 1 << j;
        }
    }
    tt
}

/// If `tt` is a majority of the three inputs under some polarity
/// assignment, builds that single gate.
fn match_majority3(m: &mut Mig, ins: &[Signal], tt: u8) -> Option<Signal> {
    for polarities in 0..16u8 {
        let mut want = 0u8;
        for j in 0..8u8 {
            let bits = (0..3)
                .filter(|&k| (j >> k & 1 == 1) != (polarities >> k & 1 == 1))
                .count();
            let maj = bits >= 2;
            if maj != (polarities >> 3 & 1 == 1) {
                want |= 1 << j;
            }
        }
        if want == tt {
            let g = m.maj(
                ins[0].complement_if(polarities & 1 == 1),
                ins[1].complement_if(polarities >> 1 & 1 == 1),
                ins[2].complement_if(polarities >> 2 & 1 == 1),
            );
            return Some(g.complement_if(polarities >> 3 & 1 == 1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAJ_BLIF: &str = ".model maj3\n.inputs x0 x1 x2\n.outputs y0\n.names x0 x1 x2 n4\n11- 1\n1-1 1\n-11 1\n.names n4 y0\n1 1\n.end\n";

    #[test]
    fn parse_write_is_fixed_point() {
        let doc = Blif::parse(MAJ_BLIF).unwrap();
        assert_eq!(doc.to_text(), MAJ_BLIF);
        let again = Blif::parse(&doc.to_text()).unwrap();
        assert_eq!(again, doc);
    }

    #[test]
    fn majority_cover_builds_majority() {
        let doc = Blif::parse(MAJ_BLIF).unwrap();
        let m = doc.to_mig().unwrap();
        assert_eq!(m.output_truth_tables()[0].to_hex(), "e8");
    }

    #[test]
    fn mig_blif_mig_preserves_function() {
        let mut m = Mig::new(3);
        let (a, b, c) = (m.input(0), m.input(1), m.input(2));
        let (s, co) = m.full_adder(a, b, c);
        m.add_output(s);
        m.add_output(!co);
        m.add_output(Signal::ONE);
        let doc = Blif::from_mig(&m, "fa");
        let back = doc.to_mig().unwrap();
        assert_eq!(back.output_truth_tables(), m.output_truth_tables());
        // And writing the converted doc is a fixed point.
        let text = doc.to_text();
        assert_eq!(Blif::parse(&text).unwrap().to_text(), text);
    }

    #[test]
    fn mig_blif_mig_is_structure_faithful() {
        // Majority covers written by from_mig read back as single gates,
        // so the round trip preserves the gate count, not just the
        // function.
        let mut m = Mig::new(4);
        let ins: Vec<_> = m.inputs().collect();
        let (s1, c1) = m.full_adder(ins[0], ins[1], ins[2]);
        let (s2, c2) = m.full_adder(s1, ins[3], !c1);
        m.add_output(s2);
        m.add_output(c2);
        let back = Blif::from_mig(&m, "fa2").to_mig().unwrap();
        assert_eq!(back.output_truth_tables(), m.output_truth_tables());
        assert_eq!(back.cleanup().num_gates(), m.cleanup().num_gates());
    }

    #[test]
    fn off_set_cover_complements() {
        let text = ".model nand2\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n";
        let m = Blif::parse(text).unwrap().to_mig().unwrap();
        assert_eq!(m.output_truth_tables()[0].to_hex(), "7");
    }

    #[test]
    fn constant_tables() {
        let text = ".model k\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end\n";
        let m = Blif::parse(text).unwrap().to_mig().unwrap();
        let tts = m.output_truth_tables();
        assert!(tts[0].is_ones());
        assert!(tts[1].is_zero());
    }

    #[test]
    fn latch_is_rejected_with_position() {
        let text = ".model seq\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n";
        let err = Blif::parse(text).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Unsupported);
        assert_eq!(err.position, Position::LineCol { line: 4, col: 1 });
    }

    #[test]
    fn bad_cover_row_is_positioned() {
        let text = ".model m\n.inputs a b\n.outputs y\n.names a b y\n1x 1\n.end\n";
        let err = Blif::parse(text).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadToken);
        assert_eq!(err.position, Position::LineCol { line: 5, col: 1 });
    }

    #[test]
    fn duplicate_driver_is_rejected() {
        let text = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end\n";
        let err = Blif::parse(text).unwrap().to_mig().unwrap_err();
        assert_eq!(err.kind, ErrorKind::Conflict);
        assert!(err.message.contains("multiple"));
    }

    #[test]
    fn duplicate_input_declaration_is_rejected() {
        let text = ".model m\n.inputs a a b\n.outputs y\n.names a b y\n11 1\n.end\n";
        let err = Blif::parse(text).unwrap().to_mig().unwrap_err();
        assert_eq!(err.kind, ErrorKind::Conflict);
        assert!(err.message.contains("declared twice"));
    }

    #[test]
    fn table_driving_primary_input_is_rejected() {
        let text = ".model m\n.inputs a b\n.outputs y\n.names b a\n1 1\n.names a y\n1 1\n.end\n";
        let err = Blif::parse(text).unwrap().to_mig().unwrap_err();
        assert_eq!(err.kind, ErrorKind::Conflict);
        assert!(err.message.contains("primary input"));
    }

    #[test]
    fn undriven_output_is_reported() {
        let text = ".model m\n.inputs a\n.outputs y\n.end\n";
        let err = Blif::parse(text).unwrap().to_mig().unwrap_err();
        assert_eq!(err.kind, ErrorKind::Undefined);
    }

    #[test]
    fn out_of_order_tables_resolve() {
        let text = ".model m\n.inputs a b\n.outputs y\n.names t y\n0 1\n.names a b t\n11 1\n.end\n";
        let m = Blif::parse(text).unwrap().to_mig().unwrap();
        assert_eq!(m.output_truth_tables()[0].to_hex(), "7");
    }

    #[test]
    fn continuation_and_comments() {
        let text = ".model m # the model\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n";
        let doc = Blif::parse(text).unwrap();
        assert_eq!(doc.inputs, vec!["a", "b"]);
        let m = doc.to_mig().unwrap();
        assert_eq!(m.output_truth_tables()[0].to_hex(), "8");
    }
}
