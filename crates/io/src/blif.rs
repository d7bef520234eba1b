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
use std::borrow::Cow;
use std::collections::HashMap;

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
/// yielding each logical line with the 1-based line number of its first
/// physical line. Lines are borrowed from `text`; only a line joined
/// from continuations is copied.
fn logical_lines(text: &str) -> impl Iterator<Item = (usize, Cow<'_, str>)> {
    let mut physical = text.lines().enumerate();
    std::iter::from_fn(move || {
        let mut pending: Option<(usize, String)> = None;
        for (i, raw) in physical.by_ref() {
            let no_comment = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            };
            let (cont, body) = match no_comment.trim_end().strip_suffix('\\') {
                Some(b) => (true, b),
                None => (false, no_comment),
            };
            match pending.as_mut() {
                Some((ln, acc)) => {
                    acc.push(' ');
                    acc.push_str(body);
                    if !cont {
                        return Some((*ln, Cow::Owned(std::mem::take(acc))));
                    }
                }
                None if cont => pending = Some((i + 1, body.to_string())),
                None if !body.trim().is_empty() => return Some((i + 1, Cow::Borrowed(body))),
                None => {}
            }
        }
        pending.map(|(ln, acc)| (ln, Cow::Owned(acc)))
    })
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
            let mut toks = line.split_whitespace();
            let Some(first) = toks.next() else {
                continue;
            };
            if ended {
                return Err(ParseError::at_line(
                    ErrorKind::BadToken,
                    ln,
                    1,
                    "content after .end",
                ));
            }
            match first {
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
                    doc.model = toks.next().unwrap_or("top").to_string();
                }
                ".inputs" => {
                    doc.inputs.extend(toks.map(str::to_string));
                }
                ".outputs" => {
                    doc.outputs.extend(toks.map(str::to_string));
                }
                ".names" => {
                    let mut inputs: Vec<String> = toks.map(str::to_string).collect();
                    let Some(output) = inputs.pop() else {
                        return Err(ParseError::at_line(
                            ErrorKind::BadToken,
                            ln,
                            1,
                            ".names needs at least an output name",
                        ));
                    };
                    if let Some(g) = current.take() {
                        doc.gates.push(g);
                    }
                    current = Some(BlifGate {
                        inputs,
                        output,
                        cover: Vec::new(),
                    });
                }
                ".latch" | ".subckt" | ".gate" | ".mlatch" | ".clock" => {
                    return Err(ParseError::at_line(
                        ErrorKind::Unsupported,
                        ln,
                        1,
                        format!("{first} is not supported (combinational .names only)"),
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
                        format!("{first} is not supported"),
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
                    let (plane, value) = match (toks.next(), toks.next()) {
                        (None, _) if g.inputs.is_empty() => ("", first),
                        (Some(value), None) => (first, value),
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
                        || !plane.bytes().all(|c| matches!(c, b'0' | b'1' | b'-'))
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
                    g.cover.push((plane.to_string(), v));
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
        let mut map: HashMap<&str, Signal> =
            HashMap::with_capacity(self.inputs.len() + self.gates.len());
        for (i, name) in self.inputs.iter().enumerate() {
            if map.insert(name, m.input(i)).is_some() {
                return Err(ParseError::new(
                    ErrorKind::Conflict,
                    Position::Eof,
                    format!("primary input {name:?} is declared twice"),
                ));
            }
        }
        let mut def_of: HashMap<&str, usize> = HashMap::with_capacity(self.gates.len());
        for (k, g) in self.gates.iter().enumerate() {
            // `map` holds only the primary inputs so far.
            if map.contains_key(g.output.as_str()) {
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
        // One DFS stack and one fanin buffer serve every table; the
        // stack is empty again whenever the inner loop ends.
        let mut visiting = vec![false; self.gates.len()];
        let mut stack = Vec::new();
        let mut ins = Vec::new();
        for start in 0..self.gates.len() {
            stack.push(start);
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
                    ins.clear();
                    ins.extend(g.inputs.iter().map(|n| map[n.as_str()]));
                    let sig = build_cover(&mut m, &ins, &g.cover);
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
        if let Some(p) = MAJORITY_POLARITIES[usize::from(tt)].checked_sub(1) {
            let g = m.maj(
                ins[0].complement_if(p & 1 == 1),
                ins[1].complement_if(p >> 1 & 1 == 1),
                ins[2].complement_if(p >> 2 & 1 == 1),
            );
            return g.complement_if(p >> 3 & 1 == 1);
        }
    }
    let mut acc = Signal::ZERO;
    for (plane, _) in cover {
        let mut cube = Signal::ONE;
        for (col, ch) in plane.bytes().enumerate() {
            match ch {
                b'1' => cube = m.and(cube, ins[col]),
                b'0' => cube = m.and(cube, !ins[col]),
                _ => {}
            }
        }
        acc = m.or(acc, cube);
    }
    acc.complement_if(!on_set)
}

/// The 8-bit truth table of a 3-input cover (bit `j` = output under the
/// assignment with input `k` = bit `k` of `j`): each row is the AND of
/// its columns' variable masks.
fn cover_truth_table3(cover: &[(String, char)], on_set: bool) -> u8 {
    const VARS: [u8; 3] = [0xAA, 0xCC, 0xF0];
    let mut covered = 0u8;
    for (plane, _) in cover {
        let mut cube = 0xFFu8;
        for (ch, var) in plane.bytes().zip(VARS) {
            match ch {
                b'1' => cube &= var,
                b'0' => cube &= !var,
                _ => {}
            }
        }
        covered |= cube;
    }
    if on_set {
        covered
    } else {
        !covered
    }
}

/// For each 3-input truth table: one plus the lowest polarity assignment
/// `p` under which it is a majority (bit `k` of `p` complements input
/// `k`, bit 3 the output), or 0 when it is no majority.
const MAJORITY_POLARITIES: [u8; 256] = {
    let mut table = [0u8; 256];
    // Descending, so the lowest matching assignment is written last.
    let mut p = 16u8;
    while p > 0 {
        p -= 1;
        let mut want = 0u8;
        let mut j = 0u8;
        while j < 8 {
            if (((j ^ p) & 7).count_ones() >= 2) != (p & 8 != 0) {
                want |= 1 << j;
            }
            j += 1;
        }
        table[want as usize] = p + 1;
    }
    table
};

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

    /// Out-of-order tables, continuation lines, comments, off-set
    /// covers, a 3-input majority, an off-set majority and a 3-input
    /// non-majority cover.
    const FIXTURE: &str = "# regression fixture: tables out of order\n\
        .model fixture # trailing comment\n\
        .inputs a b c \\\n d\n\
        .outputs y z w k v\n\
        .names t u y\n10 1\n01 1\n\
        .names a b c t\n11- 1\n1-1 1\n-11 1\n\
        .names c d u\n11 0\n\
        .names a \\\nb d w\n1-0 1\n-11 1\n\
        .names t d k\n00 0\n\
        .names s z\n0 1\n\
        .names b c s\n1- 1\n-1 1\n\
        .names a c d v\n10- 0\n1-0 0\n-00 0\n\
        .end\n";

    #[test]
    fn fixture_reads_back_the_recorded_graph() {
        // Recorded from the reader before its allocation-light rewrite:
        // the resolution order of out-of-order tables decides node
        // numbering, and result-cache keys hash that numbering.
        let m = Blif::parse(FIXTURE).unwrap().to_mig().unwrap();
        let gates: Vec<(mig::NodeId, [usize; 3])> = m
            .gates()
            .map(|g| (g, m.fanins(g).map(Signal::code)))
            .collect();
        assert_eq!(m.num_nodes(), 16);
        assert_eq!(
            gates,
            vec![
                (5, [0, 6, 8]),
                (6, [2, 4, 6]),
                (7, [0, 10, 12]),
                (8, [1, 10, 12]),
                (9, [0, 15, 16]),
                (10, [0, 2, 9]),
                (11, [0, 4, 8]),
                (12, [1, 20, 22]),
                (13, [1, 8, 12]),
                (14, [1, 4, 6]),
                (15, [3, 6, 8]),
            ]
        );
        let outputs: Vec<usize> = m.outputs().iter().map(|s| s.code()).collect();
        assert_eq!(outputs, vec![19, 29, 24, 26, 30]);
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
