//! BLIF reader/writer (Berkeley Logic Interchange Format, combinational
//! subset).
//!
//! [`Blif`] is a lossless, compact document model. Each distinct signal
//! name is stored once, in one string; `.inputs`, `.outputs` and the
//! `.names` tables refer to names by index; and the cover rows of every
//! table share one byte buffer. So reading a circuit allocates per
//! document, not per gate, and `to_mig` resolves fanins by index instead
//! of hashing names. The model, the declarations and the tables keep
//! their order and covers, so `parse → write` is a fixed point for files
//! produced by this writer. Sequential constructs (`.latch`) and
//! hierarchy (`.subckt`, `.gate`) produce positioned [`ParseError`]s.

use crate::error::{ErrorKind, ParseError, Position};
use mig::{Mig, Signal};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The index of a signal name in a [`Blif`]'s name table.
type NameId = u32;

/// One `.names` logic table: a single-output sum-of-products cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Table {
    /// The driven signal.
    output: NameId,
    /// The input names, in column order, are
    /// `fanins[first_fanin..first_fanin + num_fanins]`.
    first_fanin: u32,
    num_fanins: u32,
    /// The cover rows start at byte `first_row` of `planes`, each
    /// `num_fanins` bytes of `0`, `1` or `-` (none for a zero-input
    /// table).
    first_row: u32,
    num_rows: u32,
    /// Whether the rows list the on-set (output value `1`) rather than
    /// the off-set. A table without rows is constant 0 either way.
    on_set: bool,
}

/// A parsed BLIF model (combinational subset: `.names` only).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Blif {
    /// The `.model` name.
    model: String,
    /// Every distinct signal name, back to back, in order of first
    /// mention.
    names: String,
    /// Where each name ends in `names`; name `i` starts where name
    /// `i - 1` ends.
    name_ends: Vec<u32>,
    /// Primary inputs, in declaration order.
    inputs: Vec<NameId>,
    /// Primary outputs, in declaration order.
    outputs: Vec<NameId>,
    /// Logic tables, in file order.
    tables: Vec<Table>,
    /// The input names of every table, back to back.
    fanins: Vec<NameId>,
    /// The cover rows of every table, back to back.
    planes: String,
}

/// Appends the whitespace-separated words of the physical line that
/// starts at byte `at` to `words`, up to a `#` or the line feed, and
/// returns where the next line starts. Words split at every
/// `char::is_whitespace` character, as `str::split_whitespace` splits;
/// only bytes outside ASCII are decoded to test that.
fn scan_line<'t>(text: &'t str, mut at: usize, words: &mut Vec<&'t str>) -> usize {
    let bytes = text.as_bytes();
    // Where the current word starts; `at` itself while there is none.
    let mut start = at;
    while let Some(&b) = bytes.get(at) {
        // Whether the character at `at` ends a word, and its length.
        let (ends_word, len) = match b {
            b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b'#' => (true, 1),
            0x80.. => match text[at..].chars().next() {
                Some(c) => (c.is_whitespace(), c.len_utf8()),
                None => break,
            },
            _ => (false, 1),
        };
        if !ends_word {
            at += len;
            continue;
        }
        if start < at {
            words.push(&text[start..at]);
        }
        match b {
            b'\n' => return at + 1,
            b'#' => return text[at..].find('\n').map_or(text.len(), |p| at + p + 1),
            _ => {
                at += len;
                start = at;
            }
        }
    }
    if start < at {
        words.push(&text[start..at]);
    }
    at
}

/// The logical line that starts at byte `at` as error messages quote
/// it: each physical line's body before any `#`, continued lines
/// without their trailing `\`, joined by spaces.
fn quoted_line(text: &str, at: usize) -> String {
    let mut parts = Vec::new();
    for raw in text[at..].lines() {
        let body = raw.find('#').map_or(raw, |p| &raw[..p]);
        match body.trim_end().strip_suffix('\\') {
            Some(part) => parts.push(part),
            None => {
                parts.push(body);
                break;
            }
        }
    }
    parts.join(" ")
}

/// The state of one [`Blif::parse`]: the document so far and the name
/// index, whose keys borrow from the text.
struct Reader<'t> {
    text: &'t str,
    doc: Blif,
    /// Name → index. Names come from `migd` clients, so this stays on
    /// std's randomly keyed hasher.
    ids: HashMap<&'t str, NameId>,
    seen_model: bool,
    ended: bool,
    /// The first table whose rows mix on-set and off-set values,
    /// reported once the whole text has parsed.
    mixed: Option<usize>,
}

impl<'t> Reader<'t> {
    fn intern(&mut self, name: &'t str) -> NameId {
        match self.ids.entry(name) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => *e.insert(self.doc.push_name(name)),
        }
    }

    /// Reads the `words` of one logical line, which starts at byte `at`,
    /// on physical line `ln`.
    fn line(&mut self, ln: usize, at: usize, words: &[&'t str]) -> Result<(), ParseError> {
        let Some((&first, rest)) = words.split_first() else {
            return Ok(());
        };
        let error = |kind, msg: &str| Err(ParseError::at_line(kind, ln, 1, msg));
        if self.ended {
            return error(ErrorKind::BadToken, "content after .end");
        }
        if !first.starts_with('.') {
            return self.cover_row(ln, at, first, rest);
        }
        match first {
            ".model" => {
                if self.seen_model {
                    return error(
                        ErrorKind::Unsupported,
                        "multiple .model sections (hierarchy is not supported)",
                    );
                }
                self.seen_model = true;
                self.doc.model = rest.first().copied().unwrap_or("top").to_string();
            }
            ".inputs" => {
                for &w in rest {
                    let id = self.intern(w);
                    self.doc.inputs.push(id);
                }
            }
            ".outputs" => {
                for &w in rest {
                    let id = self.intern(w);
                    self.doc.outputs.push(id);
                }
            }
            ".names" => {
                let Some((&output, inputs)) = rest.split_last() else {
                    return error(ErrorKind::BadToken, ".names needs at least an output name");
                };
                let first_fanin = self.doc.fanins.len();
                for &w in inputs {
                    let id = self.intern(w);
                    self.doc.fanins.push(id);
                }
                let output = self.intern(output);
                let doc = &mut self.doc;
                doc.tables.push(Table {
                    output,
                    first_fanin: offset(first_fanin),
                    num_fanins: offset(inputs.len()),
                    first_row: offset(doc.planes.len()),
                    num_rows: 0,
                    on_set: true,
                });
            }
            ".latch" | ".subckt" | ".gate" | ".mlatch" | ".clock" => {
                return error(
                    ErrorKind::Unsupported,
                    &format!("{first} is not supported (combinational .names only)"),
                );
            }
            ".end" => {
                self.ended = true;
            }
            ".exdc" | ".wire_load_slope" | ".delay" => {
                return error(ErrorKind::Unsupported, &format!("{first} is not supported"));
            }
            t => {
                return error(ErrorKind::BadToken, &format!("unknown directive {t:?}"));
            }
        }
        Ok(())
    }

    /// Reads a cover row for the current `.names` table: its `words`
    /// after the first, `rest`.
    fn cover_row(
        &mut self,
        ln: usize,
        at: usize,
        first: &str,
        rest: &[&str],
    ) -> Result<(), ParseError> {
        let error = |msg: &str| Err(ParseError::at_line(ErrorKind::BadToken, ln, 1, msg));
        let Some(k) = self.doc.tables.len().checked_sub(1) else {
            let line = quoted_line(self.text, at);
            return error(&format!("cover row {line:?} outside a .names table"));
        };
        let table = &mut self.doc.tables[k];
        let width = table.num_fanins as usize;
        let (plane, value) = match rest {
            [] if width == 0 => ("", first),
            &[value] => (first, value),
            _ => {
                let line = quoted_line(self.text, at);
                return error(&format!(
                    "cover row must be `<plane> <value>`, found {line:?}"
                ));
            }
        };
        if plane.len() != width || !plane.bytes().all(|c| matches!(c, b'0' | b'1' | b'-')) {
            return error(&format!(
                "input plane {plane:?} must be {width} characters of 0/1/-"
            ));
        }
        let on_set = match value {
            "0" => false,
            "1" => true,
            _ => return error(&format!("output value must be 0 or 1, found {value:?}")),
        };
        if table.num_rows == 0 {
            table.on_set = on_set;
        } else if table.on_set != on_set && self.mixed.is_none() {
            self.mixed = Some(k);
        }
        table.num_rows += 1;
        self.doc.planes.push_str(plane);
        Ok(())
    }

    fn finish(self) -> Result<Blif, ParseError> {
        if !self.seen_model {
            return Err(ParseError::new(
                ErrorKind::BadHeader,
                Position::Eof,
                "no .model section found",
            ));
        }
        if let Some(k) = self.mixed {
            return Err(ParseError::new(
                ErrorKind::BadToken,
                Position::Eof,
                format!(
                    "table {k} for {:?} mixes on-set and off-set rows",
                    self.doc.name(self.doc.tables[k].output)
                ),
            ));
        }
        Ok(self.doc)
    }
}

/// A buffer offset or count as stored in a [`Blif`]. Every one is
/// bounded by the length of the text a document was parsed from, which
/// [`Blif::parse`] caps at `u32::MAX` bytes, or by the node count of the
/// graph it was written from.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("BLIF document within 4 GiB")
}

impl Blif {
    /// Parses a BLIF model.
    ///
    /// # Errors
    ///
    /// Returns a positioned [`ParseError`] on malformed or unsupported
    /// input; never panics.
    pub fn parse(text: &str) -> Result<Blif, ParseError> {
        if u32::try_from(text.len()).is_err() {
            return Err(ParseError::new(
                ErrorKind::Unsupported,
                Position::Eof,
                "BLIF text of 4 GiB or more",
            ));
        }
        let mut reader = Reader {
            text,
            doc: Blif::default(),
            // About one new name per 40 bytes, as in `from_mig` text:
            // enough that such a text never grows the index.
            ids: HashMap::with_capacity(text.len() / 40),
            seen_model: false,
            ended: false,
            mixed: None,
        };
        // The words of the current logical line (physical lines joined by
        // a trailing `\`), the number of its first physical line and the
        // byte where that starts.
        let mut words = Vec::new();
        let (mut first_line, mut first_at) = (1, 0);
        let (mut line, mut at) = (1, 0);
        let mut continued = false;
        while at < text.len() {
            if !continued {
                (first_line, first_at) = (line, at);
            }
            let before = words.len();
            at = scan_line(text, at, &mut words);
            line += 1;
            continued = false;
            if let Some(&last) = words[before..].last() {
                if let Some(kept) = last.strip_suffix('\\') {
                    continued = true;
                    words.pop();
                    if !kept.is_empty() {
                        words.push(kept);
                    }
                }
            }
            if !continued {
                reader.line(first_line, first_at, &words)?;
                words.clear();
            }
        }
        reader.line(first_line, first_at, &words)?;
        reader.finish()
    }

    /// Primary input names, in declaration order.
    pub fn inputs(&self) -> impl Iterator<Item = &str> + '_ {
        self.inputs.iter().map(|&id| self.name(id))
    }

    /// Primary output names, in declaration order.
    pub fn outputs(&self) -> impl Iterator<Item = &str> + '_ {
        self.outputs.iter().map(|&id| self.name(id))
    }

    /// The number of `.names` tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    fn name(&self, id: NameId) -> &str {
        let end = self.name_ends[id as usize] as usize;
        let start = match id.checked_sub(1) {
            Some(prev) => self.name_ends[prev as usize] as usize,
            None => 0,
        };
        &self.names[start..end]
    }

    /// Appends `name` to the name table, without checking that it is
    /// new, and returns its index.
    fn push_name(&mut self, name: &str) -> NameId {
        self.names.push_str(name);
        self.end_name()
    }

    /// Ends the name the caller pushed onto `names` and returns its index.
    fn end_name(&mut self) -> NameId {
        let id = offset(self.name_ends.len());
        self.name_ends.push(offset(self.names.len()));
        id
    }

    /// Appends `prefix` followed by `n` in decimal to the name table and
    /// returns its index.
    fn push_numbered(&mut self, prefix: char, n: usize) -> NameId {
        self.names.push(prefix);
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = n;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.names
            .extend(digits[at..].iter().map(|&d| char::from(d)));
        self.end_name()
    }

    fn fanins_of(&self, t: &Table) -> &[NameId] {
        let start = t.first_fanin as usize;
        &self.fanins[start..start + t.num_fanins as usize]
    }

    /// The cover rows of `t`, each an input plane (empty for a
    /// zero-input table).
    fn rows_of<'a>(&'a self, t: &Table) -> impl Iterator<Item = &'a str> + 'a {
        let (start, width) = (t.first_row as usize, t.num_fanins as usize);
        (0..t.num_rows as usize).map(move |r| &self.planes[start + r * width..][..width])
    }

    /// The exact length of [`Blif::to_text`]'s output.
    fn text_len(&self) -> usize {
        let list =
            |ids: &[NameId]| -> usize { ids.iter().map(|&id| 1 + self.name(id).len()).sum() };
        let mut len = ".model \n".len() + self.model.len() + ".end\n".len();
        if !self.inputs.is_empty() {
            len += ".inputs\n".len() + list(&self.inputs);
        }
        if !self.outputs.is_empty() {
            len += ".outputs\n".len() + list(&self.outputs);
        }
        for t in &self.tables {
            let width = t.num_fanins as usize;
            let row = width + usize::from(width > 0) + "1\n".len();
            len += ".names \n".len()
                + list(self.fanins_of(t))
                + self.name(t.output).len()
                + t.num_rows as usize * row;
        }
        len
    }

    /// Serializes back to BLIF text.
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(self.text_len());
        let push_list = |s: &mut String, directive: &str, ids: &[NameId]| {
            if !ids.is_empty() {
                s.push_str(directive);
                for &id in ids {
                    s.push(' ');
                    s.push_str(self.name(id));
                }
                s.push('\n');
            }
        };
        s.push_str(".model ");
        s.push_str(&self.model);
        s.push('\n');
        push_list(&mut s, ".inputs", &self.inputs);
        push_list(&mut s, ".outputs", &self.outputs);
        for t in &self.tables {
            s.push_str(".names");
            for &id in self.fanins_of(t) {
                s.push(' ');
                s.push_str(self.name(id));
            }
            s.push(' ');
            s.push_str(self.name(t.output));
            s.push('\n');
            let value = if t.on_set { "1\n" } else { "0\n" };
            for plane in self.rows_of(t) {
                if !plane.is_empty() {
                    s.push_str(plane);
                    s.push(' ');
                }
                s.push_str(value);
            }
        }
        s.push_str(".end\n");
        debug_assert_eq!(s.len(), self.text_len());
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
        let conflict = |msg: String| Err(ParseError::new(ErrorKind::Conflict, Position::Eof, msg));
        let undefined =
            |msg: String| Err(ParseError::new(ErrorKind::Undefined, Position::Eof, msg));
        let mut m = Mig::new(self.inputs.len());
        // The signal of each name, once known.
        let mut signal: Vec<Option<Signal>> = vec![None; self.name_ends.len()];
        for (i, &id) in self.inputs.iter().enumerate() {
            if signal[id as usize].replace(m.input(i)).is_some() {
                return conflict(format!(
                    "primary input {:?} is declared twice",
                    self.name(id)
                ));
            }
        }
        // The table driving each name.
        let mut def_of: Vec<Option<u32>> = vec![None; self.name_ends.len()];
        for (k, t) in self.tables.iter().enumerate() {
            let out = t.output as usize;
            // `signal` holds only the primary inputs so far.
            if signal[out].is_some() {
                return conflict(format!(
                    "table {k} drives primary input {:?}",
                    self.name(t.output)
                ));
            }
            if def_of[out].replace(offset(k)).is_some() {
                return conflict(format!(
                    "signal {:?} is driven by multiple .names tables",
                    self.name(t.output)
                ));
            }
        }
        // One DFS stack and one fanin buffer serve every table; the
        // stack is empty again whenever the inner loop ends.
        let mut visiting = vec![false; self.tables.len()];
        let mut stack = Vec::new();
        let mut ins = Vec::new();
        for start in 0..self.tables.len() {
            stack.push(start);
            while let Some(&k) = stack.last() {
                let t = &self.tables[k];
                if signal[t.output as usize].is_some() {
                    visiting[k] = false;
                    stack.pop();
                    continue;
                }
                visiting[k] = true;
                let mut ready = true;
                ins.clear();
                for &input in self.fanins_of(t) {
                    if let Some(s) = signal[input as usize] {
                        ins.push(s);
                        continue;
                    }
                    let Some(dep) = def_of[input as usize] else {
                        return undefined(format!(
                            "table for {:?} references undriven signal {:?}",
                            self.name(t.output),
                            self.name(input)
                        ));
                    };
                    if visiting[dep as usize] {
                        return undefined(format!(
                            "cyclic definition through signal {:?}",
                            self.name(input)
                        ));
                    }
                    ready = false;
                    stack.push(dep as usize);
                }
                if ready {
                    signal[t.output as usize] = Some(self.build_cover(&mut m, &ins, t));
                    visiting[k] = false;
                    stack.pop();
                }
            }
        }
        for &id in &self.outputs {
            let Some(s) = signal[id as usize] else {
                return undefined(format!("primary output {:?} has no driver", self.name(id)));
            };
            m.add_output(s);
        }
        Ok(m)
    }

    /// Builds a BLIF document from an [`Mig`]: inputs `x0..`, gates
    /// `n<id>` with 3-row majority covers (complemented fanins fold into
    /// the plane columns), outputs `y<i>` via buffer/inverter tables.
    pub fn from_mig(mig: &Mig, model: &str) -> Blif {
        let order = mig.topo_gates_shared();
        let (num_inputs, num_outputs) = (mig.num_inputs(), mig.num_outputs());
        let mut doc = Blif {
            model: model.to_string(),
            inputs: Vec::with_capacity(num_inputs),
            outputs: Vec::with_capacity(num_outputs),
            tables: Vec::with_capacity(1 + order.len() + num_outputs),
            fanins: Vec::with_capacity(3 * order.len() + num_outputs),
            planes: String::with_capacity(9 * order.len() + num_outputs),
            name_ends: Vec::with_capacity(1 + num_inputs + num_outputs + order.len()),
            ..Blif::default()
        };
        // Names are numbered in the order the text first mentions them,
        // so the document equals the parse of its own text.
        let mut name_of = vec![0; mig.num_nodes()];
        for i in 0..num_inputs {
            name_of[i + 1] = doc.push_numbered('x', i);
            doc.inputs.push(name_of[i + 1]);
        }
        for i in 0..num_outputs {
            let id = doc.push_numbered('y', i);
            doc.outputs.push(id);
        }
        // Constant-0 driver, emitted only if some gate or output uses it.
        let uses_const = order
            .iter()
            .flat_map(|&g| mig.fanins(g))
            .chain(mig.outputs().iter().copied())
            .any(|s| s.is_constant());
        if uses_const {
            name_of[0] = doc.push_name("const0");
            doc.push_table(name_of[0], &[], 0, []);
        }
        let bit = |s: Signal| if s.is_complemented() { '0' } else { '1' };
        for &g in order.iter() {
            let fanins = mig.fanins(g);
            let output = doc.push_numbered('n', g as usize);
            name_of[g as usize] = output;
            let ins = fanins.map(|s| name_of[s.node() as usize]);
            // Majority cover {11-, 1-1, -11}, with a column flipped for
            // each complemented fanin.
            let [a, b, c] = fanins.map(bit);
            doc.push_table(output, &ins, 3, [a, b, '-', a, '-', c, '-', b, c]);
        }
        for (i, &o) in mig.outputs().iter().enumerate() {
            doc.push_table(doc.outputs[i], &[name_of[o.node() as usize]], 1, [bit(o)]);
        }
        doc
    }

    /// Appends an on-set table with the given inputs and `num_rows`
    /// cover rows, whose planes `planes` spells out back to back.
    fn push_table(
        &mut self,
        output: NameId,
        inputs: &[NameId],
        num_rows: usize,
        planes: impl IntoIterator<Item = char>,
    ) {
        self.tables.push(Table {
            output,
            first_fanin: offset(self.fanins.len()),
            num_fanins: offset(inputs.len()),
            first_row: offset(self.planes.len()),
            num_rows: offset(num_rows),
            on_set: true,
        });
        self.fanins.extend_from_slice(inputs);
        self.planes.extend(planes);
    }

    /// Builds the function of table `t` over its mapped input signals.
    ///
    /// Three-input covers realizing a (possibly input/output-complemented)
    /// majority become a single `maj` gate, so MIGs written by
    /// [`Blif::from_mig`] read back node-for-node instead of through an
    /// AND/OR expansion; everything else goes through sum-of-products.
    fn build_cover(&self, m: &mut Mig, ins: &[Signal], t: &Table) -> Signal {
        if t.num_rows == 0 {
            // Empty cover: constant 0.
            return Signal::ZERO;
        }
        if ins.len() == 3 {
            let tt = cover_truth_table3(self.rows_of(t), t.on_set);
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
        for plane in self.rows_of(t) {
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
        acc.complement_if(!t.on_set)
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

/// The 8-bit truth table of a 3-input cover (bit `j` = output under the
/// assignment with input `k` = bit `k` of `j`): each row is the AND of
/// its columns' variable masks.
fn cover_truth_table3<'a>(planes: impl Iterator<Item = &'a str>, on_set: bool) -> u8 {
    const VARS: [u8; 3] = [0xAA, 0xCC, 0xF0];
    let mut covered = 0u8;
    for plane in planes {
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
        assert_eq!(doc.inputs().collect::<Vec<_>>(), ["a", "b"]);
        let m = doc.to_mig().unwrap();
        assert_eq!(m.output_truth_tables()[0].to_hex(), "8");
    }
}
