//! A minimal JSON reader — just enough to validate exported traces and
//! round-trip `migopt --json-report` output without external crates.

/// A parsed JSON value. Numbers are kept as `f64` (report values are
/// counts and seconds; 53 bits of integer precision is plenty here).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().map(|n| n as i64)
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Our documents nest
/// about four levels; the bound keeps a hostile line of brackets from
/// recursing through the parsing thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// Runs in time linear in `text`.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Parses a string. Errors name the byte where their defect starts:
    /// the opening quote of an unterminated string, the backslash of a
    /// bad escape.
    fn string(&mut self) -> Result<String, String> {
        let open = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the unescaped run up to the next quote or backslash in
            // one step. Both are ASCII, so the run ends on a character
            // boundary and only its own bytes need a UTF-8 check.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| format!("unterminated string at byte {open}"))?;
            let text = std::str::from_utf8(&self.bytes[start..start + run])
                .map_err(|e| format!("invalid UTF-8 at byte {}", start + e.valid_up_to()))?;
            out.push_str(text);
            self.pos = start + run + 1;
            if self.bytes[start + run] == b'"' {
                return Ok(out);
            }
            let backslash = start + run;
            let esc = self
                .peek()
                .ok_or_else(|| format!("unterminated escape at byte {backslash}"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| format!("truncated \\u escape at byte {backslash}"))?;
                    // Four hex digits exactly: `from_str_radix` alone would
                    // also take a sign.
                    let code = std::str::from_utf8(hex)
                        .ok()
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {backslash}"))?;
                    self.pos += 4;
                    // Surrogate pairs don't occur in our exports;
                    // map lone surrogates to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => {
                    return Err(format!(
                        "bad escape '\\{}' at byte {backslash}",
                        other as char
                    ))
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number '{s}' at byte {start}"))
    }
}

/// Escapes a string for embedding in JSON output (used by the exporters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, -2.5, "x\n", true, null], "b": {"c": 3}}"#).unwrap();
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_i64(), Some(3));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let s = "a\"b\\c\nd\te\u{1}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(s));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(s));
    }

    #[test]
    fn string_errors_name_the_byte_where_the_defect_starts() {
        // One malformed document per error site of `Parser::string`: the
        // offset is the opening quote of an unterminated string, or the
        // backslash of a bad escape.
        let cases = [
            (r#"{"k": "abc"#, "unterminated string at byte 6"),
            (r#"{"k": "ab\"#, "unterminated escape at byte 9"),
            (r#"["x", "\u12"#, "truncated \\u escape at byte 7"),
            ("[\"x\", \"\\u123\u{e9}\"]", "bad \\u escape at byte 7"),
            (r#"{"k": "a\u12zz"}"#, "bad \\u escape at byte 8"),
            (r#"{"k": "a\u+041"}"#, "bad \\u escape at byte 8"),
            (r#"{"k": "ok", "q": "\q"}"#, "bad escape '\\q' at byte 18"),
        ];
        for (doc, want) in cases {
            assert_eq!(parse(doc), Err(want.to_string()), "{doc:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_with_a_positioned_error() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.contains(&format!("byte {MAX_DEPTH}")),
            "error names the offending byte: {err}"
        );
        // A line of brackets deep enough to overflow a thread stack is
        // rejected, not recursed into.
        let err = parse(&"[".repeat(10_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let err = parse(&"{\"a\":".repeat(10_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    /// One random string for the round-trip property: runs of ASCII,
    /// characters `escape` rewrites, raw control characters and 2-, 3-
    /// and 4-byte UTF-8 characters, in random order, so runs end right
    /// before an escape and at the end of the string.
    fn random_string(rng: &mut testrand::Rng) -> String {
        const PIECES: [&str; 12] = [
            "\"", "\\", "\n", "\r", "\t", "/", "\u{0}", "\u{1f}", "\u{7f}", "é", "€", "𝄞",
        ];
        let mut s = String::new();
        for _ in 0..rng.range(0, 12) {
            match rng.below(3) {
                0 => {
                    for _ in 0..rng.range(1, 8) {
                        s.push(char::from(b' ' + rng.below(95) as u8));
                    }
                }
                1 => s.push(char::from(rng.below(0x20) as u8)),
                _ => s.push_str(PIECES[rng.usize_below(PIECES.len())]),
            }
        }
        s
    }

    #[test]
    fn mutated_documents_never_panic() {
        // Bytes JSON gives meaning to, so edits change structure more
        // often than uniform bytes do.
        const SYNTAX: &[u8] = b"{}[]\":,\\/u0123456789.-+eEtrufalsn \t";
        let original = r#"{"type":"job","id":"a\"b","n":[1,-2.5e3,true,false,null],"s":"\u00e9\n\\","o":{"k":{}}}"#;
        let mut rng = testrand::Rng::new(0x15_0A5D);
        let mut parsed = 0;
        for case in 0..10_000 {
            let bytes = rng.mutate(original.as_bytes(), |r| {
                if r.bool() {
                    SYNTAX[r.usize_below(SYNTAX.len())]
                } else {
                    r.next_u64() as u8
                }
            });
            let text = String::from_utf8_lossy(&bytes);
            match std::panic::catch_unwind(|| parse(&text)) {
                Ok(r) => parsed += usize::from(r.is_ok()),
                Err(_) => panic!("mutant {case} panicked: {text:?}"),
            }
        }
        assert!(parsed > 0, "no mutant parsed");
    }

    #[test]
    fn random_strings_round_trip_through_escape_and_parse() {
        let mut rng = testrand::Rng::new(0x15_0A5C);
        for case in 0..2000 {
            let s = random_string(&mut rng);
            let quoted = format!("\"{}\"", escape(&s));
            assert_eq!(
                parse(&quoted),
                Ok(Value::Str(s.clone())),
                "case {case}: {quoted:?}"
            );
            let doc = format!("{{\"k\":[\"{}\",1]}}", escape(&s));
            let v = parse(&doc).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(v.get("k").unwrap().as_arr().unwrap()[0].as_str(), Some(&*s));
            // Cut short, the same text is an error, never a panic.
            assert!(parse(&quoted[..quoted.len() - 1]).is_err(), "case {case}");
        }
    }
}
