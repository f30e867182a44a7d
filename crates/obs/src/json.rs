//! The stack's one JSON writer and reader (there is no serde in the tree).
//!
//! Every document the daemon, the profiler and the gate emit goes through
//! [`JsonWriter`], which owns what a hand-formatted emitter gets wrong one
//! site at a time: string escaping, commas, and non-finite floats (`null`).
//! Every document they read back — a baseline file, a daemon's reply —
//! goes through [`parse`], which refuses what it does not understand
//! instead of scanning for a key.

use std::fmt::{Display, Write as _};

/// A push-style writer of compact JSON. Members are written in call
/// order; [`JsonWriter::rows`] opens an array that puts each element on a
/// line of its own, which is all the layout there is.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    /// How each open container closes, innermost last.
    open: Vec<&'static str>,
}

const ROWS_END: &str = "\n]";

impl JsonWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// The separator before a value or a member's key: none at the start
    /// of the document or of a container and none between key and value.
    fn lead(&mut self) {
        if !matches!(
            self.out.as_bytes().last(),
            None | Some(b'{' | b'[' | b':' | b'\n')
        ) {
            self.out.push(',');
            if self.open.last() == Some(&ROWS_END) {
                self.out.push('\n');
            }
        }
    }

    fn begin(&mut self, opener: &str, closer: &'static str) -> &mut Self {
        self.lead();
        self.out.push_str(opener);
        self.open.push(closer);
        self
    }

    /// Opens an object; [`JsonWriter::end`] closes it.
    pub fn obj(&mut self) -> &mut Self {
        self.begin("{", "}")
    }

    /// Opens an array; [`JsonWriter::end`] closes it.
    pub fn arr(&mut self) -> &mut Self {
        self.begin("[", "]")
    }

    /// Opens an array with one element per line.
    pub fn rows(&mut self) -> &mut Self {
        self.begin("[\n", ROWS_END)
    }

    /// Closes the innermost open object or array.
    pub fn end(&mut self) -> &mut Self {
        let closer = self.open.pop().expect("end() without an open container");
        self.out.push_str(closer);
        self
    }

    /// The key of the next value, inside an object.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.lead();
        self.quoted(key);
        self.out.push(':');
        self
    }

    /// A string value, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.lead();
        self.quoted(s);
        self
    }

    /// A value whose `Display` already is JSON: an integer, a `bool`, a
    /// fixed-point rendering, a finished sub-document. Floats go through
    /// [`JsonWriter::float`].
    pub fn raw(&mut self, v: impl Display) -> &mut Self {
        self.lead();
        let _ = write!(self.out, "{v}");
        self
    }

    /// An array of [`JsonWriter::raw`] values.
    pub fn list<T: Display>(&mut self, items: impl IntoIterator<Item = T>) -> &mut Self {
        self.arr();
        for item in items {
            self.raw(item);
        }
        self.end()
    }

    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// A float with `decimals` digits after the point; `null` when it is
    /// not finite (JSON has no NaN or infinity).
    pub fn float(&mut self, v: f64, decimals: usize) -> &mut Self {
        if v.is_finite() {
            self.raw(format_args!("{v:.decimals$}"))
        } else {
            self.null()
        }
    }

    /// The document. Every container must have been closed.
    pub fn finish(self) -> String {
        assert!(self.open.is_empty(), "unclosed JSON container");
        self.out
    }

    /// `s` as a string literal: `"` and `\` get a backslash, control
    /// characters become `\u00XX`, everything else is written as it is.
    /// Every free-form string a report embeds (process names, tenant
    /// names that arrived unvalidated from a socket) passes here.
    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// A parsed JSON value. Objects keep their members in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object (the first, should it repeat).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Containers may nest this deep; a document that goes deeper is refused,
/// so the parser's recursion is bounded whatever a peer sends.
pub const MAX_DEPTH: usize = 64;

/// Parse one JSON document. Never panics: malformed, truncated or
/// over-deep input is an `Err` naming the byte it stopped at.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, at: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.at < text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.at += 1;
        }
    }

    /// Consumes `word` if the input continues with it.
    fn eat(&mut self, word: &str) -> bool {
        let hit = self.text[self.at..].starts_with(word);
        if hit {
            self.at += word.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .container(depth, b'}', |p, depth| {
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(":") {
                        return Err(p.err("expected ':'"));
                    }
                    Ok((key, p.value(depth)?))
                })
                .map(Value::Obj),
            Some(b'[') => self.container(depth, b']', Self::value).map(Value::Arr),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat("null") => Ok(Value::Null),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The members of the object or array that opens here, each read by
    /// `member`, up to the closing byte `close`.
    fn container<T>(
        &mut self,
        depth: usize,
        close: u8,
        member: impl Fn(&mut Self, usize) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if depth >= MAX_DEPTH {
            return Err(self.err("nested too deep"));
        }
        self.at += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(members);
        }
        loop {
            self.skip_ws();
            members.push(member(self, depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b) if b == close => {
                    self.at += 1;
                    return Ok(members);
                }
                _ => return Err(self.err("expected ',' or a closing bracket")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let rest = &self.text[self.at..];
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
            .unwrap_or(rest.len());
        let x: f64 = rest[..len].parse().map_err(|_| self.err("bad number"))?;
        self.at += len;
        Ok(Value::Num(x))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.at += 1;
        let mut out = String::new();
        loop {
            // Quotes, backslashes and control bytes are ASCII, so the
            // stretch before one is whole characters.
            let rest = &self.text[self.at..];
            let len = rest
                .find(|c: char| c == '"' || c == '\\' || (c as u32) < 0x20)
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..len]);
            self.at += len + 1;
            match rest.as_bytes()[len] {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape()?),
                _ => return Err(self.err("raw control character in a string")),
            }
        }
    }

    /// The character an escape stands for, the backslash already consumed.
    /// Only what this stack's writers produce is understood: `\"`, `\\`
    /// and `\uXXXX` for one character (never half of a surrogate pair).
    fn escape(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.at += 1;
        match c {
            b'"' | b'\\' => Ok(c as char),
            b'u' => {
                let digits = self.text.get(self.at..self.at + 4);
                let c = digits
                    .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|d| u32::from_str_radix(d, 16).ok())
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.err("expected the four hex digits of a character"))?;
                self.at += 4;
                Ok(c)
            }
            _ => Err(self.err("unknown escape")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NASTY: &str = "q\"uote b\\ack \t\n\r\u{1}\u{1f} zürich → 東京 \u{1F980}";

    /// A nested document with every escape class, a non-finite float and
    /// empty containers.
    fn document() -> String {
        let mut w = JsonWriter::new();
        w.obj().key("schema").str("test-v1");
        w.key(NASTY).str(NASTY);
        w.key("nan").float(f64::NAN, 6);
        w.key("inf").float(f64::INFINITY, 2);
        w.key("x").float(1.23456, 4).key("n").raw(u64::MAX);
        w.key("ok").raw(true);
        w.key("empty_obj").obj().end().key("empty_arr").arr().end();
        w.key("empty_rows").rows().end();
        w.key("rows").rows();
        for i in 0..3 {
            w.obj().key("i").raw(i);
            w.key("tags").arr().str("a").str("").end().end();
        }
        w.end().key("nested").arr().arr().list([-1.5e3]).end().end();
        w.end();
        w.finish()
    }

    #[test]
    fn writer_output_reads_back() {
        let text = document();
        assert!(
            text.contains("zürich → 東京"),
            "non-ASCII is written as it is"
        );
        assert!(text.bytes().all(|b| b >= 0x20 || b == b'\n'), "{text:?}");
        assert!(text.contains("\"rows\":[\n{\"i\":0,\"tags\":[\"a\",\"\"]},\n{\"i\":1,"));
        assert!(text.contains("\"empty_rows\":[\n\n]") && text.ends_with("]]]}"));

        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("test-v1"));
        assert_eq!(doc.get(NASTY).and_then(Value::as_str), Some(NASTY));
        assert_eq!(doc.get("nan"), Some(&Value::Null));
        assert_eq!(doc.get("inf"), Some(&Value::Null));
        assert_eq!(doc.get("x").and_then(Value::as_f64), Some(1.2346));
        assert_eq!(doc.get("n").and_then(Value::as_f64), Some(u64::MAX as f64));
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("empty_obj"), Some(&Value::Obj(Vec::new())));
        assert_eq!(
            doc.get("empty_arr").and_then(Value::as_array),
            Some(&[][..])
        );
        let rows = doc.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].get("i").and_then(Value::as_f64), Some(2.0));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.get("ok").and_then(Value::as_f64), None);
    }

    #[test]
    fn reader_takes_whitespace_and_any_bmp_escape() {
        let doc = parse(" { \"a\" : [ 1 , 2.5e-1 ,\r\n\t-0 ] , \"s\" : \"\\u00e9\\u2192\" } ");
        let doc = doc.unwrap();
        let a = doc.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a, [Value::Num(1.0), Value::Num(0.25), Value::Num(-0.0)]);
        assert_eq!(doc.get("s").and_then(Value::as_str), Some("é→"));
    }

    #[test]
    fn malformed_documents_are_errors() {
        // One document per `|`-separated field.
        let bad = r#"|{|[1,]|{"a"}|{"a":}|{,}|[1 2]|nul|tru|1 1|{} x|{"a":1,}|--1|1e|+1|.5|NaN
            |"abc|"\x"|"\n"|"\/"|"\u12"|"\ud800"|"\ud83e\udd80"|"\|"\u00é9"|"\u+041""#;
        for bad in bad.split('|').map(str::trim_start).chain(["\"raw\ttab\""]) {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn every_truncation_is_an_error() {
        let text = document();
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            assert!(
                parse(&text[..cut]).is_err(),
                "prefix of {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn nesting_stops_at_the_cap() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("too deep"));
        // Were the cap not what bounds the recursion, these would overflow
        // the test thread's stack instead of returning.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{\"k\":".repeat(1 << 20)).is_err());
    }

    #[test]
    fn random_input_never_panics() {
        let alphabet: Vec<char> = "{}[]\",:\\ue9d8-+.0123456789ntrfalsé→ \n\u{1}"
            .chars()
            .collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut accepted = 0;
        for _ in 0..20_000 {
            let mut text = String::new();
            for _ in 0..1 + state % 24 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                text.push(alphabet[(state >> 32) as usize % alphabet.len()]);
            }
            accepted += usize::from(parse(&text).is_ok());
        }
        assert!(
            accepted > 0,
            "the alphabet should hit a valid document now and then"
        );
    }
}
