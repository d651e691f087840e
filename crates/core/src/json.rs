//! The one JSON codec behind every `noc-eval/*/v1` schema.
//!
//! The four schemas are records of strings, numbers, booleans, `null`
//! and arrays — flat on the wire, at most two arrays deep in files —
//! so the codec is small. The reader ([`Record::parse`]) tokenises its
//! input once into borrowed `(key, raw value)` pairs and decodes values
//! on demand into the type the caller asks for. Whitespace between
//! tokens is RFC 8259's four bytes (space, tab, LF, CR) and nothing
//! else. Malformed text (other Unicode whitespace included), a
//! duplicated key, a value of the wrong type and an integer that does
//! not fit are each an `Err(String)` naming the field, never a panic
//! or a silent wrap, and unknown keys are ignored. The writer ([`Obj`])
//! owns escaping and the one-record-per-line document shape.

use std::fmt::{Display, Write as _};

/// JSON's whitespace (RFC 8259 §2): space, tab, LF and CR. No other
/// character — U+00A0 and U+2028 included — separates tokens.
pub const WHITESPACE: [char; 4] = [' ', '\t', '\n', '\r'];

/// `s` without its leading [`WHITESPACE`], skipped byte by byte.
fn skip_ws(s: &str) -> &str {
    let n = s.bytes().take_while(|&b| WHITESPACE.contains(&(b as char))).count();
    &s[n..]
}

/// Consume `c` from the front of `rest`, after any whitespace.
fn eat(rest: &mut &str, c: char) -> bool {
    let trimmed = skip_ws(rest);
    *rest = trimmed.strip_prefix(c).unwrap_or(trimmed);
    rest.len() < trimmed.len()
}

/// Split a string (quotes included), number, `true`, `false` or `null`
/// token off the front of `rest`.
fn scalar<'a>(rest: &mut &'a str) -> Result<&'a str, String> {
    let (s, bytes) = (*rest, rest.as_bytes());
    let len = match bytes.first() {
        Some(b'"') => {
            // both ends are ASCII quotes, so the token is on character
            // boundaries whatever an escape skipped over
            let mut i = 1;
            while bytes.get(i).ok_or("unterminated string")? != &b'"' {
                i += 1 + (bytes[i] == b'\\') as usize;
            }
            i + 1
        }
        Some(b'-' | b'0'..=b'9') => {
            bytes.iter().take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(b)).count()
        }
        Some(b'a'..=b'z') => bytes.iter().take_while(|b| b.is_ascii_lowercase()).count(),
        _ => return Err(format!("expected a value, found {:?}", s.chars().next())),
    };
    let (token, tail) = s.split_at(len);
    if bytes[0].is_ascii_lowercase() && !matches!(token, "true" | "false" | "null") {
        return Err(format!("unexpected token {token:?}"));
    }
    *rest = tail;
    Ok(token)
}

/// Document, array, record, array, record, scalar: no schema nests
/// deeper, and the bound keeps hostile `[[[[…` input off the stack.
const MAX_DEPTH: usize = 5;

/// Split one value — a scalar, or an array or object of values — off
/// the front of `rest`, checked but not decoded.
fn value<'a>(rest: &mut &'a str, depth: usize) -> Result<&'a str, String> {
    let start = skip_ws(rest);
    *rest = start;
    if depth > MAX_DEPTH {
        return Err("nested too deep".into());
    }
    if eat(rest, '[') {
        while !eat(rest, ']') {
            value(rest, depth + 1)?;
            if !eat(rest, ',') && !skip_ws(rest).starts_with(']') {
                return Err("unterminated array".into());
            }
        }
    } else if eat(rest, '{') {
        if Record::default().read_members(rest, depth + 1)? || !eat(rest, '}') {
            return Err("unterminated object".into());
        }
    } else {
        scalar(rest)?;
    }
    Ok(&start[..start.len() - rest.len()])
}

/// The start of `raw`, so an error message stays short whatever it
/// quotes.
fn clip(raw: &str) -> &str {
    &raw[..raw.char_indices().nth(40).map_or(raw.len(), |(i, _)| i)]
}

/// One record, tokenised once: `(key, raw value)` pairs in input
/// order, borrowing from the text.
#[derive(Debug, Clone, Default)]
pub struct Record<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Record<'a> {
    /// Tokenise one record: a whole `{…}` object (a serve line, or a
    /// multi-line document), a `{…},` array row, a bare `"k": v,` header
    /// line, or a bare `"k": v, "k": v` fragment.
    pub fn parse(text: &'a str) -> Result<Self, String> {
        let (mut rest, mut rec) = (text, Record::default());
        let braced = eat(&mut rest, '{');
        let comma = rec.read_members(&mut rest, 1)?;
        let closed = eat(&mut rest, '}');
        if !comma {
            eat(&mut rest, ',');
        }
        if closed != braced || (braced && comma) || !skip_ws(rest).is_empty() {
            return Err(format!("malformed record at byte {}", text.len() - rest.len()));
        }
        Ok(rec)
    }

    /// Read `"k": v` members separated by commas. True when the last
    /// comma read had no member after it.
    fn read_members(&mut self, rest: &mut &'a str, depth: usize) -> Result<bool, String> {
        let mut comma = false;
        while skip_ws(rest).starts_with('"') {
            *rest = skip_ws(rest);
            let key = scalar(rest)?;
            let key = &key[1..key.len() - 1];
            if !eat(rest, ':') {
                return Err(format!("expected ':' after \"{key}\""));
            }
            if self.get(key).is_some() {
                return Err(format!("duplicate key \"{key}\""));
            }
            let raw = value(rest, depth).map_err(|e| format!("\"{key}\": {e}"))?;
            self.0.push((key, raw));
            comma = eat(rest, ',');
            if !comma {
                break;
            }
        }
        Ok(comma)
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.0.iter().find(|(k, _)| *k == key).map(|&(_, raw)| raw)
    }

    /// Decode an optional field: absent and `null` are both `None`.
    pub fn opt<T: FromJson<'a>>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some("null") => Ok(None),
            Some(_) => self.req(key).map(Some),
        }
    }

    /// Decode a required field.
    pub fn req<T: FromJson<'a>>(&self, key: &str) -> Result<T, String> {
        let raw = self.get(key).ok_or_else(|| format!("missing \"{key}\""))?;
        T::from_json(raw).map_err(|e| format!("\"{key}\": {e}"))
    }

    /// The records of the required, non-empty array under `key`.
    pub fn records(&self, key: &str) -> Result<Vec<Record<'a>>, String> {
        match self.req::<Vec<Record<'a>>>(key)? {
            rows if rows.is_empty() => Err(format!("\"{key}\": no records")),
            rows => Ok(rows),
        }
    }

    /// Require the `"schema"` field to equal `schema`.
    pub fn expect_schema(&self, schema: &str) -> Result<(), String> {
        match self.opt::<String>("schema") {
            Ok(Some(s)) if s == schema => Ok(()),
            _ => Err(format!("unrecognized schema (expected {schema})")),
        }
    }
}

/// A type one raw value decodes into.
pub trait FromJson<'a>: Sized {
    /// Decode `raw`, or say what was expected instead.
    fn from_json(raw: &'a str) -> Result<Self, String>;
}

macro_rules! unsigned_from_json {
    ($($t:ident),*) => {$(
        impl FromJson<'_> for $t {
            fn from_json(raw: &str) -> Result<Self, String> {
                if !raw.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(format!("expected an unsigned integer, got {}", clip(raw)));
                }
                let fits = raw.parse().map_err(|_| clip(raw));
                fits.map_err(|raw| format!("{raw} is out of range for {}", stringify!($t)))
            }
        }
    )*};
}
unsigned_from_json!(u64, u32, usize);

impl FromJson<'_> for f64 {
    fn from_json(raw: &str) -> Result<Self, String> {
        match raw.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(format!("expected a finite number, got {}", clip(raw))),
        }
    }
}

impl FromJson<'_> for bool {
    fn from_json(raw: &str) -> Result<Self, String> {
        match raw {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(format!("expected true or false, got {}", clip(raw))),
        }
    }
}

/// The full JSON escape set (`\" \\ \/ \n \r \t \b \f \uXXXX`).
impl FromJson<'_> for String {
    fn from_json(raw: &str) -> Result<Self, String> {
        let body = raw
            .strip_prefix('"')
            .and_then(|r| r.strip_suffix('"'))
            .ok_or_else(|| format!("expected a string, got {}", clip(raw)))?;
        let mut out = String::with_capacity(body.len());
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            let bad = || format!("bad escape in {}", clip(raw));
            out.push(match chars.next().ok_or_else(bad)? {
                c @ ('"' | '\\' | '/') => c,
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'b' => '\u{8}',
                'f' => '\u{c}',
                'u' => {
                    let hex = chars.as_str().get(..4).ok_or_else(bad)?;
                    chars = chars.as_str()[4..].chars();
                    let ok = hex.bytes().all(|b| b.is_ascii_hexdigit());
                    let code = ok.then(|| u32::from_str_radix(hex, 16).ok()).flatten();
                    code.and_then(char::from_u32).ok_or_else(bad)?
                }
                _ => return Err(bad()),
            });
        }
        Ok(out)
    }
}

impl<'a> FromJson<'a> for Record<'a> {
    fn from_json(raw: &'a str) -> Result<Self, String> {
        match raw.starts_with('{') {
            true => Record::parse(raw),
            false => Err(format!("expected an object, got {}", clip(raw))),
        }
    }
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn from_json(raw: &'a str) -> Result<Self, String> {
        let (mut rest, mut out) = (raw, Vec::new());
        if !eat(&mut rest, '[') {
            return Err(format!("expected an array, got {}", clip(raw)));
        }
        while !eat(&mut rest, ']') {
            out.push(T::from_json(value(&mut rest, 0)?)?);
            eat(&mut rest, ',');
        }
        Ok(out)
    }
}

/// The members of one record, rendered as `"k": v` pairs: on one line
/// for a wire record ([`Obj::new`]), one per line for a file
/// ([`Obj::document`]).
#[derive(Debug, Clone, Default)]
pub struct Obj {
    buf: String,
    per_line: bool,
}

impl Obj {
    /// An empty one-line member list (sized so a wire record is built
    /// without regrowing).
    pub fn new() -> Self {
        Self { buf: String::with_capacity(256), per_line: false }
    }

    /// The members of a file: one per line, the schema tag first.
    pub fn document(schema: &str) -> Self {
        Self { buf: String::new(), per_line: true }.str("schema", schema)
    }

    /// The separator before a member, when one came before it.
    fn key_separator(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push_str(if self.per_line { ",\n  " } else { ", " });
        }
    }

    fn key(&mut self, key: &str) {
        self.key_separator();
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\": ");
    }

    /// A string member, with quotes, backslashes and control
    /// characters escaped. A string with none of them is copied whole.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        if v.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
            for c in v.chars() {
                match c {
                    '"' => self.buf.push_str("\\\""),
                    '\\' => self.buf.push_str("\\\\"),
                    '\n' => self.buf.push_str("\\n"),
                    '\r' => self.buf.push_str("\\r"),
                    '\t' => self.buf.push_str("\\t"),
                    c if (c as u32) < 0x20 => drop(write!(self.buf, "\\u{:04x}", c as u32)),
                    c => self.buf.push(c),
                }
            }
        } else {
            self.buf.push_str(v);
        }
        self.buf.push('"');
        self
    }

    /// A member rendered by `Display`: integers, booleans, `"null"`,
    /// a [`rows`] block.
    pub fn val(mut self, key: &str, v: impl Display) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// [`Obj::val`] when `v` is present, nothing otherwise.
    pub fn opt(self, key: &str, v: Option<impl Display>) -> Self {
        match v {
            Some(v) => self.val(key, v),
            None => self,
        }
    }

    /// A float in shortest round-trip form (parses back bit-exactly).
    pub fn f64(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{v:?}");
        self
    }

    /// A float rounded to `places` decimals (report files).
    pub fn fixed(self, key: &str, v: f64, places: usize) -> Self {
        self.val(key, format_args!("{v:.places$}"))
    }

    /// A one-line array member; items are rendered by `Display`.
    pub fn arr<D: Display>(self, key: &str, items: impl IntoIterator<Item = D>) -> Self {
        let items: Vec<String> = items.into_iter().map(|item| item.to_string()).collect();
        self.val(key, format_args!("[{}]", items.join(", ")))
    }

    /// Members already rendered by [`Obj::fragment`], appended after the
    /// usual separator.
    pub fn splice(mut self, members: &str) -> Self {
        if !members.is_empty() {
            self.key_separator();
            self.buf.push_str(members);
        }
        self
    }

    /// The bare members, no braces.
    pub fn fragment(self) -> String {
        self.buf
    }

    /// The members as a `{…}` object on one line.
    pub fn object(mut self) -> String {
        self.buf.insert(0, '{');
        self.buf.push('}');
        self.buf
    }

    /// The members as a file: `{`, one member per line, `}`.
    pub fn finish(self) -> String {
        format!("{{\n  {}\n}}\n", self.buf)
    }
}

/// An array value holding one record per line, a comma after all but
/// the last. `indent` is that of the line the array opens on: records
/// sit one level deeper and the closing bracket returns to it.
pub fn rows(indent: usize, records: impl IntoIterator<Item = Obj>) -> String {
    let pad = " ".repeat(indent);
    let lines: Vec<String> =
        records.into_iter().map(|r| format!("{pad}  {}", r.object())).collect();
    let nl = if lines.is_empty() { "" } else { "\n" };
    format!("[\n{}{nl}{pad}]", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn every_line_form_is_accepted() {
        for text in [
            r#"{"a": 1, "b": "x"}"#,
            r#"  {"a": 1, "b": "x"},  "#,
            r#""a": 1, "b": "x""#,
            r#"  "a": 1, "b": "x","#,
            "{\n  \"a\": 1,\n  \"b\": \"x\"\n}\n",
        ] {
            let rec = Record::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(rec.req::<u64>("a").unwrap(), 1, "{text}");
            assert_eq!(rec.req::<String>("b").unwrap(), "x", "{text}");
            assert_eq!(rec.opt::<u64>("c").unwrap(), None, "unknown and absent keys are fine");
        }
        assert!(Record::parse("{}").is_ok() && Record::parse("").is_ok());
    }

    #[test]
    fn each_failure_is_its_own_typed_error() {
        let err = |text: &str| Record::parse(text).unwrap_err();
        assert!(err(r#"{"a": 1, "a": 2}"#).contains("duplicate key \"a\""));
        assert!(err(r#"{"a": "tor"#).contains("unterminated string"));
        assert!(err(r#"{"a": [1, 2"#).contains("unterminated array"));
        assert!(err(r#"{"a": {"b": 1}"#).contains("malformed record"));
        assert!(err(r#"{"a": 1} trailing"#).contains("malformed record"));
        assert!(err(r#"{"a": 1,}"#).contains("malformed record"));
        assert!(err(r#""a": 1}"#).contains("malformed record"));
        assert!(err(r#"{"a" 1}"#).contains("expected ':'"));
        assert!(err(r#"{"a": oops}"#).contains("unexpected token"));
        assert!(err(r#"{"a": }"#).contains("expected a value"));
        assert!(err("not json at all").contains("malformed record"));
        // 4 MiB of '[' must come back as an error, not a stack overflow
        let deep = format!("{{\"a\": {}", "[".repeat(1 << 22));
        assert!(err(&deep).contains("nested too deep"));

        let rec =
            Record::parse(r#"{"n": 18446744073709551616, "f": 3.7, "s": "x", "z": null}"#).unwrap();
        assert!(rec.req::<u64>("n").unwrap_err().contains("out of range for u64"));
        assert!(rec.req::<u32>("f").unwrap_err().contains("expected an unsigned integer"));
        assert!(rec.req::<u64>("s").unwrap_err().contains("expected an unsigned integer"));
        assert!(rec.req::<bool>("s").unwrap_err().contains("expected true or false"));
        assert!(rec.req::<String>("f").unwrap_err().contains("expected a string"));
        assert!(rec.req::<Vec<f64>>("f").unwrap_err().contains("expected an array"));
        assert!(rec.req::<f64>("z").unwrap_err().contains("expected a finite number"));
        assert!(rec.req::<u64>("q").unwrap_err().contains("missing \"q\""));
        assert_eq!(rec.opt::<f64>("z").unwrap(), None, "null reads as absent");
        assert_eq!(rec.req::<f64>("f").unwrap(), 3.7);
    }

    #[test]
    fn strings_decode_the_full_escape_set() {
        let rec =
            Record::parse(r#"{"s": "q\"b\\s\/n\nr\rt\tb\bf\fc\u0001\u00e9", "bad": "\ud83d"}"#)
                .unwrap();
        assert_eq!(rec.req::<String>("s").unwrap(), "q\"b\\s/n\nr\rt\tb\u{8}f\u{c}c\u{1}\u{e9}");
        assert!(rec.req::<String>("bad").unwrap_err().contains("bad escape"));
        for bad in [r#""\x""#, r#""\u12""#, r#""\u12g4""#, r#""\"#] {
            let text = format!("{{\"s\": {bad}}}");
            // either the tokeniser or the decoder refuses it, never a panic
            assert!(Record::parse(&text).and_then(|r| r.req::<String>("s")).is_err(), "{text}");
        }
    }

    #[test]
    fn whitespace_is_the_four_json_bytes() {
        let line = "\t{ \"a\" :\r\n1 ,\"b\": [ 2 ,3 ] } \n";
        let rec = Record::parse(line).unwrap();
        assert_eq!(rec.req::<u64>("a").unwrap(), 1);
        assert_eq!(rec.req::<Vec<u64>>("b").unwrap(), vec![2, 3]);
        // U+00A0, U+3000, U+2028 and U+0085 are Unicode White_Space, not JSON's
        for bad in [
            "{\"schema\":\u{a0}\"noc-eval/serve/v1\",\u{3000}\"req\": \"health\"}",
            "\u{2028}{\"a\": 1}\u{85}",
            "{\"a\": 1}\u{85}",
            "{\"a\": [1,\u{2028}2]}",
        ] {
            assert!(Record::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn arrays_hold_numbers_strings_and_records() {
        let rec = Record::parse(
            r#"{"loads": [0.05, 1e-7, 3], "names": ["a,b", "c]\"d"], "none": [], "rows": [{"k": 1}, {"k": 2}]}"#,
        )
        .unwrap();
        assert_eq!(rec.req::<Vec<f64>>("loads").unwrap(), vec![0.05, 1e-7, 3.0]);
        assert_eq!(rec.req::<Vec<String>>("names").unwrap(), vec!["a,b", "c]\"d"]);
        assert_eq!(rec.req::<Vec<u64>>("none").unwrap(), Vec::<u64>::new());
        let ks: Vec<u64> =
            rec.records("rows").unwrap().iter().map(|r| r.req("k").unwrap()).collect();
        assert_eq!(ks, vec![1, 2]);
        assert!(rec.records("none").unwrap_err().contains("no records"));
        assert!(rec.req::<Vec<u64>>("names").unwrap_err().contains("expected an unsigned integer"));
    }

    #[test]
    fn the_writer_owns_separators_and_the_document_shape() {
        let obj = Obj::new().str("s", "a\"b").val("n", 7).opt("gone", None::<u64>).f64("f", -0.0);
        assert_eq!(obj.clone().fragment(), r#""s": "a\"b", "n": 7, "f": -0.0"#);
        let spliced = Obj::new().str("s", "a\"b").splice(r#""n": 7"#).splice("").f64("f", -0.0);
        assert_eq!(spliced.fragment(), obj.clone().fragment());
        assert_eq!(obj.object(), r#"{"s": "a\"b", "n": 7, "f": -0.0}"#);
        let doc = Obj::document("t/v1")
            .fixed("x", 0.125, 2)
            .val("full", rows(2, [Obj::new().val("k", 1), Obj::new().arr("a", [1, 2])]))
            .val("empty", rows(2, []))
            .finish();
        let want =
            "{\n  \"schema\": \"t/v1\",\n  \"x\": 0.12,\n  \"full\": [\n    {\"k\": 1},\n    \
                    {\"a\": [1, 2]}\n  ],\n  \"empty\": [\n  ]\n}\n";
        assert_eq!(doc, want);
        let back = Record::parse(&doc).unwrap();
        back.expect_schema("t/v1").unwrap();
        assert!(back.expect_schema("t/v2").unwrap_err().contains("unrecognized schema"));
        assert_eq!(back.records("full").unwrap().len(), 2);
    }

    #[test]
    fn extreme_numbers_round_trip() {
        let floats = [0.0, -0.0, 5e-324, f64::MIN_POSITIVE, f64::MAX, f64::MIN, 0.1 + 0.2];
        let line = Obj::new().val("max", u64::MAX).arr("fs", floats.map(|f| format!("{f:?}")));
        let line = line.object();
        let rec = Record::parse(&line).unwrap();
        assert_eq!(rec.req::<u64>("max").unwrap(), u64::MAX);
        let back: Vec<u64> =
            rec.req::<Vec<f64>>("fs").unwrap().iter().map(|f| f.to_bits()).collect();
        assert_eq!(back, floats.map(f64::to_bits));
    }

    fn text(bytes: &[u8]) -> String {
        String::from_utf8_lossy(bytes).into_owned()
    }

    /// Decode every field of whatever parsed, as every type.
    fn poke(rec: &Record<'_>) {
        for (key, _) in &rec.0 {
            let _ = rec.req::<String>(key);
            let _ = rec.req::<u64>(key);
            let _ = rec.req::<u32>(key);
            let _ = rec.req::<f64>(key);
            let _ = rec.req::<bool>(key);
            let _ = rec.req::<Vec<f64>>(key);
            let _ = rec.req::<Vec<String>>(key);
            let _ = rec.opt::<Vec<Record<'_>>>(key);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

        /// Arbitrary text never panics the reader, whatever is then
        /// asked of the record.
        #[test]
        fn arbitrary_text_never_panics(raw in prop::collection::vec(0u8..=255u8, 0..96)) {
            if let Ok(rec) = Record::parse(&text(&raw)) {
                poke(&rec);
            }
        }

        /// Nor does a valid line with one byte flipped, inserted or
        /// deleted.
        #[test]
        fn a_damaged_line_never_panics(at in 0usize..400, byte in 0u8..=255u8, how in 0u32..3) {
            let line = Obj::new()
                .str("schema", "noc-eval/serve/v1")
                .str("batch", "b\"\\\u{1}\u{e9}")
                .val("seed", u64::MAX)
                .f64("load", 1e-7)
                .arr("loads", ["0.05", "0.1"])
                .arr("patterns", ["\"uniform\"", "\"hotspot:5:0.25\""])
                .val("stable", true)
                .val("predicted_latency", "null")
                .object();
            let mut bytes = line.into_bytes();
            let at = at % bytes.len();
            match how {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ => drop(bytes.remove(at)),
            }
            if let Ok(rec) = Record::parse(&text(&bytes)) {
                poke(&rec);
            }
        }

        /// What the writer emits, the reader returns: any string, any
        /// `u64`, any finite `f64` bit pattern.
        #[test]
        fn writer_then_reader_is_the_identity(
            raw in prop::collection::vec(0u8..=255u8, 0..48),
            n in 0u64..u64::MAX,
            bits in 0u64..u64::MAX,
        ) {
            let (s, f) = (text(&raw), f64::from_bits(bits));
            prop_assume!(f.is_finite());
            let line = Obj::new().str("s", &s).val("n", n).f64("f", f).arr("fs", [format!("{f:?}")]);
            let line = line.object();
            let rec = Record::parse(&line).map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
            prop_assert_eq!(rec.req::<String>("s").unwrap(), s);
            prop_assert_eq!(rec.req::<u64>("n").unwrap(), n);
            prop_assert_eq!(rec.req::<f64>("f").unwrap().to_bits(), bits);
            prop_assert_eq!(rec.req::<Vec<f64>>("fs").unwrap()[0].to_bits(), bits);
        }
    }
}
