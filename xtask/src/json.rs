//! Minimal JSON writer for the machine-readable lint/determinism output.
//! (No serde in the dependency closure; the output shapes here are flat
//! enough that a small escaping writer is all that's needed.)

use std::fmt::Write;

/// Escape `s` as the *contents* of a JSON string (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Incremental builder for one JSON object.
#[derive(Default)]
pub struct Object {
    buf: String,
}

impl Object {
    pub fn new() -> Self {
        Object { buf: String::new() }
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
    }

    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.sep();
        let _ = write!(self.buf, "\"{}\":\"{}\"", escape(key), escape(value));
        self
    }

    pub fn num_field(&mut self, key: &str, value: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.buf, "\"{}\":{}", escape(key), value);
        self
    }

    /// Finite floats render with enough digits to round-trip; non-finite
    /// values (which JSON cannot represent) render as `null`.
    pub fn float_field(&mut self, key: &str, value: f64) -> &mut Self {
        self.sep();
        if value.is_finite() {
            let _ = write!(self.buf, "\"{}\":{}", escape(key), format_float(value));
        } else {
            let _ = write!(self.buf, "\"{}\":null", escape(key));
        }
        self
    }

    pub fn bool_field(&mut self, key: &str, value: bool) -> &mut Self {
        self.sep();
        let _ = write!(self.buf, "\"{}\":{}", escape(key), value);
        self
    }

    /// Insert pre-rendered JSON (an array or object) under `key`.
    pub fn raw_field(&mut self, key: &str, json: &str) -> &mut Self {
        self.sep();
        let _ = write!(self.buf, "\"{}\":{}", escape(key), json);
        self
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Format a finite f64 so the text parses back to the same value and is
/// always a valid JSON number (an integral value gets an explicit `.0`).
pub fn format_float(value: f64) -> String {
    let s = format!("{value}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Render a JSON array from pre-rendered element strings.
pub fn array(elems: impl IntoIterator<Item = String>) -> String {
    let mut buf = String::from("[");
    for (i, e) in elems.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&e);
    }
    buf.push(']');
    buf
}

/// Check that `text` is a single well-formed JSON value. This is a
/// validator, not a parser — it never builds a tree, just walks the
/// grammar — which is all the well-formedness tests need.
pub fn validate(text: &str) -> bool {
    let b = text.as_bytes();
    let mut pos = 0usize;
    if !validate_value(b, &mut pos) {
        return false;
    }
    skip_ws(b, &mut pos);
    pos == b.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, lit: &str) -> bool {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn validate_value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => validate_object(b, pos),
        Some(b'[') => validate_array(b, pos),
        Some(b'"') => validate_string(b, pos),
        Some(b't') => eat(b, pos, "true"),
        Some(b'f') => eat(b, pos, "false"),
        Some(b'n') => eat(b, pos, "null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => validate_number(b, pos),
        _ => false,
    }
}

fn validate_object(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') || !validate_string(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return false;
        }
        *pos += 1;
        if !validate_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn validate_array(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return true;
    }
    loop {
        if !validate_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn validate_string(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b.get(*pos + 2..*pos + 6);
                    match hex {
                        Some(h) if h.iter().all(u8::is_ascii_hexdigit) => *pos += 6,
                        _ => return false,
                    }
                }
                _ => return false,
            },
            0x00..=0x1f => return false,
            _ => *pos += 1,
        }
    }
    false
}

fn validate_number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if *pos == int_start {
        return false;
    }
    // leading zeros are invalid JSON ("01"), a single zero is fine
    if b[int_start] == b'0' && *pos - int_start > 1 {
        return false;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == frac_start {
            return false;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == exp_start {
            return false;
        }
    }
    *pos > start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn float_rendering() {
        let mut o = Object::new();
        o.float_field("a", 1.5)
            .float_field("b", 3.0)
            .float_field("c", f64::NAN);
        assert_eq!(o.finish(), "{\"a\":1.5,\"b\":3.0,\"c\":null}");
    }

    #[test]
    fn validator_accepts_good_json() {
        for good in [
            "{}",
            "[]",
            "null",
            "-12.5e3",
            "0",
            "\"a\\u00e9b\"",
            "{\"k\":[1,2,{\"x\":true}],\"m\":null}",
            "  [ 1 , \"two\" , false ]  ",
        ] {
            assert!(validate(good), "should accept: {good}");
        }
    }

    #[test]
    fn validator_rejects_bad_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"k\":}",
            "{\"k\":1,}",
            "01",
            "1.",
            "nul",
            "\"unterminated",
            "{\"a\":1}{",
            "{\"a\" 1}",
            "\"bad\\q\"",
        ] {
            assert!(!validate(bad), "should reject: {bad}");
        }
    }

    #[test]
    fn object_rendering() {
        let mut o = Object::new();
        o.str_field("lint", "no-float-eq")
            .num_field("line", 12)
            .bool_field("ok", false)
            .raw_field("findings", "[]");
        assert_eq!(
            o.finish(),
            "{\"lint\":\"no-float-eq\",\"line\":12,\"ok\":false,\"findings\":[]}"
        );
    }
}
