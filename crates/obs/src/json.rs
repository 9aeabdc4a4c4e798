//! Minimal JSON emission — just enough for JSONL events and snapshot
//! export, keeping the crate dependency-free.

use std::fmt::Write as _;

/// Escape a string for embedding in a JSON string literal (without the
/// surrounding quotes).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Format an `f64` as a JSON value: shortest round-trip decimal for
/// finite values, `null` for NaN/±inf (JSON has no non-finite numbers).
pub(crate) fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on f64 never prints an exponent for integral values, but
        // guard against bare integral forms being fine JSON anyway.
        s
    } else {
        "null".to_string()
    }
}

/// Push `"key":` onto `out`.
pub(crate) fn key(out: &mut String, k: &str) {
    out.push('"');
    out.push_str(&escape(k));
    out.push_str("\":");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\t"), "a\\nb\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain — text"), "plain — text");
    }

    #[test]
    fn numbers_round_trip_and_non_finite_is_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(-0.25), "-0.25");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }
}
