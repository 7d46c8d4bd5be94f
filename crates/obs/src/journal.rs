//! Deterministic JSONL run journal.
//!
//! A journal is a plain-text file with one JSON object per line — one
//! line per replica run — written in append mode so parallel tools can
//! each contribute records. Two invariants make the format useful as a
//! determinism probe and not just a log:
//!
//! 1. **Fixed key order.** A [`Record`] renders its fields in the order
//!    they were pushed; there is no map in the middle to scramble them.
//!    Equal runs produce byte-equal text.
//! 2. **Wall-clock isolation.** Every noisy, timing-derived field lives
//!    in a single trailing `"wall"` object. [`canonical`] strips that
//!    tail, leaving the byte-reproducible remainder that tests compare
//!    across repeat runs and worker counts.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;

/// Render an `f64` as a JSON value: shortest round-trip decimal via
/// `Display`, with non-finite values mapped to `null` (JSON has no
/// NaN/Infinity literals).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Append `s` to `out`, escaped for embedding in a JSON string literal
/// (quotes, backslashes and control characters).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Marker that introduces the wall-clock tail of a rendered record.
const WALL_MARKER: &str = ", \"wall\": {";

/// One journal record: an insertion-ordered JSON object split into a
/// deterministic body and a wall-clock tail.
#[derive(Debug, Clone, Default)]
pub struct Record {
    det: Vec<(String, String)>,
    wall: Vec<(String, String)>,
}

impl Record {
    /// A record opened with its `schema` field — every journal line
    /// starts by identifying its own format version.
    pub fn new(schema: &str) -> Self {
        let mut r = Self::default();
        r.str_field("schema", schema);
        r
    }

    /// Push a string field onto the deterministic body.
    pub fn str_field(&mut self, key: &str, value: &str) {
        let mut v = String::with_capacity(value.len() + 2);
        v.push('"');
        escape_into(&mut v, value);
        v.push('"');
        self.det.push((key.to_owned(), v));
    }

    /// Push a pre-rendered JSON value onto the deterministic body.
    pub fn raw_field(&mut self, key: &str, json: &str) {
        self.det.push((key.to_owned(), json.to_owned()));
    }

    /// Push an integer field onto the deterministic body.
    pub fn u64_field(&mut self, key: &str, value: u64) {
        self.det.push((key.to_owned(), value.to_string()));
    }

    /// Push a float field onto the deterministic body.
    pub fn f64_field(&mut self, key: &str, value: f64) {
        self.det.push((key.to_owned(), json_f64(value)));
    }

    /// Push an optional float field (absent value renders as `null`,
    /// keeping the key set — and hence the byte layout — fixed).
    pub fn opt_f64_field(&mut self, key: &str, value: Option<f64>) {
        let v = value.map(json_f64).unwrap_or_else(|| "null".to_owned());
        self.det.push((key.to_owned(), v));
    }

    /// Push a float onto the wall-clock tail.
    pub fn wall_f64(&mut self, key: &str, value: f64) {
        self.wall.push((key.to_owned(), json_f64(value)));
    }

    /// Push a pre-rendered JSON value onto the wall-clock tail.
    pub fn wall_raw(&mut self, key: &str, json: &str) {
        self.wall.push((key.to_owned(), json.to_owned()));
    }

    /// Render the record as one JSON line (no trailing newline). The
    /// `"wall"` object is appended last, and only when non-empty.
    pub fn line(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.det.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push('"');
            escape_into(&mut s, k);
            s.push_str("\": ");
            s.push_str(v);
        }
        if !self.wall.is_empty() {
            s.push_str(WALL_MARKER);
            for (i, (k, v)) in self.wall.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push('"');
                escape_into(&mut s, k);
                s.push_str("\": ");
                s.push_str(v);
            }
            s.push('}');
        }
        s.push('}');
        s
    }
}

/// Strip the wall-clock tail from a rendered journal line, returning
/// the byte-reproducible remainder. Lines without a tail pass through
/// unchanged.
pub fn canonical(line: &str) -> String {
    match line.rfind(WALL_MARKER) {
        Some(idx) => {
            let mut s = line[..idx].to_owned();
            s.push('}');
            s
        }
        None => line.to_owned(),
    }
}

/// An append-mode journal writer.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Open (creating if needed) the journal at `path` for appending.
    /// Parent directories are created.
    pub fn open(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self { file })
    }

    /// Append one record as a JSONL line.
    pub fn write(&mut self, record: &Record) -> io::Result<()> {
        let mut line = record.line();
        line.push('\n');
        self.file.write_all(line.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_render_in_insertion_order() {
        let mut r = Record::new("test.v1");
        r.str_field("zeta", "z");
        r.u64_field("alpha", 7);
        r.opt_f64_field("gap", None);
        let line = r.line();
        assert_eq!(
            line,
            "{\"schema\": \"test.v1\", \"zeta\": \"z\", \"alpha\": 7, \"gap\": null}"
        );
    }

    #[test]
    fn canonical_strips_only_the_wall_tail() {
        let mut r = Record::new("test.v1");
        r.u64_field("steps", 128);
        r.wall_f64("wall_s", 0.25);
        r.wall_raw("stages", "{\"tour\": 1.5}");
        let line = r.line();
        assert!(line.contains("\"wall\": {\"wall_s\": 0.25, \"stages\": {\"tour\": 1.5}}"));
        let canon = canonical(&line);
        assert_eq!(canon, "{\"schema\": \"test.v1\", \"steps\": 128}");
        // A record with no wall tail is already canonical.
        assert_eq!(canonical(&canon), canon);
    }

    #[test]
    fn json_f64_maps_non_finite_to_null() {
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = Record::new("test.v1");
        r.str_field("label", "a\"b\\c\nd");
        assert!(r.line().contains("\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn journal_appends_lines() {
        let dir = std::env::temp_dir().join("pedsim_obs_journal_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("j.jsonl");
        {
            let mut j = Journal::open(&path).unwrap();
            let mut r = Record::new("test.v1");
            r.u64_field("n", 1);
            j.write(&r).unwrap();
        }
        {
            let mut j = Journal::open(&path).unwrap();
            let mut r = Record::new("test.v1");
            r.u64_field("n", 2);
            j.write(&r).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"n\": 1"));
        assert!(lines[1].contains("\"n\": 2"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
