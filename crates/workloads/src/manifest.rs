//! Run-manifest persistence: incremental JSONL writing with atomic
//! finalization, and the minimal JSON parsing `--resume` needs.
//!
//! Durability model: records stream to `<path>.partial` as points complete
//! (in input order, flushed per line), so a killed process always leaves a
//! valid resumable prefix. On success the partial file is atomically
//! renamed over `<path>` — a complete manifest either exists in full or
//! not at all. Transient I/O failures (line writes, the final rename) go
//! through [`simstate::retry_io`]'s bounded deterministic ladder —
//! [`simstate::IO_RETRY_ATTEMPTS`] tries, no wall-clock backoff — before
//! surfacing as a typed [`SimError`] (never an `expect` abort).
//!
//! The JSON parser below is deliberately tiny: the vendored offline
//! `serde` stand-in only serializes, and manifest lines are flat objects
//! of strings and numbers that this crate itself wrote. It still parses
//! real JSON (escapes included) rather than substring-matching, because
//! panic messages recorded in the `error` field can contain arbitrary
//! text.

use crate::matrix::RunManifest;
use sdclp::SimError;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// The `<path>.partial` staging name for a manifest at `path`.
pub(crate) fn partial_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".partial");
    path.with_file_name(name)
}

/// Streams manifest lines to a `.partial` staging file in *input order*
/// regardless of completion order, then atomically publishes the result.
pub(crate) struct ManifestWriter {
    final_path: PathBuf,
    partial: PathBuf,
    sink: BufWriter<std::fs::File>,
    /// Next input index to write.
    next: usize,
    /// Completed-but-not-yet-writable lines (their predecessors are still
    /// running), keyed by input index.
    buffered: BTreeMap<usize, String>,
}

impl ManifestWriter {
    pub fn create(path: &Path) -> Result<Self, SimError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| SimError::manifest_io(path, e))?;
            }
        }
        let partial = partial_path(path);
        let file =
            std::fs::File::create(&partial).map_err(|e| SimError::manifest_io(&partial, e))?;
        Ok(ManifestWriter {
            final_path: path.to_path_buf(),
            partial,
            sink: BufWriter::new(file),
            next: 0,
            buffered: BTreeMap::new(),
        })
    }

    /// Submit the line for input index `index`. Lines reach the file in
    /// input order; each write is flushed so a killed process keeps every
    /// line written so far.
    pub fn submit(&mut self, index: usize, line: String) -> Result<(), SimError> {
        self.buffered.insert(index, line);
        while let Some(line) = self.buffered.remove(&self.next) {
            // Bounded retry ladder: a transient I/O hiccup must not cost a
            // multi-hour sweep its manifest, but a persistent fault must
            // surface as a typed error after a fixed number of attempts.
            simstate::retry_io(simstate::IO_RETRY_ATTEMPTS, || self.write_line(&line))
                .map_err(|e| SimError::manifest_io(&self.partial, e))?;
            self.next += 1;
        }
        Ok(())
    }

    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.sink, "{line}")?;
        self.sink.flush()
    }

    /// How many lines have been durably written (used by tests).
    #[cfg(test)]
    pub fn written(&self) -> usize {
        self.next
    }

    /// Publish: verify every index arrived, then atomically rename the
    /// partial file over the final path (bounded retry on failure).
    pub fn finish(mut self, total: usize) -> Result<(), SimError> {
        if self.next != total || !self.buffered.is_empty() {
            return Err(SimError::manifest_io(
                &self.final_path,
                format!("manifest incomplete: {} of {total} lines written", self.next),
            ));
        }
        simstate::retry_io(simstate::IO_RETRY_ATTEMPTS, || self.sink.flush())
            .map_err(|e| SimError::manifest_io(&self.partial, e))?;
        drop(self.sink);
        simstate::retry_io(simstate::IO_RETRY_ATTEMPTS, || {
            std::fs::rename(&self.partial, &self.final_path)
        })
        .map_err(|e| SimError::manifest_io(&self.final_path, e))?;
        Ok(())
    }
}

/// Load prior manifest records for `--resume`: the published file when it
/// exists, otherwise the `.partial` prefix a killed run left behind.
/// Unparseable lines (e.g. a line cut mid-write by a crash) are skipped
/// with a warning — a skipped line merely re-runs that point.
pub(crate) fn load_manifests(path: &Path) -> Result<Vec<RunManifest>, SimError> {
    let candidate = if path.exists() { path.to_path_buf() } else { partial_path(path) };
    let text = match std::fs::read_to_string(&candidate) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(SimError::manifest_io(&candidate, e)),
    };
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match RunManifest::from_json_line(line) {
            Ok(m) => out.push(m),
            Err(detail) => {
                eprintln!(
                    "warning: {}:{}: skipping unparseable manifest line ({detail})",
                    candidate.display(),
                    i + 1
                );
            }
        }
    }
    Ok(out)
}

/// Parse a flat JSON object (`{"k":v,...}`, on one line or many) into a
/// field map. String values are unescaped; numeric/bool values are
/// returned as their raw token text (callers parse them on demand). Run
/// manifests and the `fig7 --bench-out` summary both read through it.
pub fn parse_json_object(line: &str) -> Result<BTreeMap<String, String>, String> {
    let mut p = Parser { bytes: line.as_bytes(), pos: 0 };
    p.skip_ws();
    p.consume(b'{')?;
    let mut fields = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        return Ok(fields);
    }
    loop {
        p.skip_ws();
        let key = p.parse_string()?;
        p.skip_ws();
        p.consume(b':')?;
        p.skip_ws();
        let value = p.parse_value()?;
        fields.insert(key, value);
        p.skip_ws();
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => return Ok(fields),
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

/// Validate that `src` is one well-formed JSON value — objects, arrays,
/// strings, and scalar tokens, arbitrarily nested — with nothing but
/// whitespace after it. The manifest reader itself only consumes flat
/// objects; telemetry exports (Chrome trace-event JSON for Perfetto) are
/// nested, and CI uses this to prove they parse without external crates.
pub fn validate_json(src: &str) -> Result<(), String> {
    let mut p = Parser { bytes: src.as_bytes(), pos: 0 };
    p.skip_ws();
    p.validate_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched:
                    // advance to the next char boundary.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len()
                        && (self.bytes[self.pos] & 0b1100_0000) == 0b1000_0000
                    {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(chunk);
                }
            }
        }
    }

    /// A value: a string (unescaped) or a scalar token (returned raw).
    fn parse_value(&mut self) -> Result<String, String> {
        if self.peek() == Some(b'"') {
            return self.parse_string();
        }
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b',' | b'}' | b' ' | b'\t' | b'\r' | b'\n') {
                break;
            }
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("empty value at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map(str::to_string)
            .map_err(|_| "invalid UTF-8 in value".into())
    }

    /// Recursively validate one JSON value of any shape (see
    /// [`validate_json`]). Values are checked, not materialized.
    fn validate_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.parse_string().map(drop),
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.parse_string()?;
                    self.skip_ws();
                    self.consume(b':')?;
                    self.skip_ws();
                    self.validate_value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => return Err(format!("expected ',' or '}}', found {other:?}")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.validate_value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => return Err(format!("expected ',' or ']', found {other:?}")),
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if matches!(b, b',' | b'}' | b']' | b' ' | b'\t' | b'\r' | b'\n') {
                        break;
                    }
                    self.pos += 1;
                }
                let token = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in value")?;
                let scalar =
                    matches!(token, "true" | "false" | "null") || token.parse::<f64>().is_ok();
                if scalar {
                    Ok(())
                } else {
                    Err(format!("invalid scalar token {token:?} at byte {start}"))
                }
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

/// Schema-layer accessors over a parsed field map.
pub(crate) struct Fields(pub BTreeMap<String, String>);

impl Fields {
    pub fn str_field(&self, name: &str) -> Result<String, String> {
        self.0.get(name).cloned().ok_or_else(|| format!("missing field {name:?}"))
    }

    pub fn u64_field(&self, name: &str) -> Result<u64, String> {
        self.str_field(name)?.parse().map_err(|e| format!("field {name:?}: {e}"))
    }

    pub fn usize_field(&self, name: &str) -> Result<usize, String> {
        self.str_field(name)?.parse().map_err(|e| format!("field {name:?}: {e}"))
    }

    pub fn f64_field(&self, name: &str) -> Result<f64, String> {
        let raw = self.str_field(name)?;
        if raw == "null" {
            return Ok(f64::NAN);
        }
        raw.parse().map_err(|e| format!("field {name:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects_with_escapes() {
        let m = parse_json_object(
            r#"{"a":"x","n":42,"f":1.25,"esc":"line\nbreak \"quoted\" \\ done","empty":""}"#,
        )
        .unwrap();
        assert_eq!(m["a"], "x");
        assert_eq!(m["n"], "42");
        assert_eq!(m["f"], "1.25");
        assert_eq!(m["esc"], "line\nbreak \"quoted\" \\ done");
        assert_eq!(m["empty"], "");
    }

    #[test]
    fn parses_multi_line_objects() {
        let m =
            parse_json_object("{\n  \"a\": 1,\r\n  \"s\": \"x, y\",\n  \"f\": 0.5\n}\n").unwrap();
        assert_eq!(m["a"], "1");
        assert_eq!(m["s"], "x, y");
        assert_eq!(m["f"], "0.5");
        assert_eq!(parse_json_object("{\"a\": 1\n}").unwrap()["a"], "1");
    }

    #[test]
    fn parses_unicode_escapes_and_utf8() {
        let m = parse_json_object("{\"u\":\"\\u0041\",\"raw\":\"caf\u{e9}\"}").unwrap();
        assert_eq!(m["u"], "A");
        assert_eq!(m["raw"], "caf\u{e9}");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_json_object("").is_err());
        assert!(parse_json_object("{\"a\":").is_err());
        assert!(parse_json_object("{\"a\" 1}").is_err());
        assert!(parse_json_object("{\"a\":\"unterminated}").is_err());
        assert!(parse_json_object("{}").unwrap().is_empty());
    }

    #[test]
    fn validate_json_accepts_nested_documents() {
        validate_json(r#"{"traceEvents":[{"name":"ipc","ph":"C","ts":100,"args":{"v":1.25}},{"name":"miss","ph":"i","ts":200}],"displayTimeUnit":"ns"}"#).unwrap();
        validate_json("[]").unwrap();
        validate_json("  {\"a\": [1, 2, {\"b\": null}], \"c\": true }\n").unwrap();
        validate_json("-1.5e3").unwrap();
    }

    #[test]
    fn validate_json_rejects_malformed_documents() {
        assert!(validate_json("").is_err());
        assert!(validate_json("{\"a\":[1,}").is_err());
        assert!(validate_json("[1 2]").is_err());
        assert!(validate_json("{\"a\":1} trailing").is_err());
        assert!(validate_json("{a:1}").is_err());
        assert!(validate_json("bogus").is_err());
    }

    #[test]
    fn writer_emits_in_input_order_and_publishes_atomically() {
        let dir = std::env::temp_dir().join("sdclp-manifest-writer-test");
        let path = dir.join("m.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut w = ManifestWriter::create(&path).unwrap();
        // Out-of-order completion: 2 first, then 0, then 1.
        w.submit(2, "two".into()).unwrap();
        assert_eq!(w.written(), 0, "line 2 must wait for its predecessors");
        w.submit(0, "zero".into()).unwrap();
        assert_eq!(w.written(), 1);
        // Mid-run, the partial file holds the durable in-order prefix.
        let partial = partial_path(&path);
        assert_eq!(std::fs::read_to_string(&partial).unwrap(), "zero\n");
        assert!(!path.exists(), "final path must not exist before finish");
        w.submit(1, "one".into()).unwrap();
        assert_eq!(w.written(), 3);
        w.finish(3).unwrap();
        assert!(!partial.exists(), "partial must be renamed away");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "zero\none\ntwo\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn finish_rejects_missing_lines() {
        let dir = std::env::temp_dir().join("sdclp-manifest-writer-test2");
        let path = dir.join("m.jsonl");
        let mut w = ManifestWriter::create(&path).unwrap();
        w.submit(0, "zero".into()).unwrap();
        assert!(matches!(w.finish(2), Err(sdclp::SimError::ManifestIo { .. })));
        let _ = std::fs::remove_file(partial_path(&path));
    }
}
