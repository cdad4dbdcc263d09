//! Performance snapshots (`BENCH_*.json`) and self-regression gates.
//!
//! Every measured data point of the harness can be captured into a
//! versioned, machine-profiled snapshot file, and two snapshots can be
//! diffed point-by-point under per-metric tolerance gates (`repro
//! bench-diff`). This turns performance into a tracked artifact: CI keeps
//! a committed `BENCH_baseline.json` and goes red when a sweep regresses
//! against it beyond tolerance, instead of perf changes drifting by
//! unnoticed between PRs.
//!
//! # Why a hand-rolled JSON layer
//!
//! The build container cannot reach crates.io, so there is no `serde`:
//! both the writer and the parser live here and are tested hard
//! (round-trip property tests over seeded-random snapshots, escaping edge
//! cases, `u64::MAX`-scale integers, unknown-field tolerance for forward
//! compatibility). The [`Json`] model is tiny but complete for the schema:
//! null, booleans, unsigned integers (bit-exact across the full `u64`
//! range), finite floats, strings, arrays and order-preserving objects.
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "label": "baseline",
//!   "machine": { "cores": 8, "kernel": "6.8.0", "os": "linux",
//!                "arch": "x86_64", "debug_assertions": false },
//!   "points": [ { "benchmark": "red-black tree", "stm": "SwissTM",
//!                 "threads": 2, "seed": 22293, "profile": "quick",
//!                 "clock": "strict", "table_layout": "flat",
//!                 "grain_shift": 1,
//!                 "elapsed_secs": 0.2, "operations": 1000,
//!                 "commits": 1000, "aborts": 3, "throughput": 5000.0,
//!                 "wait_share": 0.01, "backoff_share": 0.0 } ]
//! }
//! ```
//!
//! Unknown fields anywhere in the document are ignored on parse, so future
//! schema additions stay readable by old binaries; a different
//! `schema_version` is rejected outright.
//!
//! # Gate semantics
//!
//! [`diff_snapshots`] matches points by their full identity (benchmark ×
//! STM × threads × seed × profile × clock × table layout × stripe grain;
//! repeated identities — e.g. the granularity sweeps of Figure 13 and
//! Table 2 measure the same configuration in the same order — are paired
//! by occurrence) and applies the self-regression shapes of
//! [`crate::shapes`]: throughput within tolerance, wait share not worse,
//! abort ratio bounded. When the two snapshots come from *different
//! machines* (core count, architecture or `debug_assertions` differ), the
//! multi-thread gates are vacuous — the thread/data-mapping literature
//! (PAPERS.md) documents how the same sweep inverts between a 1-core and a
//! multi-socket box — so they are skipped loudly and only single-thread
//! points stay gated.

use std::fmt;
use std::sync::{Mutex, OnceLock};

use stm_workloads::driver::RunResult;
use stm_workloads::profile::SizeProfile;

use crate::shapes::{
    check_self_abort_ratio, check_self_throughput, check_self_wait_share, ShapeReport,
};

/// The schema version this module reads and writes.
pub const SCHEMA_VERSION: u64 = 1;

/// Maximum nesting depth the JSON parser accepts (defensive bound against
/// stack exhaustion on adversarial inputs).
pub const MAX_JSON_DEPTH: usize = 64;

// ---------------------------------------------------------------------------
// JSON value model
// ---------------------------------------------------------------------------

/// A parsed JSON value.
///
/// Numbers are split into [`Json::UInt`] (non-negative integers without
/// fraction or exponent, bit-exact over the full `u64` range — snapshot
/// counters routinely exceed 2^53, where an `f64` would silently round)
/// and [`Json::Float`] (everything else, required finite). Object fields
/// preserve insertion order so written files are stable and diffs stay
/// readable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact over the full `u64` range.
    UInt(u64),
    /// A finite floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object: ordered `(key, value)` pairs.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a field of an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` ([`Json::UInt`] only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64` (accepts both number forms; `UInt` may round
    /// beyond 2^53, which is fine for metric fields).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// Serializes the value as pretty-printed JSON (2-space indent) with a
    /// trailing newline — the committed-baseline-friendly format.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Float(x) => write_float(*x, out),
            Json::Str(s) => write_json_string(s, out),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, level + 1);
                    item.write_pretty(out, level + 1);
                }
                out.push('\n');
                push_indent(out, level);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, level + 1);
                    write_json_string(key, out);
                    out.push_str(": ");
                    value.write_pretty(out, level + 1);
                }
                out.push('\n');
                push_indent(out, level);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Writes a float so that parsing it back is bit-exact: Rust's `Display`
/// prints the shortest decimal that round-trips, and a `.0` is appended to
/// integer-looking output so the parser classifies it as a float again
/// (`2.0` must not come back as `UInt(2)`).
///
/// # Panics
///
/// Panics on non-finite input — the snapshot schema is NaN-free by
/// construction ([`sanitize_f64`] guards every measured field).
fn write_float(x: f64, out: &mut String) {
    assert!(x.is_finite(), "snapshot floats must be finite, got {x}");
    let formatted = format!("{x}");
    out.push_str(&formatted);
    if !formatted.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Replaces non-finite metric values with `0.0` so a degenerate measurement
/// (zero-duration window on a wildly oversubscribed box) can never poison a
/// snapshot with `NaN`/`inf` the writer would reject.
pub fn sanitize_f64(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

/// Parses a JSON document into a [`Json`] value.
///
/// # Errors
///
/// Returns a message with the byte offset of the problem on malformed
/// input: unterminated strings, bad escapes (including lone UTF-16
/// surrogates), non-finite numbers, trailing garbage, or nesting deeper
/// than [`MAX_JSON_DEPTH`].
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value(0)?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(format!(
            "trailing characters after JSON value at byte {}",
            parser.pos
        ));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_JSON_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(format!(
                "unexpected character '{}' at byte {}",
                other as char, self.pos
            )),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn parse_keyword(&mut self, keyword: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 (it is a &str) and the run ends
                // on an ASCII delimiter, so the slice is on char bounds.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.parse_escape(&mut out)?;
                }
                Some(_) => {
                    return Err(format!(
                        "unescaped control character in string at byte {}",
                        self.pos
                    ))
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn parse_escape(&mut self, out: &mut String) -> Result<(), String> {
        let escape = self
            .peek()
            .ok_or_else(|| "unterminated escape".to_string())?;
        self.pos += 1;
        match escape {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let first = self.parse_hex4()?;
                let c = if (0xd800..0xdc00).contains(&first) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(format!("lone high surrogate at byte {}", self.pos));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(format!("lone high surrogate at byte {}", self.pos));
                    }
                    self.pos += 1;
                    let second = self.parse_hex4()?;
                    if !(0xdc00..0xe000).contains(&second) {
                        return Err(format!("invalid low surrogate at byte {}", self.pos));
                    }
                    let combined = 0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                    char::from_u32(combined)
                        .ok_or_else(|| format!("invalid surrogate pair at byte {}", self.pos))?
                } else if (0xdc00..0xe000).contains(&first) {
                    return Err(format!("lone low surrogate at byte {}", self.pos));
                } else {
                    char::from_u32(first)
                        .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?
                };
                out.push(c);
            }
            other => {
                return Err(format!(
                    "invalid escape '\\{}' at byte {}",
                    other as char,
                    self.pos - 1
                ))
            }
        }
        Ok(())
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(format!("truncated \\u escape at byte {}", self.pos));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
        let value = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if text.is_empty() || text == "-" {
            return Err(format!("invalid number at byte {start}"));
        }
        if !is_float && !text.starts_with('-') {
            // Exact u64 path; values beyond u64::MAX fall back to float so
            // forward-compatible documents with huge numbers stay readable.
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        let x: f64 = text
            .parse()
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))?;
        if !x.is_finite() {
            return Err(format!("number '{text}' at byte {start} is out of range"));
        }
        Ok(Json::Float(x))
    }
}

// ---------------------------------------------------------------------------
// Schema model
// ---------------------------------------------------------------------------

/// The machine a snapshot was measured on. Diff gates only compare numbers
/// measured under comparable profiles ([`MachineProfile::comparable`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineProfile {
    /// `std::thread::available_parallelism()` at capture time.
    pub cores: u64,
    /// Kernel release string (`/proc/sys/kernel/osrelease`; `"unknown"`
    /// off-Linux).
    pub kernel: String,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Whether the binary was built with `debug_assertions` (a debug-build
    /// number must never gate a release-build number).
    pub debug_assertions: bool,
}

impl MachineProfile {
    /// Captures the current machine's profile.
    pub fn current() -> Self {
        MachineProfile {
            cores: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            debug_assertions: cfg!(debug_assertions),
        }
    }

    /// Whether throughput numbers from the two profiles can be compared at
    /// all thread counts. Kernel and OS strings are informational (a kernel
    /// upgrade does not void a baseline); core count, architecture and the
    /// build mode do.
    pub fn comparable(&self, other: &MachineProfile) -> bool {
        self.cores == other.cores
            && self.arch == other.arch
            && self.debug_assertions == other.debug_assertions
    }

    /// A one-line human-readable description of what differs between two
    /// profiles (empty when [`MachineProfile::comparable`]).
    pub fn mismatch_description(&self, other: &MachineProfile) -> String {
        let mut parts = Vec::new();
        if self.cores != other.cores {
            parts.push(format!("cores {} vs {}", self.cores, other.cores));
        }
        if self.arch != other.arch {
            parts.push(format!("arch {} vs {}", self.arch, other.arch));
        }
        if self.debug_assertions != other.debug_assertions {
            parts.push(format!(
                "debug_assertions {} vs {}",
                self.debug_assertions, other.debug_assertions
            ));
        }
        parts.join(", ")
    }

    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("cores".into(), Json::UInt(self.cores)),
            ("kernel".into(), Json::Str(self.kernel.clone())),
            ("os".into(), Json::Str(self.os.clone())),
            ("arch".into(), Json::Str(self.arch.clone())),
            ("debug_assertions".into(), Json::Bool(self.debug_assertions)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        Ok(MachineProfile {
            cores: require_u64(json, "cores", "machine")?,
            kernel: require_str(json, "kernel", "machine")?,
            os: require_str(json, "os", "machine")?,
            arch: require_str(json, "arch", "machine")?,
            debug_assertions: json
                .get("debug_assertions")
                .and_then(Json::as_bool)
                .ok_or("machine: missing or invalid field 'debug_assertions'")?,
        })
    }
}

/// One measured data point: the full configuration it ran under plus the
/// metrics the gates compare.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotPoint {
    /// Benchmark label (e.g. `"red-black tree"`, `"stmbench7-read-write"`).
    pub benchmark: String,
    /// STM variant label (e.g. `"SwissTM"`, `"RSTM[eager/inv,polka]"`).
    pub stm: String,
    /// Worker thread count.
    pub threads: u64,
    /// Seed of the run's operation streams.
    pub seed: u64,
    /// Workload size profile label (`quick`/`full`/`huge`).
    pub profile: String,
    /// Commit-clock mode label (`strict`/`deferred`).
    pub clock: String,
    /// Lock-table layout label (`flat`/`mixed`/`padded`/`padded-mixed`).
    pub table_layout: String,
    /// Stripe granularity (log2 words per stripe) the lock table used.
    pub grain_shift: u64,
    /// Measured window in seconds.
    pub elapsed_secs: f64,
    /// Application-level operations executed.
    pub operations: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts.
    pub aborts: u64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Share of thread-time spent in CM wait loops.
    pub wait_share: f64,
    /// Share of thread-time spent spinning in back-off.
    pub backoff_share: f64,
}

impl SnapshotPoint {
    /// Builds a point from one measured [`RunResult`]. The seed, clock and
    /// table layout come from the result itself (the driver records them
    /// per run), so the point is reproducible without out-of-band context.
    pub fn from_run(
        benchmark: impl Into<String>,
        stm: impl Into<String>,
        threads: usize,
        profile: SizeProfile,
        grain_shift: u32,
        result: &RunResult,
    ) -> Self {
        SnapshotPoint {
            benchmark: benchmark.into(),
            stm: stm.into(),
            threads: threads as u64,
            seed: result.seed,
            profile: profile.label().to_string(),
            clock: result.clock.label().to_string(),
            table_layout: result.table_layout.label().to_string(),
            grain_shift: grain_shift as u64,
            elapsed_secs: sanitize_f64(result.elapsed.as_secs_f64()),
            operations: result.operations,
            commits: result.stats.totals.commits,
            aborts: result.stats.totals.aborts,
            throughput: sanitize_f64(result.throughput()),
            wait_share: sanitize_f64(result.wait_share()),
            backoff_share: sanitize_f64(result.backoff_share()),
        }
    }

    /// The point's identity for diff matching: everything that determines
    /// *what* was measured, none of the measured values.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{}|{}",
            self.benchmark,
            self.stm,
            self.threads,
            self.seed,
            self.profile,
            self.clock,
            self.table_layout,
            self.grain_shift
        )
    }

    /// Abort ratio of the point (aborts / attempts; 0 on no attempts).
    pub fn abort_ratio(&self) -> f64 {
        let attempts = self.commits.saturating_add(self.aborts);
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("benchmark".into(), Json::Str(self.benchmark.clone())),
            ("stm".into(), Json::Str(self.stm.clone())),
            ("threads".into(), Json::UInt(self.threads)),
            ("seed".into(), Json::UInt(self.seed)),
            ("profile".into(), Json::Str(self.profile.clone())),
            ("clock".into(), Json::Str(self.clock.clone())),
            ("table_layout".into(), Json::Str(self.table_layout.clone())),
            ("grain_shift".into(), Json::UInt(self.grain_shift)),
            ("elapsed_secs".into(), Json::Float(self.elapsed_secs)),
            ("operations".into(), Json::UInt(self.operations)),
            ("commits".into(), Json::UInt(self.commits)),
            ("aborts".into(), Json::UInt(self.aborts)),
            ("throughput".into(), Json::Float(self.throughput)),
            ("wait_share".into(), Json::Float(self.wait_share)),
            ("backoff_share".into(), Json::Float(self.backoff_share)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        Ok(SnapshotPoint {
            benchmark: require_str(json, "benchmark", "point")?,
            stm: require_str(json, "stm", "point")?,
            threads: require_u64(json, "threads", "point")?,
            seed: require_u64(json, "seed", "point")?,
            profile: require_str(json, "profile", "point")?,
            clock: require_str(json, "clock", "point")?,
            table_layout: require_str(json, "table_layout", "point")?,
            grain_shift: require_u64(json, "grain_shift", "point")?,
            elapsed_secs: require_f64(json, "elapsed_secs", "point")?,
            operations: require_u64(json, "operations", "point")?,
            commits: require_u64(json, "commits", "point")?,
            aborts: require_u64(json, "aborts", "point")?,
            throughput: require_f64(json, "throughput", "point")?,
            wait_share: require_f64(json, "wait_share", "point")?,
            backoff_share: require_f64(json, "backoff_share", "point")?,
        })
    }
}

impl fmt::Display for SnapshotPoint {
    /// The `(benchmark × STM × threads)` form the gate messages use.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {} × {} threads [{}/{}/{}]",
            self.benchmark, self.stm, self.threads, self.profile, self.clock, self.table_layout
        )
    }
}

/// A full performance snapshot: machine profile and measured sweep points.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSnapshot {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Human-chosen label (usually derived from the file name).
    pub label: String,
    /// Machine the snapshot was measured on.
    pub machine: MachineProfile,
    /// Measured sweep points, in measurement order.
    pub points: Vec<SnapshotPoint>,
}

impl BenchSnapshot {
    /// A snapshot of the current machine with the given label and points.
    pub fn new(label: impl Into<String>, points: Vec<SnapshotPoint>) -> Self {
        BenchSnapshot {
            schema_version: SCHEMA_VERSION,
            label: label.into(),
            machine: MachineProfile::current(),
            points,
        }
    }

    /// Serializes the snapshot to its pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        Json::Object(vec![
            ("schema_version".into(), Json::UInt(self.schema_version)),
            ("label".into(), Json::Str(self.label.clone())),
            ("machine".into(), self.machine.to_json()),
            (
                "points".into(),
                Json::Array(self.points.iter().map(SnapshotPoint::to_json).collect()),
            ),
        ])
        .to_pretty_string()
    }

    /// Parses a snapshot document.
    ///
    /// Unknown fields are ignored (forward compatibility); a missing or
    /// unsupported `schema_version` is an error.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first problem: malformed JSON, a
    /// wrong schema version, or a missing/invalid required field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let json = parse_json(text)?;
        let version = json
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("snapshot: missing or invalid field 'schema_version'")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "snapshot: unsupported schema_version {version} (this binary reads \
                 version {SCHEMA_VERSION})"
            ));
        }
        let machine = MachineProfile::from_json(
            json.get("machine")
                .ok_or("snapshot: missing field 'machine'")?,
        )?;
        let points = json
            .get("points")
            .and_then(Json::as_array)
            .ok_or("snapshot: missing or invalid field 'points'")?
            .iter()
            .map(SnapshotPoint::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchSnapshot {
            schema_version: version,
            label: require_str(&json, "label", "snapshot")?,
            machine,
            points,
        })
    }
}

fn require_str(json: &Json, key: &str, context: &str) -> Result<String, String> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{context}: missing or invalid field '{key}'"))
}

fn require_u64(json: &Json, key: &str, context: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{context}: missing or invalid field '{key}'"))
}

fn require_f64(json: &Json, key: &str, context: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{context}: missing or invalid field '{key}'"))
}

// ---------------------------------------------------------------------------
// Point recorder
// ---------------------------------------------------------------------------

struct RecorderState {
    armed: bool,
    points: Vec<SnapshotPoint>,
}

fn recorder() -> &'static Mutex<RecorderState> {
    static RECORDER: OnceLock<Mutex<RecorderState>> = OnceLock::new();
    RECORDER.get_or_init(|| {
        Mutex::new(RecorderState {
            armed: false,
            points: Vec::new(),
        })
    })
}

/// Arms the process-wide snapshot recorder: from now on every
/// [`crate::runner::run_point`] appends its measurement as a
/// [`SnapshotPoint`]. The `repro` binary arms it when `--snapshot` is
/// given, runs the requested experiments, then drains with
/// [`take_recorded`] — so snapshot capture rides along the normal sweep at
/// zero extra measurement cost.
pub fn arm_recorder() {
    let mut state = recorder().lock().expect("snapshot recorder poisoned");
    state.armed = true;
    state.points.clear();
}

/// Whether the recorder is currently armed.
pub fn recorder_armed() -> bool {
    recorder().lock().expect("snapshot recorder poisoned").armed
}

/// Appends a point if the recorder is armed (no-op otherwise).
pub fn record_point(point: SnapshotPoint) {
    let mut state = recorder().lock().expect("snapshot recorder poisoned");
    if state.armed {
        state.points.push(point);
    }
}

/// Disarms the recorder and returns everything recorded since
/// [`arm_recorder`].
pub fn take_recorded() -> Vec<SnapshotPoint> {
    let mut state = recorder().lock().expect("snapshot recorder poisoned");
    state.armed = false;
    std::mem::take(&mut state.points)
}

// ---------------------------------------------------------------------------
// Diff gates
// ---------------------------------------------------------------------------

/// Per-metric tolerances of the diff gates.
///
/// The defaults are sized for quick-profile points on a shared container
/// (run-to-run jitter of ±10–20 % is normal; EXPERIMENTS.md records the
/// noise floor): the gates exist to catch real regressions — a 30 % drop
/// trips the default throughput gate — not scheduler variance.
#[derive(Clone, Copy, Debug)]
pub struct GateTolerances {
    /// Throughput gate: `current ≥ throughput × baseline` must hold.
    pub throughput: f64,
    /// Wait-share gate: `current ≤ baseline + wait_share_slack` (absolute).
    pub wait_share_slack: f64,
    /// Abort gate factor: `current ≤ baseline × abort_factor + abort_slack`.
    pub abort_factor: f64,
    /// Abort gate additive slack.
    pub abort_slack: f64,
}

impl Default for GateTolerances {
    fn default() -> Self {
        GateTolerances {
            throughput: 0.75,
            wait_share_slack: 0.10,
            abort_factor: 1.5,
            abort_slack: 0.05,
        }
    }
}

impl GateTolerances {
    /// Returns a copy with a different throughput tolerance (the knob the
    /// CI gate loosens for cross-machine single-thread comparisons).
    pub fn with_throughput(mut self, throughput: f64) -> Self {
        self.throughput = throughput;
        self
    }
}

/// Diffs `current` against `baseline` point-by-point under `tolerances`.
///
/// Points are matched by [`SnapshotPoint::key`]; repeated keys (the
/// granularity sweeps measure identical configurations more than once) are
/// paired by occurrence order. Baseline points absent from the current
/// snapshot — and vice versa — are surfaced as loud skip lines, never
/// failures, so experiment-set evolution does not break the gate.
///
/// When the machine profiles are not [`MachineProfile::comparable`], every
/// multi-thread gate is skipped as vacuous (one loud summary line plus a
/// per-point skip line) and only single-thread points remain gated: a
/// 1-thread run has no parallelism to invert, so its regressions are
/// meaningful across machines, while multi-thread numbers are not.
pub fn diff_snapshots(
    baseline: &BenchSnapshot,
    current: &BenchSnapshot,
    tolerances: &GateTolerances,
) -> ShapeReport {
    let mut report = ShapeReport::with_title(format!(
        "Perf-snapshot diff: '{}' (baseline) vs '{}'",
        baseline.label, current.label
    ));

    let comparable = baseline.machine.comparable(&current.machine);
    if comparable {
        report.record(Ok(format!(
            "machine profiles match ({} cores, {}, debug_assertions={})",
            baseline.machine.cores, baseline.machine.arch, baseline.machine.debug_assertions
        )));
    } else {
        report.record(Ok(format!(
            "MACHINE PROFILES DIFFER ({}) — multi-thread gates are vacuous and \
             SKIPPED; only single-thread points are gated",
            baseline.machine.mismatch_description(&current.machine)
        )));
    }

    // Pair the k-th occurrence of a key in the baseline with the k-th in
    // the current snapshot (both sweeps emit points in experiment order).
    let mut matched_current: Vec<bool> = vec![false; current.points.len()];
    let mut matched_pairs = 0usize;
    for base_point in &baseline.points {
        let key = base_point.key();
        let candidate = current
            .points
            .iter()
            .enumerate()
            .find(|(i, p)| !matched_current[*i] && p.key() == key);
        let Some((index, cur_point)) = candidate else {
            report.record(Ok(format!(
                "{base_point}: skipped — point only in baseline snapshot"
            )));
            continue;
        };
        matched_current[index] = true;
        matched_pairs += 1;
        if !comparable && base_point.threads > 1 {
            report.record(Ok(format!(
                "{base_point}: skipped — vacuous under differing machine profiles \
                 (multi-thread point)"
            )));
            continue;
        }
        let label = base_point.to_string();
        report.record(check_self_throughput(
            &label,
            base_point.throughput,
            cur_point.throughput,
            tolerances.throughput,
        ));
        report.record(check_self_wait_share(
            &label,
            base_point.wait_share,
            cur_point.wait_share,
            tolerances.wait_share_slack,
        ));
        report.record(check_self_abort_ratio(
            &label,
            base_point.abort_ratio(),
            cur_point.abort_ratio(),
            tolerances.abort_factor,
            tolerances.abort_slack,
        ));
    }
    for (index, matched) in matched_current.iter().enumerate() {
        if !matched {
            report.record(Ok(format!(
                "{}: skipped — point only in current snapshot",
                current.points[index]
            )));
        }
    }
    if matched_pairs == 0 {
        report.record(Ok(
            "no common points between the snapshots — every gate was vacuous".to_string(),
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(benchmark: &str, stm: &str, threads: u64, throughput: f64) -> SnapshotPoint {
        SnapshotPoint {
            benchmark: benchmark.into(),
            stm: stm.into(),
            threads,
            seed: 7,
            profile: "quick".into(),
            clock: "strict".into(),
            table_layout: "flat".into(),
            grain_shift: 1,
            elapsed_secs: 0.2,
            operations: 1000,
            commits: 1000,
            aborts: 10,
            throughput,
            wait_share: 0.02,
            backoff_share: 0.01,
        }
    }

    fn snapshot(label: &str, points: Vec<SnapshotPoint>) -> BenchSnapshot {
        BenchSnapshot {
            schema_version: SCHEMA_VERSION,
            label: label.into(),
            machine: MachineProfile {
                cores: 4,
                kernel: "6.0-test".into(),
                os: "linux".into(),
                arch: "x86_64".into(),
                debug_assertions: false,
            },
            points,
        }
    }

    #[test]
    fn json_value_accessors() {
        let json = parse_json(r#"{"a": 1, "b": [true, null], "c": "x", "d": 1.5}"#).unwrap();
        assert_eq!(json.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(json.get("d").unwrap().as_f64(), Some(1.5));
        assert_eq!(json.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(json.get("b").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            json.get("b").unwrap().as_array().unwrap()[0].as_bool(),
            Some(true)
        );
        assert!(json.get("missing").is_none());
        assert!(Json::Null.get("a").is_none());
    }

    #[test]
    fn writer_escapes_and_parser_unescapes() {
        let original =
            Json::Str("quote \" backslash \\ newline \n tab \t nul \u{0001} é 💡".into());
        let text = original.to_pretty_string();
        assert!(text.contains("\\\""), "{text}");
        assert!(text.contains("\\\\"), "{text}");
        assert!(text.contains("\\n"), "{text}");
        assert!(text.contains("\\u0001"), "{text}");
        assert_eq!(parse_json(&text).unwrap(), original);
    }

    #[test]
    fn parser_handles_unicode_escapes_and_surrogate_pairs() {
        assert_eq!(parse_json(r#""éA""#).unwrap(), Json::Str("éA".into()));
        // 💡 is U+1F4A1 = surrogate pair D83D DCA1.
        assert_eq!(parse_json(r#""💡""#).unwrap(), Json::Str("💡".into()));
        assert!(parse_json(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse_json(r#""\udca1""#).is_err(), "lone low surrogate");
        assert!(parse_json(r#""\ud83dA""#).is_err(), "bad low half");
        assert!(parse_json(r#""\uZZZZ""#).is_err(), "bad hex");
    }

    #[test]
    fn numbers_round_trip_exactly() {
        // Full-range u64 stays bit-exact.
        let json = Json::UInt(u64::MAX);
        assert_eq!(parse_json(&json.to_pretty_string()).unwrap(), json);
        // Integer-looking floats keep their float-ness through `.0`.
        let json = Json::Float(2.0);
        let text = json.to_pretty_string();
        assert!(text.starts_with("2.0"), "{text}");
        assert_eq!(parse_json(&text).unwrap(), json);
        // Shortest-round-trip decimals come back bit-exact.
        for x in [0.1, 1e300, -3.25e-9, f64::MIN_POSITIVE, -0.0] {
            let json = Json::Float(x);
            assert_eq!(parse_json(&json.to_pretty_string()).unwrap(), json);
        }
        // Numbers beyond u64 fall back to float instead of failing.
        assert!(matches!(
            parse_json("18446744073709551616").unwrap(),
            Json::Float(_)
        ));
        // Negative integers parse as floats (the schema never writes them).
        assert_eq!(parse_json("-5").unwrap(), Json::Float(-5.0));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "\"bad \\q escape\"",
            "nul",
            "1e999",
            "-",
            "\u{0007}",
        ] {
            assert!(parse_json(bad).is_err(), "must reject {bad:?}");
        }
        // Depth bomb: one past the limit fails, the limit itself is fine.
        let deep_ok = format!(
            "{}1{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(parse_json(&deep_ok).is_ok());
        let deep_bad = format!(
            "{}1{}",
            "[".repeat(MAX_JSON_DEPTH + 1),
            "]".repeat(MAX_JSON_DEPTH + 1)
        );
        assert!(parse_json(&deep_bad).is_err());
    }

    #[test]
    fn snapshot_document_round_trips() {
        let snap = snapshot("base", vec![point("rbtree", "SwissTM", 2, 5000.0)]);
        let text = snap.to_json_string();
        assert_eq!(BenchSnapshot::parse(&text).unwrap(), snap);
    }

    #[test]
    fn parse_tolerates_unknown_fields_and_missing_bench() {
        let text = r#"{
            "schema_version": 1,
            "label": "fwd",
            "future_field": {"nested": [1, 2, {"deep": true}]},
            "machine": {"cores": 2, "kernel": "k", "os": "linux",
                        "arch": "x86_64", "debug_assertions": false,
                        "numa_nodes": 2},
            "points": [{"benchmark": "rb", "stm": "SwissTM", "threads": 2,
                        "seed": 7, "profile": "quick", "clock": "strict",
                        "table_layout": "flat", "pin": "none", "grain_shift": 1,
                        "elapsed_secs": 0.2, "operations": 1000,
                        "commits": 1000, "aborts": 10, "throughput": 5000.0,
                        "wait_share": 0.02, "backoff_share": 0.01}]
        }"#;
        let snap = BenchSnapshot::parse(text).expect("unknown fields must be ignored");
        assert_eq!(snap.label, "fwd");
        assert_eq!(snap.machine.cores, 2);
        // A point written with the retired `pin` field still reads, and keys
        // like one written without it.
        assert_eq!(snap.points, vec![point("rb", "SwissTM", 2, 5000.0)]);
    }

    #[test]
    fn parse_rejects_wrong_schema_version_and_missing_fields() {
        let wrong_version = r#"{"schema_version": 2, "label": "x",
            "machine": {"cores": 1, "kernel": "k", "os": "l", "arch": "a",
                        "debug_assertions": true},
            "points": []}"#;
        let message = BenchSnapshot::parse(wrong_version).unwrap_err();
        assert!(message.contains("schema_version 2"), "{message}");
        let missing_machine = r#"{"schema_version": 1, "label": "x", "points": []}"#;
        assert!(BenchSnapshot::parse(missing_machine).is_err());
    }

    #[test]
    fn sanitize_clamps_non_finite() {
        assert_eq!(sanitize_f64(f64::NAN), 0.0);
        assert_eq!(sanitize_f64(f64::INFINITY), 0.0);
        assert_eq!(sanitize_f64(1.5), 1.5);
    }

    #[test]
    fn recorder_is_disarmed_by_default_and_drains() {
        assert!(!recorder_armed());
        record_point(point("never", "recorded", 1, 1.0));
        arm_recorder();
        record_point(point("rb", "SwissTM", 1, 10.0));
        record_point(point("rb", "SwissTM", 2, 20.0));
        let drained = take_recorded();
        assert_eq!(drained.len(), 2, "the unarmed point must not appear");
        assert!(!recorder_armed());
        assert!(take_recorded().is_empty());
    }

    #[test]
    fn diff_of_identical_snapshots_passes() {
        let snap = snapshot(
            "base",
            vec![
                point("rb", "SwissTM", 1, 1000.0),
                point("rb", "SwissTM", 2, 1800.0),
            ],
        );
        let report = diff_snapshots(&snap, &snap, &GateTolerances::default());
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn duplicate_keys_pair_by_occurrence() {
        // The same configuration measured twice (granularity-sweep style):
        // the second occurrence regressed, and the failure must surface
        // even though the first occurrence is fine.
        let base = snapshot(
            "base",
            vec![
                point("rb", "SwissTM", 1, 1000.0),
                point("rb", "SwissTM", 1, 1000.0),
            ],
        );
        let cur = snapshot(
            "cur",
            vec![
                point("rb", "SwissTM", 1, 1000.0),
                point("rb", "SwissTM", 1, 100.0),
            ],
        );
        let report = diff_snapshots(&base, &cur, &GateTolerances::default());
        assert_eq!(report.failures.len(), 1, "{report}");
    }

    #[test]
    fn profile_mismatch_skips_multithread_gates_but_keeps_single_thread() {
        let base = snapshot(
            "1core-box",
            vec![
                point("rb", "SwissTM", 1, 1000.0),
                point("rb", "SwissTM", 4, 4000.0),
            ],
        );
        let mut cur = snapshot(
            "8core-box",
            vec![
                point("rb", "SwissTM", 1, 1000.0),
                // Collapsed multi-thread throughput: must NOT fail the
                // gate, because the machines differ.
                point("rb", "SwissTM", 4, 10.0),
            ],
        );
        cur.machine.cores = 8;
        let report = diff_snapshots(&base, &cur, &GateTolerances::default());
        assert!(report.passed(), "{report}");
        let rendered = report.to_string();
        assert!(rendered.contains("MACHINE PROFILES DIFFER"), "{rendered}");
        assert!(rendered.contains("cores 4 vs 8"), "{rendered}");
        assert!(
            rendered.contains("vacuous under differing machine profiles"),
            "{rendered}"
        );

        // The single-thread point stays gated: regress it and the diff
        // must fail even across machines.
        cur.points[0].throughput = 100.0;
        let report = diff_snapshots(&base, &cur, &GateTolerances::default());
        assert!(!report.passed(), "{report}");
        assert!(
            report.failures[0].contains("rb × SwissTM × 1 threads"),
            "{report}"
        );
    }

    #[test]
    fn debug_assertions_mismatch_also_voids_multithread_gates() {
        let base = snapshot("release", vec![point("rb", "TL2", 2, 2000.0)]);
        let mut cur = snapshot("debug", vec![point("rb", "TL2", 2, 200.0)]);
        cur.machine.debug_assertions = true;
        let report = diff_snapshots(&base, &cur, &GateTolerances::default());
        assert!(report.passed(), "{report}");
        assert!(
            report
                .to_string()
                .contains("debug_assertions false vs true"),
            "{report}"
        );
    }

    #[test]
    fn unmatched_points_skip_loudly_instead_of_failing() {
        let base = snapshot("base", vec![point("only-old", "SwissTM", 1, 1000.0)]);
        let cur = snapshot("cur", vec![point("only-new", "TL2", 1, 1000.0)]);
        let report = diff_snapshots(&base, &cur, &GateTolerances::default());
        assert!(report.passed(), "{report}");
        let rendered = report.to_string();
        assert!(rendered.contains("only in baseline snapshot"), "{rendered}");
        assert!(rendered.contains("only in current snapshot"), "{rendered}");
        assert!(rendered.contains("every gate was vacuous"), "{rendered}");
    }
}
