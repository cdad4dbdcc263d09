//! Property tests for the hand-rolled snapshot JSON layer: seeded-random
//! snapshots must survive writer → parser round trips bit-exactly,
//! including hostile strings, full-range `u64`s, exotic (but finite)
//! floats, and injected unknown fields (forward compatibility).

use stm_core::backoff::FastRng;
use stm_harness::snapshot::{
    parse_json, BenchSnapshot, Json, MachineProfile, SnapshotPoint, SCHEMA_VERSION,
};

/// A pool of characters chosen to stress the escaper: quotes, backslashes,
/// control characters, multi-byte UTF-8 and astral-plane code points.
const CHAR_POOL: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0000}', '\u{0001}', '\u{001f}', 'é',
    'ß', '中', '\u{2028}', '💡', '𝔘', '\u{fffd}',
];

fn arbitrary_string(rng: &mut FastRng) -> String {
    let len = rng.next_below(12) as usize;
    (0..len)
        .map(|_| CHAR_POOL[rng.next_below(CHAR_POOL.len() as u64) as usize])
        .collect()
}

/// A finite float with a wide dynamic range: full-range `u64` mantissa
/// scaled by powers of ten from 1e-30 to ~1e+30, occasionally negated or
/// zeroed. Never NaN/inf — the schema is NaN-free by construction.
fn arbitrary_float(rng: &mut FastRng) -> f64 {
    if rng.chance_percent(10) {
        return 0.0;
    }
    let mantissa = rng.next_u64() as f64;
    let scale = 10f64.powi(rng.next_below(61) as i32 - 30);
    let value = mantissa * scale;
    let value = if rng.chance_percent(30) {
        -value
    } else {
        value
    };
    assert!(value.is_finite());
    value
}

fn arbitrary_point(rng: &mut FastRng) -> SnapshotPoint {
    SnapshotPoint {
        benchmark: arbitrary_string(rng),
        stm: arbitrary_string(rng),
        threads: rng.next_below(64),
        // Full-range u64s: the seed field routinely holds hashes.
        seed: rng.next_u64(),
        profile: arbitrary_string(rng),
        clock: arbitrary_string(rng),
        table_layout: arbitrary_string(rng),
        grain_shift: rng.next_below(32),
        elapsed_secs: arbitrary_float(rng),
        operations: rng.next_u64(),
        commits: rng.next_u64(),
        aborts: rng.next_u64(),
        throughput: arbitrary_float(rng),
        wait_share: arbitrary_float(rng),
        backoff_share: arbitrary_float(rng),
    }
}

fn arbitrary_snapshot(rng: &mut FastRng) -> BenchSnapshot {
    let points = (0..rng.next_below(6))
        .map(|_| arbitrary_point(rng))
        .collect();
    BenchSnapshot {
        schema_version: SCHEMA_VERSION,
        label: arbitrary_string(rng),
        machine: MachineProfile {
            cores: rng.next_u64(),
            kernel: arbitrary_string(rng),
            os: arbitrary_string(rng),
            arch: arbitrary_string(rng),
            debug_assertions: rng.chance_percent(50),
        },
        points,
    }
}

#[test]
fn arbitrary_snapshots_round_trip_bit_exactly() {
    let mut rng = FastRng::new(0xB16_B00B5);
    for iteration in 0..200 {
        let snapshot = arbitrary_snapshot(&mut rng);
        let text = snapshot.to_json_string();
        let reparsed = BenchSnapshot::parse(&text)
            .unwrap_or_else(|e| panic!("iteration {iteration}: {e}\n{text}"));
        assert_eq!(reparsed, snapshot, "iteration {iteration}\n{text}");
    }
}

/// Injects unknown fields at every object level of a serialized snapshot
/// and asserts the parser still recovers the original — old binaries must
/// keep reading snapshots written by future schema extensions.
#[test]
fn round_trip_survives_injected_unknown_fields() {
    let mut rng = FastRng::new(0xF0F0_F0F0);
    for iteration in 0..50 {
        let snapshot = arbitrary_snapshot(&mut rng);
        let Json::Object(mut fields) = parse_json(&snapshot.to_json_string()).unwrap() else {
            panic!("snapshot documents are objects");
        };
        let noise = Json::Array(vec![
            Json::UInt(rng.next_u64()),
            Json::Str(arbitrary_string(&mut rng)),
            Json::Object(vec![("nested".into(), Json::Bool(true))]),
            Json::Null,
        ]);
        fields.push(("future_top_level".into(), noise.clone()));
        for (key, value) in fields.iter_mut() {
            match value {
                Json::Object(inner) if key == "machine" => {
                    inner.insert(0, ("future_machine_field".into(), noise.clone()));
                }
                Json::Array(items) => {
                    for item in items {
                        if let Json::Object(inner) = item {
                            inner.push(("future_item_field".into(), noise.clone()));
                        }
                    }
                }
                _ => {}
            }
        }
        let mutated = Json::Object(fields).to_pretty_string();
        let reparsed = BenchSnapshot::parse(&mutated)
            .unwrap_or_else(|e| panic!("iteration {iteration}: {e}\n{mutated}"));
        assert_eq!(reparsed, snapshot, "iteration {iteration}");
    }
}

/// Random mutations of valid documents must never panic the parser: every
/// outcome is either a clean parse or a clean error.
#[test]
fn parser_never_panics_on_mutated_documents() {
    let mut rng = FastRng::new(0xDEAD_BEEF);
    for _ in 0..100 {
        let snapshot = arbitrary_snapshot(&mut rng);
        let mut text = snapshot.to_json_string().into_bytes();
        if text.is_empty() {
            continue;
        }
        for _ in 0..1 + rng.next_below(4) {
            let index = rng.next_below(text.len() as u64) as usize;
            text[index] = (rng.next_below(128)) as u8;
        }
        // Lossy conversion keeps the input a &str even when a mutation
        // lands inside a multi-byte sequence.
        let mutated = String::from_utf8_lossy(&text);
        let _ = BenchSnapshot::parse(&mutated);
    }
}
