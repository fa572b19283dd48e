//! Metric names, result shapes, JSON in and out, and the `compare`
//! report. No first-party calls.

use crate::stats;
use serde::Value;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
/// Every workload reports every one of them (what each means on a given
/// workload is in `README.md`).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("throughput_kops", "kops/s"), ("latency_p50_us", "us"), ("wa", "ratio")];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 87] = [
    ("trace.gen_ns_per_rec", "ns"),
    ("array.kernels.xor_gibs", "GiB/s"),
    ("array.kernels.gf_mul_gibs", "GiB/s"),
    ("array.kernels.crc32c_gibs", "GiB/s"),
    ("array.kernels.rs_encode_gibs", "GiB/s"),
    ("array.kernels.rs_recover_gibs", "GiB/s"),
    ("array.sink.write_calls", "count"),
    ("array.sink.write_ns_per_chunk", "ns"),
    ("array.sink.read_calls", "count"),
    ("array.sink.read_ns_per_chunk", "ns"),
    ("array.sink.sync_calls", "count"),
    ("array.sink.sync_ns_per_call", "ns"),
    ("array.sink.busy_share", "ratio"),
    ("array.sink.copy_bytes_per_host_byte", "ratio"),
    ("array.store.write_gibs", "GiB/s"),
    ("array.store.verify_read_gibs", "GiB/s"),
    ("array.store.degraded_read_gibs", "GiB/s"),
    ("array.store.rebuild_gibs", "GiB/s"),
    ("array.store.scrub_stripes_per_s", "1/s"),
    ("core.policy.place_user_ns", "ns"),
    ("core.policy.place_gc_ns", "ns"),
    ("core.policy.sla_expire_ns", "ns"),
    ("core.policy.lifecycle_ns", "ns"),
    ("core.policy.calls", "count"),
    ("core.policy.busy_share", "ratio"),
    ("core.policy.mem_bytes", "B"),
    ("core.policy.shadow_share", "ratio"),
    ("placement.sepbit.replay_kops", "kops/s"),
    ("placement.sepgc.replay_kops", "kops/s"),
    ("lss.engine.write_ns_per_op", "ns"),
    ("lss.engine.read_ns_per_op", "ns"),
    ("lss.engine.trim_ns_per_op", "ns"),
    ("lss.engine.flush_all_ns", "ns"),
    ("lss.engine.self_ns_per_op", "ns"),
    ("lss.engine.self_share", "ratio"),
    ("lss.engine.gc_select_share", "ratio"),
    ("lss.engine.op_p50_ns", "ns"),
    ("lss.engine.op_p999_us", "us"),
    ("lss.engine.gc_passes", "count"),
    ("lss.engine.blocks_migrated", "count"),
    ("lss.engine.segments_reclaimed", "count"),
    ("lss.engine.chunks_flushed", "count"),
    ("lss.engine.padded_chunks", "count"),
    ("lss.engine.shadow_bytes", "B"),
    ("lss.engine.buffer_read_share", "ratio"),
    ("lss.engine.index_bytes_per_block", "B"),
    ("lss.engine.mem_bytes_per_block", "B"),
    ("lss.engine.pad_ratio", "ratio"),
    ("lss.engine.read_amp", "ratio"),
    ("lss.wal.records_appended", "count"),
    ("lss.wal.bytes_per_host_byte", "ratio"),
    ("lss.wal.syncs", "count"),
    ("lss.wal.checkpoints", "count"),
    ("lss.wal.checkpoint_ms", "ms"),
    ("lss.wal.append_commit_ns_per_rec", "ns"),
    ("lss.wal.replay_krecs_per_s", "krec/s"),
    ("lss.recover.cold_ms", "ms"),
    ("lss.recover.records_applied", "count"),
    ("lss.recover.flushes_replayed", "count"),
    ("serve.client.submit_ns", "ns"),
    ("serve.client.busy_rejects", "count"),
    ("serve.client.rtt_p50_us", "us"),
    ("serve.client.write_p99_us", "us"),
    ("serve.client.write_ptail_us", "us"),
    ("serve.client.write_ptail_pct", "%"),
    ("serve.client.write_samples", "count"),
    ("serve.client.read_p50_us", "us"),
    ("serve.client.gen_lag_max_us", "us"),
    ("serve.client.rate_ok_kops", "kops/s"),
    ("serve.router.locate_ns", "ns"),
    ("serve.qos.admit_ns", "ns"),
    ("serve.shard.busy_ns_per_op", "ns"),
    ("serve.shard.engine_ns_per_op", "ns"),
    ("serve.shard.sync_ns_per_op", "ns"),
    ("serve.shard.gc_ns_per_op", "ns"),
    ("serve.shard.probe_ns_per_op", "ns"),
    ("serve.shard.self_ns_per_op", "ns"),
    ("serve.shard.self_share", "ratio"),
    ("serve.shard.idle_share", "ratio"),
    ("serve.shard.ops_per_apply", "count"),
    ("serve.shard.ops_per_sync", "count"),
    ("serve.shard.queue_wait_p50_us", "us"),
    ("serve.shard.commit_wait_p50_us", "us"),
    ("bench.timer_ns", "ns"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("bench.fail_share", "ratio"),
];

pub const WORKLOADS: [&str; 5] =
    ["replay-dense", "replay-sparse", "array-rebuild", "serve-mem", "serve-durable"];

/// Outcome of the output checks: operations attempted, operations (or
/// checks) failed, and why.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Verdict {
    /// Count one failed check (kept to a readable number of messages).
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg.into());
        }
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(msg());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// What an untraced run of one workload measured: per-repetition values
/// of the timed end-to-end metrics, and the exact ones.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub throughput_kops: Vec<f64>,
    pub latency_p50_us: Vec<f64>,
    pub wa: f64,
    pub verdict: Verdict,
    /// Sizes, sample counts, policies: context a reader needs.
    pub info: Vec<(String, Value)>,
}

/// What a traced run measured.
#[derive(Debug, Default)]
pub struct PerLayer {
    pub metrics: BTreeMap<&'static str, f64>,
    pub verdict: Verdict,
    pub info: Vec<(String, Value)>,
}

impl PerLayer {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.metrics.insert(name, if value.is_finite() { value } else { 0.0 });
    }
}

/// Collects one value per traced repetition; the median is reported.
#[derive(Debug, Default)]
pub struct Medians(BTreeMap<&'static str, Vec<f64>>);

impl Medians {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
}

impl PerLayer {
    /// Take the medians of what the traced repetitions measured, and stamp
    /// the verdict's failure share.
    pub fn finish(&mut self, m: Medians) {
        for (name, mut v) in m.0 {
            self.set(name, stats::median(&mut v));
        }
        let share = self.verdict.failed as f64 / self.verdict.attempted.max(1) as f64;
        self.set("bench.fail_share", share);
    }
}

fn obj(entries: Vec<(String, Value)>) -> Value {
    Value::Object(entries)
}

fn metric(value: f64, unit: &str) -> Value {
    obj(vec![("value".into(), Value::Float(value)), ("unit".into(), Value::Str(unit.into()))])
}

fn summary(v: &[f64], unit: &str) -> Value {
    let mut s = v.to_vec();
    let med = stats::median(&mut s);
    obj(vec![
        ("value".into(), Value::Float(med)),
        ("unit".into(), Value::Str(unit.into())),
        ("min".into(), Value::Float(s.first().copied().unwrap_or(f64::NAN))),
        ("max".into(), Value::Float(s.last().copied().unwrap_or(f64::NAN))),
        ("reps".into(), Value::UInt(s.len() as u64)),
    ])
}

impl EndToEnd {
    fn series(&self) -> [(&'static str, &'static str, Vec<f64>); 4] {
        let [s, t, l, w] = END_TO_END;
        [
            (s.0, s.1, self.setup_s.clone()),
            (t.0, t.1, self.throughput_kops.clone()),
            (l.0, l.1, self.latency_p50_us.clone()),
            (w.0, w.1, vec![self.wa]),
        ]
    }

    /// `{"name": {"value", "unit"}}` — medians, for the driver's line.
    pub fn metrics_value(&self) -> Value {
        obj(self
            .series()
            .into_iter()
            .map(|(n, u, mut v)| (n.to_string(), metric(stats::median(&mut v), u)))
            .collect())
    }

    /// Medians with min/max and repetition counts, for the result file.
    pub fn detail_value(&self) -> Value {
        obj(self.series().into_iter().map(|(n, u, v)| (n.to_string(), summary(&v, u))).collect())
    }
}

impl PerLayer {
    /// Every per-layer metric, 0 where the workload does not exercise it.
    pub fn metrics_value(&self) -> Value {
        obj(PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), metric(self.metrics.get(n).copied().unwrap_or(0.0), u)))
            .collect())
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn driver_line(v: &Verdict, metrics: Value) -> String {
    let line = obj(vec![
        ("correct".into(), Value::Bool(v.correct())),
        ("attempted".into(), Value::UInt(v.attempted.max(1))),
        ("failed".into(), Value::UInt(v.failed)),
        ("metrics".into(), metrics),
    ]);
    serde_json::to_string(&line).expect("value tree serializes")
}

// ---------------------------------------------------------------------
// JSON reader (the vendored serde_json only writes)
// ---------------------------------------------------------------------

/// Parse JSON text into the vendored `serde::Value` tree.
pub fn parse_json(text: &str) -> Result<Value, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected `{lit}` at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.i += 1;
                let mut out = Vec::new();
                loop {
                    self.ws();
                    if self.eat("}") {
                        return Ok(Value::Object(out));
                    }
                    if !out.is_empty() {
                        self.expect(",")?;
                        self.ws();
                    }
                    let key = self.string()?;
                    self.ws();
                    self.expect(":")?;
                    out.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut out = Vec::new();
                loop {
                    self.ws();
                    if self.eat("]") {
                        return Ok(Value::Array(out));
                    }
                    if !out.is_empty() {
                        self.expect(",")?;
                    }
                    out.push(self.value()?);
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.i += 1;
                }
                let tok = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                if let Ok(u) = tok.parse::<u64>() {
                    Ok(Value::UInt(u))
                } else if let Ok(i) = tok.parse::<i64>() {
                    Ok(Value::Int(i))
                } else {
                    tok.parse::<f64>()
                        .map(Value::Float)
                        .map_err(|_| format!("bad number `{tok}` at offset {start}"))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = Vec::new();
        loop {
            let b = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend_from_slice(code.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Worse,
    Unresolved,
}

/// One side of a comparison row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// The rule of choosing-metrics §6.5: `worse` when b's median is worse
/// than a's by more than the bound; `unresolved` when it is not but the
/// spread of either side is wider than the bound and the ranges overlap
/// (the data cannot show "unchanged"); otherwise `ok`.
pub fn judge(a: Side, b: Side, higher_is_better: bool, bound: f64) -> Status {
    let worse_by = if higher_is_better {
        (a.median - b.median) / a.median
    } else {
        (b.median - a.median) / a.median
    };
    if worse_by > bound {
        return Status::Worse;
    }
    let spread = |s: Side| (s.max - s.min) / s.median.abs();
    let overlap = a.min <= b.max && b.min <= a.max;
    let b_always_better = if higher_is_better { b.min > a.max } else { b.max < a.min };
    if (spread(a) > bound || spread(b) > bound) && overlap && !b_always_better {
        Status::Unresolved
    } else {
        Status::Ok
    }
}

fn side(v: &Value) -> Option<Side> {
    let median = as_f64(get(v, "value")?)?;
    let min = get(v, "min").and_then(as_f64).unwrap_or(median);
    let max = get(v, "max").and_then(as_f64).unwrap_or(median);
    Some(Side { median, min, max })
}

/// `(name, higher_is_better, bound)` per end-to-end metric, read from
/// `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let v = parse_json(benchmark_json)?;
    let Some(Value::Array(list)) = get(&v, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            let name = match get(m, "name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("metric without a name".to_string()),
            };
            let higher = matches!(get(m, "better"), Some(Value::Str(s)) if s == "higher");
            let bound = get(m, "bound").and_then(as_f64).ok_or("metric without a bound")?;
            Ok((name, higher, bound))
        })
        .collect()
}

/// One row per (workload, end-to-end metric) of two result files.
/// Returns the table and whether any row is `worse`.
pub fn compare(
    a: &Value,
    b: &Value,
    bounds: &[(String, bool, f64)],
) -> Result<(String, bool), String> {
    let workloads = |v: &Value| match get(v, "workloads") {
        Some(Value::Object(w)) => Ok(w.clone()),
        _ => Err("result file has no workloads object".to_string()),
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut table = format!(
        "{:<14} {:<16} {:>12} {:>12} {:>9} {:>7}  {:<10} a[min..max] / b[min..max]\n",
        "workload", "metric", "a median", "b median", "b/a", "bound", "status"
    );
    let mut any_worse = false;
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            table.push_str(&format!("{name:<14} missing from b\n"));
            any_worse = true;
            continue;
        };
        for (metric, higher, bound) in bounds {
            let pick = |r: &Value| get(r, "end_to_end").and_then(|e| get(e, metric)).and_then(side);
            let (Some(sa), Some(sb)) = (pick(ra), pick(rb)) else {
                table.push_str(&format!("{name:<14} {metric:<16} missing\n"));
                any_worse = true;
                continue;
            };
            let status = judge(sa, sb, *higher, *bound);
            any_worse |= status == Status::Worse;
            table.push_str(&format!(
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>9.4} {:>6.1}%  {:<10} [{:.4}..{:.4}] / [{:.4}..{:.4}]\n",
                name,
                metric,
                sa.median,
                sb.median,
                sb.median / sa.median,
                bound * 100.0,
                match status {
                    Status::Ok => "ok",
                    Status::Worse => "worse",
                    Status::Unresolved => "unresolved",
                },
                sa.min,
                sa.max,
                sb.min,
                sb.max
            ));
        }
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_through_the_vendored_writer() {
        let text = r#"{"a": [1, -2, 3.5e0, true, null], "s": "x\"y\nA", "o": {}}"#;
        let v = parse_json(text).unwrap();
        assert_eq!(get(&v, "s"), Some(&Value::Str("x\"y\nA".into())));
        assert_eq!(
            get(&v, "a"),
            Some(&Value::Array(vec![
                Value::UInt(1),
                Value::Int(-2),
                Value::Float(3.5),
                Value::Bool(true),
                Value::Null
            ]))
        );
        let again = parse_json(&serde_json::to_string_pretty(&v).unwrap()).unwrap();
        assert_eq!(again, v);
        assert!(parse_json("{\"a\": 1} x").is_err());
        assert!(parse_json("[1, 2").is_err());
    }

    #[test]
    fn judge_separates_worse_unresolved_ok() {
        let s = |median: f64, min: f64, max: f64| Side { median, min, max };
        // Throughput down 20 % against a 10 % bound.
        assert_eq!(judge(s(100.0, 99.0, 101.0), s(80.0, 79.0, 81.0), true, 0.10), Status::Worse);
        // Latency up 20 %.
        assert_eq!(judge(s(10.0, 9.9, 10.1), s(12.0, 11.9, 12.1), false, 0.10), Status::Worse);
        // Within bound, tight spreads.
        assert_eq!(judge(s(100.0, 99.0, 101.0), s(97.0, 96.0, 98.0), true, 0.10), Status::Ok);
        // Within bound but a's runs span 30 % and the ranges overlap.
        assert_eq!(
            judge(s(100.0, 85.0, 115.0), s(97.0, 96.0, 98.0), true, 0.10),
            Status::Unresolved
        );
        // Wide spread, yet every run of b beats every run of a.
        assert_eq!(judge(s(100.0, 85.0, 115.0), s(130.0, 120.0, 140.0), true, 0.10), Status::Ok);
        // Exact metrics: bit-equal is ok at bound 0, any rise is worse.
        assert_eq!(judge(s(1.5, 1.5, 1.5), s(1.5, 1.5, 1.5), false, 0.0), Status::Ok);
        assert_eq!(judge(s(1.5, 1.5, 1.5), s(1.5001, 1.5001, 1.5001), false, 0.0), Status::Worse);
    }

    #[test]
    fn compare_flags_the_worse_row_only() {
        let file = |kops: f64| {
            parse_json(&format!(
                r#"{{"workloads": {{"w": {{"end_to_end": {{
                    "throughput_kops": {{"value": {kops}, "min": {kops}, "max": {kops}}},
                    "wa": {{"value": 2.0}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let bounds =
            vec![("throughput_kops".to_string(), true, 0.1), ("wa".to_string(), false, 0.02)];
        let (table, worse) = compare(&file(100.0), &file(80.0), &bounds).unwrap();
        assert!(worse);
        assert_eq!(table.matches("worse").count(), 1);
        assert_eq!(table.matches(" ok ").count(), 1);
        let (_, worse) = compare(&file(100.0), &file(99.0), &bounds).unwrap();
        assert!(!worse);
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let v = parse_json(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Array(items)) = get(&v, key) else { panic!("no {key}") };
            items
                .iter()
                .map(|m| match (get(m, "name"), get(m, "unit")) {
                    (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("{key} entry without name/unit"),
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let Some(Value::Array(w)) = get(&v, "workloads") else { panic!("no workloads") };
        let names: Vec<_> = w.iter().map(|x| get(x, "name").cloned()).collect();
        let want: Vec<_> = WORKLOADS.iter().map(|n| Some(Value::Str(n.to_string()))).collect();
        assert_eq!(names, want);
        assert_eq!(bounds(&text).unwrap().len(), END_TO_END.len());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let e = EndToEnd {
            setup_s: vec![0.5, 0.7, 0.6],
            throughput_kops: vec![10.0, 30.0, 20.0],
            latency_p50_us: vec![2.0],
            wa: 1.5,
            ..Default::default()
        };
        let line = driver_line(&e.verdict, e.metrics_value());
        let v = parse_json(&line).unwrap();
        let Value::Object(keys) = &v else { panic!() };
        let keys: Vec<_> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = get(&v, "metrics").unwrap();
        assert_eq!(get(get(m, "throughput_kops").unwrap(), "value"), Some(&Value::Float(20.0)));
        assert_eq!(get(get(m, "setup_s").unwrap(), "unit"), Some(&Value::Str("s".into())));
        let p = PerLayer::default();
        let Value::Object(all) = p.metrics_value() else { panic!() };
        assert_eq!(all.len(), PER_LAYER.len());
    }
}
