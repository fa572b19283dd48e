//! The repo benchmark. See `README.md` for the workloads, the metrics and
//! what each is expected to move.
//!
//! ```text
//! adapt-benchmark [--workload NAME] [--seed N] [--seconds S] [--quick]
//!     run the workloads (all five by default), untraced then traced; print
//!     every metric by name with its unit; write out/result.json
//! adapt-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run for the driver: the last line of stdout is the result JSON
//! adapt-benchmark compare A.json B.json
//!     one row per (workload, end-to-end metric); exit 1 on any `worse`
//! ```

mod array;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;
mod sut;

use report::{EndToEnd, PerLayer, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use spans::Span;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default `--seed`. The seed feeds only the input generators.
const DEFAULT_SEED: u64 = 0xADA7;
/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Spans written per trace file (the rest are counted, not written).
const MAX_SPANS_WRITTEN: usize = 100_000;

pub struct Params {
    pub seed: u64,
    /// How long the timed repetitions of one run go on.
    pub seconds: f64,
    /// Smoke mode: 1/16 sizes, one repetition, never backs a claim.
    pub quick: bool,
    /// Scratch and output directory (`benchmark/out`).
    pub out_dir: PathBuf,
}

impl Params {
    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    pub fn min_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

/// The benchmark's own generator for inputs the `trace` layer does not
/// make (payload bytes, trim targets).
pub struct SplitMix(pub u64);

impl SplitMix {
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn run_end_to_end(workload: &str, p: &Params) -> EndToEnd {
    match workload {
        "replay-dense" => replay::end_to_end(&replay::DENSE, p),
        "replay-sparse" => replay::end_to_end(&replay::SPARSE, p),
        "array-rebuild" => array::end_to_end(p),
        "serve-mem" => serve::end_to_end(&serve::MEM, p),
        "serve-durable" => serve::end_to_end(&serve::DURABLE, p),
        _ => unreachable!("workload names are validated by parse()"),
    }
}

fn run_per_layer(workload: &str, p: &Params) -> (PerLayer, Vec<Span>) {
    match workload {
        "replay-dense" => replay::per_layer(&replay::DENSE, p),
        "replay-sparse" => replay::per_layer(&replay::SPARSE, p),
        "array-rebuild" => array::per_layer(p),
        "serve-mem" => serve::per_layer(&serve::MEM, p),
        "serve-durable" => serve::per_layer(&serve::DURABLE, p),
        _ => unreachable!("workload names are validated by parse()"),
    }
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn write_file(path: &Path, v: &Value) -> Result<(), String> {
    let dir = path.parent().expect("file path has a parent");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let text = serde_json::to_string_pretty(v).expect("value tree serializes");
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `out/trace-<workload>.json`: the spans of the last traced repetition.
fn write_trace(p: &Params, workload: &str, spans: &[Span]) -> Result<(), String> {
    let written = spans.len().min(MAX_SPANS_WRITTEN);
    let rows = spans[..written]
        .iter()
        .map(|s| {
            obj(vec![
                ("name", Value::Str(s.kind.name().into())),
                ("id", Value::UInt(s.id as u64)),
                ("parent", Value::UInt(s.parent as u64)),
                (
                    "request",
                    if s.req == spans::NO_REQ { Value::Null } else { Value::UInt(s.req as u64) },
                ),
                ("start_ns", Value::UInt(s.start_ns)),
                ("end_ns", Value::UInt(s.end_ns)),
            ])
        })
        .collect();
    let v = obj(vec![
        ("workload", Value::Str(workload.into())),
        ("spans_recorded", Value::UInt(spans.len() as u64)),
        ("spans_written", Value::UInt(written as u64)),
        ("spans", Value::Array(rows)),
    ]);
    write_file(&p.out_dir.join(format!("trace-{workload}.json")), &v)
}

/// The commit of the enclosing git checkout, read from `.git` (the
/// driver's checkout has none).
fn git_commit(repo: &Path) -> String {
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(repo.join(".git/HEAD")) else { return "unknown".into() };
    match head.strip_prefix("ref: ") {
        Some(r) => read(repo.join(".git").join(r)).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

fn provenance(p: &Params, seconds_taken: f64) -> Value {
    let nproc = std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0);
    obj(vec![
        ("git_commit", Value::Str(git_commit(&p.out_dir.join("../..")))),
        ("cpu_features", Value::Str(sut::cpu_features())),
        ("nproc", Value::UInt(nproc)),
        ("seed", Value::UInt(p.seed)),
        ("seconds_per_run", Value::Float(p.seconds)),
        ("setups_per_run", Value::UInt(p.setups() as u64)),
        ("min_reps_per_run", Value::UInt(p.min_reps() as u64)),
        ("seconds_taken", Value::Float(seconds_taken)),
        ("flush_policy", Value::Str(sut::FLUSH_POLICY.into())),
    ])
}

fn print_errors(kind: &str, workload: &str, v: &report::Verdict) {
    for e in &v.errors {
        eprintln!("{workload} ({kind}): FAILED: {e}");
    }
}

/// Full mode: every selected workload, untraced then traced.
fn run_all(workloads: &[&str], p: &Params) -> Result<bool, String> {
    let t0 = std::time::Instant::now();
    let mut results = Vec::new();
    let mut all_ok = true;
    for &w in workloads {
        let e = run_end_to_end(w, p);
        print_errors("end to end", w, &e.verdict);
        println!("== {w}: end to end (medians of {} repetitions)", e.throughput_kops.len());
        let Value::Object(detail) = e.detail_value() else { unreachable!() };
        for (name, d) in &detail {
            let f = |k| report::get(d, k).and_then(report::as_f64).unwrap_or(f64::NAN);
            let unit = END_TO_END.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
            println!(
                "{name:<40} {:>16.4} {unit:<7} [min {:.4}, max {:.4}]",
                f("value"),
                f("min"),
                f("max")
            );
        }
        let (l, spans) = run_per_layer(w, p);
        print_errors("traced", w, &l.verdict);
        write_trace(p, w, &spans)?;
        println!("== {w}: per layer (traced repetition)");
        for (name, unit) in PER_LAYER {
            if let Some(v) = l.metrics.get(name) {
                println!("{name:<40} {v:>16.4} {unit}");
            }
        }
        let failed = e.verdict.failed + l.verdict.failed;
        let attempted = e.verdict.attempted + l.verdict.attempted;
        println!(
            "{:<40} {:>16.6} ratio   ({failed} of {attempted})",
            "fail_share",
            failed as f64 / attempted.max(1) as f64
        );
        all_ok &= failed == 0;
        results.push((
            w.to_string(),
            obj(vec![
                ("correct", Value::Bool(failed == 0)),
                ("attempted", Value::UInt(attempted)),
                ("failed", Value::UInt(failed)),
                ("end_to_end", e.detail_value()),
                ("per_layer", l.metrics_value()),
                ("info", Value::Object(e.info.into_iter().chain(l.info).collect())),
            ]),
        ));
    }
    let file = obj(vec![
        ("quick", Value::Bool(p.quick)),
        ("provenance", provenance(p, t0.elapsed().as_secs_f64())),
        ("workloads", Value::Object(results)),
    ]);
    let path = p.out_dir.join("result.json");
    write_file(&path, &file)?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

/// Driver mode: one workload, one trace setting, one result line.
fn run_one(workload: &str, trace: bool, p: &Params) -> Result<bool, String> {
    let (verdict, metrics) = if trace {
        let (l, spans) = run_per_layer(workload, p);
        write_trace(p, workload, &spans)?;
        let metrics = l.metrics_value();
        (l.verdict, metrics)
    } else {
        let e = run_end_to_end(workload, p);
        let metrics = e.metrics_value();
        (e.verdict, metrics)
    };
    print_errors(if trace { "traced" } else { "end to end" }, workload, &verdict);
    println!("{}", report::driver_line(&verdict, metrics));
    Ok(verdict.correct())
}

fn run_compare(a: &str, b: &str, manifest_dir: &Path) -> Result<bool, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| report::parse_json(&t))
    };
    let (va, vb) = (load(a)?, load(b)?);
    for (path, v) in [(a, &va), (b, &vb)] {
        if report::get(v, "quick") == Some(&Value::Bool(true)) {
            return Err(format!("{path} is a --quick run; it cannot back a comparison"));
        }
    }
    let bench = manifest_dir.join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let (table, any_worse) = report::compare(&va, &vb, &report::bounds(&text)?)?;
    print!("{table}");
    Ok(!any_worse)
}

enum Command {
    All { workloads: Vec<&'static str> },
    One { workload: &'static str, trace: bool },
    Compare { a: String, b: String },
}

fn parse(args: &[String]) -> Result<(Command, u64, f64, bool), String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok((Command::Compare { a: a.clone(), b: b.clone() }, 0, 0.0, false)),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, DEFAULT_SEED, DEFAULT_SECONDS, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == name.as_str())
                        .ok_or(format!("unknown workload `{name}` (one of {WORKLOADS:?})"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {v}: out of range"));
                }
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                });
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let cmd = match (workload, trace) {
        (Some(workload), Some(trace)) => Command::One { workload, trace },
        (None, Some(_)) => return Err("--trace needs --workload".into()),
        (Some(w), None) => Command::All { workloads: vec![w] },
        (None, None) => Command::All { workloads: WORKLOADS.to_vec() },
    };
    Ok((cmd, seed, seconds, quick))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `cargo run` sets CARGO_MANIFEST_DIR at run time; a copied binary
    // falls back to where it was built.
    let manifest_dir = PathBuf::from(
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into()),
    );
    let outcome = parse(&args).and_then(|(cmd, seed, seconds, quick)| {
        let p = Params { seed, seconds, quick, out_dir: manifest_dir.join("out") };
        match cmd {
            Command::All { workloads } => run_all(&workloads, &p),
            Command::One { workload, trace } => run_one(workload, trace, &p),
            Command::Compare { a, b } => run_compare(&a, &b, &manifest_dir),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("adapt-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
