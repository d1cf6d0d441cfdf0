//! One benchmark for Sprout: serving latency and throughput through
//! `Sproutd`, Algorithm 1 and simulator time, and a per-layer ladder.
//!
//! ```sh
//! perfbench --workload <hot_read_64k|cold_mixed_4k|plan_sim> --seed N \
//!     --seconds S --trace <0|1> [--out-dir DIR]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` they are the per-layer ones, spans are
//! written to `DIR/spans-<workload>.txt` and the trace overhead is reported
//! against the last untraced run of the same workload. `perfbench/README.md`
//! explains the workloads and which layer metric should move which
//! end-to-end metric.

mod layers;
mod plan_sim;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trace::Tracer;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("latency_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end readings by name; see [`END_TO_END`].
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer readings by name; see [`PER_LAYER`].
    pub per_layer: BTreeMap<&'static str, f64>,
    /// (description, passed)
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn check(&mut self, passed: bool, what: impl Into<String>) {
        self.checks.push((what.into(), passed));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.per_layer.insert(name, value);
    }
}

/// Every per-layer metric, in output order, with its unit. A workload that
/// does not exercise a layer reports 0 for that layer's metrics. The
/// `trace.*` readings are the traced run's own end-to-end numbers, so the
/// gap to an untraced run is the tracing overhead.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("gf.mul_acc_gb_per_s", "GB/s"),
    ("erasure.decode_us", "us"),
    ("erasure.encode_us", "us"),
    ("erasure.decode_memo_hit_ratio", "ratio"),
    ("cluster.get_us", "us"),
    ("cluster.put_us", "us"),
    ("cluster.cache_hit_ratio", "ratio"),
    ("cluster.full_cache_hit_share", "ratio"),
    ("cluster.storage_chunks_per_get", "chunks"),
    ("cluster.set_cached_chunks_ms", "ms"),
    ("cluster.model_latency_s", "s"),
    ("serve.overhead_us", "us"),
    ("serve.paced_p50_ms", "ms"),
    ("serve.paced_samples", "count"),
    ("serve.get_p99_ms", "ms"),
    ("serve.get_p999_ms", "ms"),
    ("serve.gen_lag_p50_ms", "ms"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("serve.queue_len_max", "count"),
    ("serve.backpressure_waits", "count"),
    ("serve.swap_plan_ms", "ms"),
    ("optimizer.outer_iterations", "count"),
    ("optimizer.objective_s", "s"),
    ("sim.completed_requests", "count"),
    ("sim.peak_event_queue", "count"),
    ("sim.mean_latency_s", "s"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.spans", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds: number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// A finite number as JSON, with all its digits.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite, got {v}");
    format!("{v:?}")
}

/// Reads back `"name": value` pairs from a result line this program wrote.
fn read_metric(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at + name.len() + 14..];
    rest[..rest.find(',')?].parse().ok()
}

fn result_line(report: &Report, traced: bool) -> String {
    let (table, values) = if traced {
        (&PER_LAYER[..], &report.per_layer)
    } else {
        (&END_TO_END[..], &report.end_to_end)
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|(n, u)| {
            let v = match values.get(n) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("workload did not measure {n}"),
            };
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(v)
            )
        })
        .collect();
    let correct = report.checks.iter().all(|(_, ok)| *ok);
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Compares the traced run's end-to-end readings with the last untraced
/// run of the same workload.
fn trace_overhead(report: &Report, last_untraced: &Path) -> String {
    let Ok(line) = std::fs::read_to_string(last_untraced) else {
        return "trace overhead: no untraced run of this workload recorded yet".into();
    };
    let parts: Vec<String> = [
        ("latency_p50_ms", "trace.latency_p50_ms"),
        ("ops_per_s", "trace.ops_per_s"),
    ]
    .iter()
    .filter_map(|(plain, traced)| {
        let before = read_metric(&line, plain)?;
        let after = *report.per_layer.get(traced)?;
        Some(format!("{plain} {:+.2}%", (after / before - 1.0) * 100.0))
    })
    .collect();
    format!(
        "trace overhead vs last untraced run ({}): {}",
        last_untraced.display(),
        parts.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "hot_read_64k" => {
            serving::run(&serving::HOT_READ_64K, args.seed, args.seconds, &mut tracer)
        }
        "cold_mixed_4k" => serving::run(
            &serving::COLD_MIXED_4K,
            args.seed,
            args.seconds,
            &mut tracer,
        ),
        "plan_sim" => plan_sim::run(args.seed, args.seconds, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let last_untraced = args
        .out_dir
        .join(format!("last-untraced-{}.json", args.workload));
    if args.trace {
        report.layer("trace.spans", tracer.len() as f64);
        let idle: Vec<&str> = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !report.per_layer.contains_key(n))
            .collect();
        if !idle.is_empty() {
            report.note(format!(
                "not exercised by this workload (reported as 0): {}",
                idle.join(", ")
            ));
        }
        let spans = args.out_dir.join(format!("spans-{}.txt", args.workload));
        match tracer.write(&spans) {
            Ok(()) => report.note(format!(
                "spans: {} written to {}",
                tracer.len(),
                spans.display()
            )),
            Err(e) => report.check(false, format!("writing spans to {}: {e}", spans.display())),
        }
        for (name, (count, total_ms, self_ms)) in tracer.summary() {
            report.note(format!(
                "span {name}: n={count} total={total_ms:.3} ms self={self_ms:.3} ms"
            ));
        }
        let overhead = trace_overhead(&report, &last_untraced);
        report.note(overhead);
    }

    for line in &report.notes {
        println!("{line}");
    }
    for (what, ok) in &report.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        // Also on standard error, which survives when only the result line
        // of standard output is kept.
        if !ok {
            eprintln!("check FAIL: {what}");
        }
    }
    let line = result_line(&report, args.trace);
    if !args.trace {
        let _ = std::fs::create_dir_all(&args.out_dir);
        let _ = std::fs::write(&last_untraced, &line);
    }
    println!("{line}");
    ExitCode::SUCCESS
}
