//! End-to-end and per-layer benchmark for the two routes to certain
//! answers: rewriting served from a cache (`qr-serve`) and materializing
//! the chase (`qr-chase`, sharded or incremental).
//!
//! ```text
//! perfbench --workload <serve-read|serve-write|chase-bulk|chase-write>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set. Run
//! each workload in its own process: the symbol interner and the peak
//! resident set are per process. See `README.md` beside this file.

mod chase;
mod serve;
mod trace;
mod util;

use std::process::ExitCode;

use util::Outcome;

/// End-to-end metrics: (name, unit). Every workload reports all of them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit). A layer a workload does not reach
/// reports 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.write_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.misses", "count/op"),
    ("serve.cache_invalidations", "count/op"),
    ("serve.evictions", "count/op"),
    ("serve.match_candidates", "count/op"),
    ("serve.incomplete_rate", "ratio"),
    ("serve.self_us", "us"),
    ("syntax.parse_query_us", "us"),
    ("syntax.register_s", "s"),
    ("hom.key_us", "us"),
    ("hom.exec_us", "us"),
    ("hom.compile_us", "us"),
    ("hom.candidates_per_answer", "count"),
    ("rewrite.fus_ms", "ms"),
    ("rewrite.tc_ms", "ms"),
    ("rewrite.generated", "count/rewrite"),
    ("rewrite.kept_ratio", "ratio"),
    ("rewrite.hom_searches", "count/rewrite"),
    ("exec.dispatch_us", "us"),
    ("chase.partition_ms", "ms"),
    ("chase.shard_ms", "ms"),
    ("chase.merge_ms", "ms"),
    ("chase.enum_ms", "ms"),
    ("chase.round_merge_ms", "ms"),
    ("chase.triggers", "count/op"),
    ("chase.candidates", "count/op"),
    ("chase.useful_ratio", "ratio"),
    ("storage.insert_ns", "ns/fact"),
    ("storage.bytes_per_fact", "B/fact"),
    ("incr.insert_ms", "ms"),
    ("incr.retract_ms", "ms"),
    ("incr.seeded", "count/op"),
    ("incr.rechases", "count/op"),
    ("incr.truncated_retracts", "count/op"),
    ("incr.replayed_facts", "count/op"),
    ("incr.cone_facts", "count/op"),
    ("incr.useful_ratio", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("trace.written", "count"),
];

const WORKLOADS: [&str; 4] = ["serve-read", "serve-write", "chase-bulk", "chase-write"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload '{value}'; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Writes a traced run's spans to `perfbench/traces/`, relative to the
/// directory the benchmark runs from, and records how many were kept and
/// written.
fn write_trace(tracer: &trace::Tracer, workload: &str, seed: u64, metrics: &mut util::Metrics) {
    let path = std::path::PathBuf::from(format!("perfbench/traces/{workload}-seed{seed}.tsv"));
    let written = match tracer.write_tsv(&path) {
        Ok(n) => n,
        Err(e) => {
            println!("trace: could not write {}: {e}", path.display());
            0
        }
    };
    println!(
        "trace: {} spans, {written} written to {}",
        tracer.spans.len(),
        path.display()
    );
    metrics.set("trace.spans", tracer.spans.len() as f64);
    metrics.set("trace.written", written as f64);
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn emit(out: &Outcome, trace: bool) {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let value = if trace {
                out.metrics.0.get(name).copied().unwrap_or(0.0)
            } else {
                *out.metrics
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("end-to-end metric {name} missing"))
            };
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.invariants_ok && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve-read" => serve::run(false, args.seed, args.seconds, args.trace),
        "serve-write" => serve::run(true, args.seed, args.seconds, args.trace),
        "chase-bulk" => chase::run_bulk(args.seed, args.seconds, args.trace),
        _ => chase::run_write(args.seed, args.seconds, args.trace),
    };
    emit(&outcome, args.trace);
    ExitCode::SUCCESS
}
