//! Validation scaling benchmark: the one sequential validation walk
//! across publication-point counts, exported to `BENCH_scale.json`.
//!
//! The workload is a cold full walk of [`SyntheticRpki`] worlds sized
//! 156 → 993 → 4971 publication points, one cell per size. An
//! incremental cell per size then warms a [`ValidationState`], churns
//! 10% of directories and revalidates; its output is checked
//! byte-identical (serialised JSON) to a cold walk of the same world
//! before its timing is recorded, so the sweep doubles as an
//! incremental ≡ cold equivalence gate at scale.
//!
//! The release build asserts near-linear scaling: the cold walk's
//! per-point cost may spread at most 6× across the ~32× size range.
//!
//! ```sh
//! cargo run --release -p rpki-risk-bench --bin bench_scale
//! ```
//!
//! `--scale N` multiplies the per-CA ROA count; `--json` mirrors the
//! records to stderr; `--trace PATH` (or `BENCH_TRACE`) writes a JSONL
//! trace of one instrumented incremental walk.

use std::time::Instant;

use rpki_objects::Moment;
use rpki_risk::SyntheticRpki;
use rpki_risk_bench::{
    emit_json, scale_arg, trace_recorder, write_trace, Recorder, Summary, SummaryTable,
};
use rpki_rp::{ValidationRun, ValidationState};
use serde::Serialize;

/// One measured (tree shape, mode) cell.
#[derive(Debug, Serialize)]
struct Record {
    pub_points: usize,
    depth: u32,
    branching: u32,
    roas_per_ca: usize,
    vrps: usize,
    mode: String,
    /// Wall time of this cell's walk.
    walk_ns: u128,
    /// Wall time of a cold walk of the same world at the same moment.
    cold_ns: u128,
    /// `cold_ns / walk_ns` (1 for cold cells).
    vs_cold: f64,
    per_point_ns: f64,
    subtrees_reused: u64,
    subtrees_rewalked: u64,
}

/// The run's canonical byte form: its JSONL trace emitted into a
/// fresh recorder at a fixed timestamp.
fn run_jsonl(run: &ValidationRun) -> String {
    let rec = Recorder::new();
    run.emit(&rec, 0);
    rec.trace_jsonl()
}

/// Minimum wall time of `iters` runs of `f` (after one warmup run).
fn time_min<F: FnMut()>(iters: usize, mut f: F) -> u128 {
    f();
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .min()
        .expect("at least one iteration")
}

fn main() {
    let scale = scale_arg().max(1);
    let mut report = Summary::new(&format!("Validation scaling benchmark (scale {scale})"));
    let rec = trace_recorder();

    // (depth, branching): 156, 993, and 4971 publication points — the
    // RIR-hosted fan-outs of a planet-scale world. ROAs are kept thin
    // so walk cost tracks pub-point count, not ROA parsing.
    let shapes = [(3u32, 5u32), (2, 31), (2, 70)];
    let iters = if cfg!(debug_assertions) { 1 } else { 2 };
    let roas_per_ca = 4 * scale;

    let mut records: Vec<Record> = Vec::new();
    for (depth, branching) in shapes {
        let mut w = SyntheticRpki::build_seeded(7, depth, branching, roas_per_ca);
        let points = w.publication_points();
        let now = Moment(2);

        let cas = w.validate_cold(now).cas.len() as u64;
        let cold_ns = time_min(iters, || {
            w.validate_cold(now);
        });
        records.push(Record {
            pub_points: points,
            depth,
            branching,
            roas_per_ca,
            vrps: w.roa_count + 1,
            mode: "cold".into(),
            walk_ns: cold_ns,
            cold_ns,
            vs_cold: 1.0,
            per_point_ns: cold_ns as f64 / points as f64,
            subtrees_reused: 0,
            subtrees_rewalked: cas,
        });

        // The incremental cell: warm the memo cache, churn 10% of
        // directories, then revalidate and check against a cold walk.
        let mut state = ValidationState::probe();
        w.validate_incremental(Moment(4), &mut state);
        w.churn(10, Moment(10));
        let cold = w.validate_cold(Moment(40));
        let cold_json = run_jsonl(&cold);
        let start = Instant::now();
        let run = w.validate_incremental(Moment(40), &mut state);
        let walk_ns = start.elapsed().as_nanos();
        assert_eq!(run, cold, "incremental walk diverged at {points} points");
        assert_eq!(
            run_jsonl(&run),
            cold_json,
            "incremental walk not byte-identical at {points} points"
        );
        let cold_ns = time_min(iters, || {
            w.validate_cold(Moment(40));
        });
        records.push(Record {
            pub_points: points,
            depth,
            branching,
            roas_per_ca,
            vrps: w.roa_count + 1,
            mode: "incremental".into(),
            walk_ns,
            cold_ns,
            vs_cold: cold_ns as f64 / walk_ns as f64,
            per_point_ns: walk_ns as f64 / points as f64,
            subtrees_reused: state.stats().subtrees_reused,
            subtrees_rewalked: state.stats().subtrees_rewalked,
        });

        // One instrumented incremental walk so the trace artifact
        // carries the run summary and the incremental counters.
        if rec.is_enabled() {
            w.net.set_recorder(rec.clone());
            let run = w.validate_incremental(Moment(60), &mut state);
            run.emit(&rec, 60);
            state.stats().emit(&rec, 60);
            w.net.set_recorder(Recorder::disabled());
        }
    }

    let mut out = SummaryTable::new(&[
        "points",
        "mode",
        "walk (ms)",
        "cold (ms)",
        "vs cold",
        "per point (µs)",
        "reused",
        "rewalked",
    ]);
    for r in &records {
        out.row(&[
            r.pub_points.to_string(),
            r.mode.clone(),
            format!("{:.3}", r.walk_ns as f64 / 1e6),
            format!("{:.3}", r.cold_ns as f64 / 1e6),
            format!("{:.2}x", r.vs_cold),
            format!("{:.1}", r.per_point_ns / 1e3),
            r.subtrees_reused.to_string(),
            r.subtrees_rewalked.to_string(),
        ]);
    }
    report.table("sequential validation walk", out);

    // Near-linear scaling: the cold walk's per-point cost should stay
    // flat as the world grows ~32x. Quadratic behaviour would show up
    // as a ~32x ratio here.
    let per_point: Vec<f64> =
        records.iter().filter(|r| r.mode == "cold").map(|r| r.per_point_ns).collect();
    let per_point_ratio = {
        let min = per_point.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_point.iter().copied().fold(0.0f64, f64::max);
        max / min
    };
    report.key_vals(
        "targets",
        &[(
            "per-point cold-walk cost spread (max/min over 156→4971 points)".to_string(),
            format!("{per_point_ratio:.2}x"),
        )],
    );
    if cfg!(debug_assertions) {
        report.note("(debug build — scaling floor not enforced; run with --release)");
    } else if per_point_ratio <= 6.0 {
        report.note("OK: near-linear per-point cost.");
    }
    report.print();

    let json = serde_json::to_string(&records).expect("serialise records");
    std::fs::write("BENCH_scale.json", format!("{json}\n")).expect("write BENCH_scale.json");
    println!("\nwrote BENCH_scale.json ({} records)", records.len());
    if let Some(path) = write_trace(&rec) {
        println!("wrote trace to {path}");
    }
    emit_json("bench_scale", &records);
    // Enforced last so a regressed run still reports and exports the
    // numbers that explain it.
    assert!(
        cfg!(debug_assertions) || per_point_ratio <= 6.0,
        "sequential walk is no longer near-linear: per-point cost spread {per_point_ratio:.2}x"
    );
}
