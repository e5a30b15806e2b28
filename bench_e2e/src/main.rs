//! End-to-end pipeline benchmark: CA action → pubd → verified RRDP →
//! incremental validation → RTR → router ROV → BGP, in one process on
//! one thread.
//!
//! ```sh
//! cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload steady --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Metrics cover a fixed window of measured rounds; past it the loop
//! keeps running and checking rounds until `--seconds` have passed.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records spans
//! around every layer call, prints the per-layer metrics and writes the
//! spans to `bench_e2e/traces/<workload>.jsonl`. Every round is checked
//! by the correctness oracle outside the timed region. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `bench_e2e/README.md` for the workloads and metrics.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rpki_bench_e2e::trace::Tracer;
use rpki_bench_e2e::{Counters, Options, Pipeline, RoundReport, Workload};

/// Epochs per run. Each epoch builds the world afresh (one set-up,
/// timed for `setup_s`) and measures [`EPOCH_ROUNDS`] rounds on it.
/// Churn adds ROAs faster than it withdraws them, so a world's rounds
/// get heavier as it ages; repeating one short stretch of rounds spreads
/// the same work over the whole run, so the round metrics average the
/// machine's state over the run instead of sampling it at the point
/// where the world is mid-way through its growth.
const EPOCHS: usize = 4;
/// Measured rounds per epoch.
const EPOCH_ROUNDS: usize = 25;
/// Measured rounds every metric covers: fixed in rounds, not seconds,
/// so a run measures the same work whatever the machine's speed.
const WINDOW: usize = EPOCHS * EPOCH_ROUNDS;
/// Rounds run after set-up, before measurement starts.
const WARMUP: u64 = 2;
/// The tail percentile reported as `round_ms_tail`: the highest of
/// p50/p75/p90/p99 with at least ten of the [`WINDOW`] rounds beyond it.
const TAIL_PCT: f64 = 90.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
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
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <steady|cold-walk|whack> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let opts = Options::new(args.workload, args.seed);
    let mut failures: Vec<String> = Vec::new();
    let mut checked = 0u64;

    let mut tracer = if args.trace { Tracer::enabled() } else { Tracer::disabled() };
    let budget = Duration::from_secs(args.seconds);
    let clock = Instant::now();
    let mut setup_s = Vec::with_capacity(EPOCHS);
    // The window's rounds (wall time and counters), without the BGP
    // state their reports hold.
    let mut rounds: Vec<(u64, Counters)> = Vec::with_capacity(WINDOW);
    let mut pipeline = None;
    for epoch in 0..EPOCHS {
        drop(pipeline.take());
        let (mut p, secs) = set_up(opts, &mut failures, &mut checked);
        setup_s.push(secs);
        for _ in 0..EPOCH_ROUNDS {
            tracer.set_round(rounds.len() as u64);
            let report = p.round(&mut tracer);
            checked += 1;
            record(&mut failures, &report, p.check(&report));
            rounds.push((report.wall_ns, report.counters));
        }
        // Every epoch replays the same seeded rounds.
        if rounds[epoch * EPOCH_ROUNDS..]
            .iter()
            .map(|r| r.1)
            .ne(rounds.iter().map(|r| r.1).take(EPOCH_ROUNDS))
        {
            failures.push(format!("epoch {epoch}: work counts differ from epoch 0's"));
        }
        pipeline = Some(p);
    }
    // Read after a fixed amount of work: the publication servers' delta
    // logs keep growing with the round count.
    let peak_rss = peak_rss_mb();
    // Past the window, rounds run untraced and are only checked, until
    // the time budget is spent.
    let mut p = pipeline.expect("at least one epoch");
    while clock.elapsed() < budget && p.rounds_left() > 0 {
        let report = p.round(&mut Tracer::disabled());
        checked += 1;
        record(&mut failures, &report, p.check(&report));
    }

    for f in &failures {
        eprintln!("oracle: {f}");
    }
    let failed = failures.iter().filter(|f| f.starts_with("round")).count() as u64;
    let window: Vec<Counters> = rounds.iter().map(|r| r.1).collect();
    let round_ms: Vec<f64> = rounds.iter().map(|r| r.0 as f64 / 1e6).collect();

    println!(
        "workload {} seed {} | {} publication points, {} routers, {} ASes, {} announcements",
        args.workload.name(),
        args.seed,
        p.publication_points(),
        p.options().routers,
        p.world().topology.len(),
        p.world().announcements.len()
    );
    println!(
        "rounds: {} measured in {EPOCHS} epochs, {} checked, {} failed; tail = p{} over {} rounds",
        rounds.len(),
        checked,
        failed,
        TAIL_PCT,
        round_ms.len()
    );
    println!("counter digest: {:016x}", digest(&window));

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        metrics.extend(per_layer(&tracer));
        let counters = mean_counters(&window);
        for (name, value) in &counters {
            metrics.push((name.to_string(), *value, unit_of(name)));
        }
        let per_router = counters["rtr.frames"] / p.options().routers as f64;
        metrics.push(("rtr.frames_per_router".into(), per_router, "count"));
        metrics.retain(|(name, _, _)| !END_TO_END_COUNTERS.contains(&name.as_str()));
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}.jsonl", args.workload.name()));
        if let Err(e) = write_trace(&tracer, &dir, &path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans: {} written to {}", tracer.spans().len(), path.display());
    } else {
        let counters = mean_counters(&window);
        let wall_s: f64 = round_ms.iter().sum::<f64>() / 1e3;
        metrics.push(("round_ms_p50".into(), percentile(&round_ms, 50.0), "ms"));
        metrics.push(("round_ms_tail".into(), percentile(&round_ms, TAIL_PCT), "ms"));
        metrics.push(("rounds_per_s".into(), round_ms.len() as f64 / wall_s, "1/s"));
        metrics.push(("setup_s".into(), percentile(&setup_s, 50.0), "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss, "MB"));
        metrics.push(("verdict_lag_sim_s".into(), counters["verdict_lag_sim_s"], "sim_s"));
        metrics.push(("frames_per_round".into(), counters["frames_per_round"], "count"));
    }
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.4} {unit}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        checked,
        failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn unit_of(counter: &str) -> &'static str {
    if counter.ends_with("sim_s") {
        "sim_s"
    } else if counter.contains("bytes") {
        "bytes"
    } else {
        "count"
    }
}

/// Counters reported among the end-to-end metrics, not per layer.
const END_TO_END_COUNTERS: [&str; 2] = ["verdict_lag_sim_s", "frames_per_round"];

/// One set-up: world build, materialisation, first cold sync, initial
/// router sync and warm-up rounds. Returns the pipeline and the set-up's
/// seconds; the warm-up rounds' oracle runs outside the timer.
fn set_up(opts: Options, failures: &mut Vec<String>, checked: &mut u64) -> (Pipeline, f64) {
    let clock = Instant::now();
    let mut p = Pipeline::new(opts);
    let mut elapsed = clock.elapsed();
    for _ in 0..WARMUP {
        let clock = Instant::now();
        let report = p.round(&mut Tracer::disabled());
        elapsed += clock.elapsed();
        *checked += 1;
        record(failures, &report, p.check(&report));
    }
    (p, elapsed.as_secs_f64())
}

/// Notes a round the oracle rejected, one line per round; `failed`
/// counts these lines.
fn record(failures: &mut Vec<String>, report: &RoundReport, bad: Vec<String>) {
    if !bad.is_empty() {
        failures.push(format!("round {}: {}", report.round, bad.join("; ")));
    }
}

/// Per-layer wall-time metrics from the spans: per round, the summed
/// wall (or self) time of each layer's calls; reported as the median
/// over measured rounds.
fn per_layer(tracer: &Tracer) -> Vec<(String, f64, &'static str)> {
    // (metric, span, self time?)
    const LAYERS: [(&str, &str, bool); 13] = [
        ("ca.step_ms", "ca.step", false),
        ("ca.snapshot_ms", "ca.snapshot", false),
        ("pubd.publish_ms", "pubd.publish", false),
        ("transport.load_ms", "transport.load", false),
        ("transport.probe_ms", "transport.probe", false),
        ("rp.validate_ms", "rp.validate", false),
        ("rp.walk_self_ms", "rp.validate", true),
        ("rtr.publish_ms", "rtr.publish", false),
        ("rtr.pump_ms", "rtr.pump", false),
        ("ov.classify_ms", "ov.classify", false),
        ("bgp.propagate_ms", "bgp.propagate", false),
        ("trace.round_ms_p50", "round", false),
        ("trace.glue_ms", "round", true),
    ];
    let per_round = tracer.per_round();
    let measured: Vec<&BTreeMap<&str, (u64, u64)>> = per_round.values().collect();
    let mut out = Vec::new();
    for (metric, span, self_time) in LAYERS {
        let ms: Vec<f64> = measured
            .iter()
            .map(|m| {
                let (total, own) = m.get(span).copied().unwrap_or_default();
                (if self_time { own } else { total }) as f64 / 1e6
            })
            .collect();
        out.push((metric.to_owned(), percentile(&ms, 50.0), "ms"));
    }
    // Share of the round's wall time spent inside layer calls.
    let coverage: Vec<f64> = measured
        .iter()
        .map(|m| {
            let (total, own) = m.get("round").copied().unwrap_or_default();
            1.0 - own as f64 / total.max(1) as f64
        })
        .collect();
    out.push(("trace.layer_share".to_owned(), percentile(&coverage, 50.0), "ratio"));
    out
}

fn mean_counters(window: &[Counters]) -> BTreeMap<&'static str, f64> {
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    for c in window {
        for (name, value) in c.entries() {
            *sums.entry(name).or_default() += value as f64;
        }
    }
    let n = window.len().max(1) as f64;
    sums.values_mut().for_each(|v| *v /= n);
    sums
}

/// FNV-1a over the window's counters: equal digests mean equal counts.
fn digest(window: &[Counters]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in window {
        for (_, value) in c.entries() {
            for b in value.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Linear-interpolated percentile of `values` (unsorted).
fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = pct / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn write_trace(tracer: &Tracer, dir: &Path, path: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut out = BufWriter::new(File::create(path)?);
    tracer.write_jsonl(&mut out)?;
    out.flush()
}
