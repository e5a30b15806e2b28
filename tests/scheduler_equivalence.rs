//! Degenerate-schedule byte-identity and slow-serve soak.
//!
//! The fetch scheduler's correctness anchor is
//! [`SchedulePlan::degenerate`]: with zero cadence, unlimited budgets,
//! no jitter, and no backoff, the scheduled stack must be
//! byte-identical to the unscheduled walk — same [`ValidationRun`],
//! same JSONL trace, same VRP set, same wire traffic — whatever the
//! world did in between. Everything the real schedule saves must come
//! from policy, never from silently changing what a delegated fetch
//! returns. These properties drive the `tests/incremental.rs` mutation
//! vocabulary through the cold and incremental validation tiers.
//!
//! The ignored soak replays the schedule-gaming campaign — an
//! authority that answers everything, slowly, to burn the per-run time
//! budget — across 32 seeds, pinning its shape: starvation stays
//! inside the slow-serve window, costs freshness rather than
//! availability, and never trips a breaker.

use std::collections::BTreeSet;

use ipres::Asn;
use proptest::prelude::*;
use rpki_objects::{Moment, RoaPrefix};
use rpki_obs::Recorder;
use rpki_risk::{
    gaming_schedule_plan, run_schedule_gaming, schedule_gaming_campaign, SyntheticRpki,
};
use rpki_rp::{
    NetworkSource, SchedulePlan, ScheduledSource, SchedulerState, ValidationConfig, ValidationRun,
    ValidationState, Validator, Vrp,
};

const HOST: &str = "rpki.bench.example";

/// One authority- or repository-side mutation against the synthetic
/// world (the `tests/incremental.rs` vocabulary).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Renew the CA's first ROA (churn without semantic change).
    Renew(usize),
    /// Issue a new ROA in the CA's own /24 (a real announce).
    Add(usize, u8),
    /// Withdraw the CA's most recently issued extra ROA, if any.
    Withdraw(usize),
    /// Delete one file at rest without republishing (a whack).
    Takedown(usize),
    /// Flip a byte of one stored file at rest (filesystem rot).
    Corrupt(usize),
}

fn arb_op(cas: usize) -> impl Strategy<Value = Op> {
    (0u8..5, 0usize..cas, 0u8..8).prop_map(|(kind, ca, slot)| match kind {
        0 => Op::Renew(ca),
        1 => Op::Add(ca, slot),
        2 => Op::Withdraw(ca),
        3 => Op::Takedown(ca),
        _ => Op::Corrupt(ca),
    })
}

/// Republishes CA `idx`'s complete snapshot (fresh manifest and CRL).
fn republish(w: &mut SyntheticRpki, idx: usize, now: Moment) {
    let sia = w.cas[idx].sia().clone();
    let snap = w.cas[idx].publication_snapshot(now);
    w.repos.by_host_mut(HOST).expect("exists").publish_snapshot(&sia, &snap);
}

fn apply(w: &mut SyntheticRpki, op: Op, now: Moment) {
    match op {
        Op::Renew(ca) => {
            let file =
                w.cas[ca].issued_roas().next().expect("every CA keeps its first ROA").file_name();
            w.cas[ca].renew_roa(&file, now).expect("renewable");
            republish(w, ca, now);
        }
        Op::Add(ca, slot) => {
            let prefix = format!("10.0.{ca}.{}/32", 100 + usize::from(slot));
            w.cas[ca]
                .issue_roa(
                    Asn(64_000 + ca as u32),
                    vec![RoaPrefix::exact(prefix.parse().expect("literal"))],
                    now,
                )
                .expect("inside the CA's own /24");
            republish(w, ca, now);
        }
        Op::Withdraw(ca) => {
            // Keep the first ROA so Renew always has a target.
            let extra: Option<String> =
                w.cas[ca].issued_roas().skip(1).last().map(|r| r.file_name());
            if let Some(file) = extra {
                w.cas[ca].withdraw(&file).expect("present");
                republish(w, ca, now);
            }
        }
        Op::Takedown(ca) => {
            let dir = w.cas[ca].sia().clone();
            let repo = w.repos.by_host_mut(HOST).expect("exists");
            if let Some((name, _)) = repo.list(&dir).first().cloned() {
                repo.delete(&dir, &name);
            }
        }
        Op::Corrupt(ca) => {
            let dir = w.cas[ca].sia().clone();
            let repo = w.repos.by_host_mut(HOST).expect("exists");
            if let Some((name, _)) = repo.list(&dir).last().cloned() {
                repo.corrupt_at_rest(&dir, &name);
            }
        }
    }
}

/// The run's canonical byte form: its JSONL trace emitted into a
/// fresh recorder at a fixed timestamp.
fn run_jsonl(run: &ValidationRun) -> String {
    let rec = Recorder::new();
    run.emit(&rec, 0);
    rec.trace_jsonl()
}

/// The two relying-party tiers the scheduler composes with.
#[derive(Debug, Clone, Copy)]
enum Tier {
    Cold,
    Incremental,
}

const TIERS: [Tier; 2] = [Tier::Cold, Tier::Incremental];

/// One walk of `tier` over the network, optionally under a schedule.
/// Returns the run and the wire frames it cost.
fn run_tier(
    w: &mut SyntheticRpki,
    at: Moment,
    tier: Tier,
    inc: Option<&mut ValidationState>,
    sched: Option<&mut SchedulerState>,
) -> (ValidationRun, u64) {
    let sent = w.net.stats().sent;
    let validator = Validator::new(ValidationConfig::at(at));
    let tals = std::slice::from_ref(&w.tal);
    let inner = NetworkSource::new(&mut w.net, &w.repos, w.rp_node);
    let run = match sched {
        Some(state) => {
            let mut source = ScheduledSource::new(inner, state, SchedulePlan::degenerate());
            match tier {
                Tier::Cold => validator.run(&mut source, tals),
                Tier::Incremental => {
                    validator.run_incremental(&mut source, tals, inc.expect("state"))
                }
            }
        }
        None => {
            let mut source = inner;
            match tier {
                Tier::Cold => validator.run(&mut source, tals),
                Tier::Incremental => {
                    validator.run_incremental(&mut source, tals, inc.expect("state"))
                }
            }
        }
    };
    (run, w.net.stats().sent - sent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// After every mutation, the degenerate schedule reproduces the
    /// unscheduled walk byte for byte on every tier: equal runs, equal
    /// JSONL traces, equal VRP sets, equal wire traffic.
    #[test]
    fn degenerate_schedule_is_byte_identical_on_every_tier(
        ops in proptest::collection::vec(arb_op(13), 1..8),
    ) {
        // depth 2 / branching 3: 13 publication points, 3 ROAs each.
        let mut w = SyntheticRpki::build_seeded(17, 2, 3, 3);
        // Persistent per-tier state: the schedule survives across runs
        // (so does the memo cache), which is exactly the situation the
        // identity must hold in.
        let mut sched: Vec<SchedulerState> =
            TIERS.iter().map(|_| SchedulerState::new()).collect();
        let mut inc_plain = ValidationState::probe();
        let mut inc_sched = ValidationState::probe();
        let mut t = 60u64;
        for op in ops {
            apply(&mut w, op, Moment(t));
            let at = Moment(t + 30);
            for (i, tier) in TIERS.iter().enumerate() {
                let (plain, plain_frames) = run_tier(
                    &mut w,
                    at,
                    *tier,
                    Some(&mut inc_plain).filter(|_| matches!(tier, Tier::Incremental)),
                    None,
                );
                let (scheduled, sched_frames) = run_tier(
                    &mut w,
                    at,
                    *tier,
                    Some(&mut inc_sched).filter(|_| matches!(tier, Tier::Incremental)),
                    Some(&mut sched[i]),
                );
                prop_assert_eq!(
                    &scheduled, &plain,
                    "{:?}: degenerate schedule diverged after {:?}", tier, op
                );
                prop_assert_eq!(
                    &run_jsonl(&scheduled), &run_jsonl(&plain),
                    "{:?}: JSONL trace not byte-identical after {:?}", tier, op
                );
                let a: BTreeSet<Vrp> = scheduled.vrps.iter().copied().collect();
                let b: BTreeSet<Vrp> = plain.vrps.iter().copied().collect();
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(
                    sched_frames, plain_frames,
                    "{:?}: wire traffic diverged after {:?}", tier, op
                );
            }
            t += 60;
        }
    }
}

/// Campaign round cadence (mirrors `rpki_risk::campaign::ROUND_SECS`).
const ROUND_SECS: u64 = 1_800;

/// 32-seed soak of the schedule-gaming campaign: a slow-serving
/// authority must starve only inside its window, cost freshness rather
/// than availability, and never trip a breaker — on every seed.
#[test]
#[ignore = "32-seed soak; run explicitly with --ignored"]
fn slow_serve_starvation_soak_over_seeds() {
    let spec = schedule_gaming_campaign();
    let plan = gaming_schedule_plan();
    let window = &spec.windows[0];
    let window_len = window.to - window.from + 1;
    for seed in 0..32 {
        let out = run_schedule_gaming(&spec, seed, plan, &Recorder::disabled());
        for r in &out.rounds {
            let in_window = window.from <= r.round && r.round <= window.to;
            assert!(
                in_window || r.deferred == 0,
                "seed {seed} round {}: deferral outside the slow-serve window ({r:?})",
                r.round
            );
        }
        assert!(
            out.starved_rounds >= window_len / 2,
            "seed {seed}: starved only {} of {window_len} window rounds: {out:?}",
            out.starved_rounds
        );
        assert_eq!(out.min_vrps, 8, "seed {seed}: availability must hold ({out:?})");
        assert!(
            out.worst_served_age >= ROUND_SECS,
            "seed {seed}: victims must be served stale past a round ({out:?})"
        );
        let last = out.rounds.last().expect("campaign has rounds");
        assert_eq!(last.deferred, 0, "seed {seed}: recovery after the window ({last:?})");
        assert_eq!(last.backoff_skips, 0, "seed {seed}: slow is not down ({last:?})");
    }
}
