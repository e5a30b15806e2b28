//! The pipeline on topogen's small world: every workload passes its
//! oracle, counters repeat exactly across runs and between traced and
//! untraced runs, and the oracle catches a mis-fed RTR fabric.

use rpki_bench_e2e::trace::Tracer;
use rpki_bench_e2e::{Counters, Feed, Options, Pipeline, Workload};

const ROUNDS: usize = 6;

/// Runs `ROUNDS` rounds; returns each round's counters and oracle
/// findings.
fn run(opts: Options, tracer: &mut Tracer) -> Vec<(Counters, Vec<String>)> {
    let mut p = Pipeline::new(opts);
    (0..ROUNDS)
        .map(|round| {
            tracer.set_round(round as u64);
            let report = p.round(tracer);
            let bad = p.check(&report);
            (report.counters, bad)
        })
        .collect()
}

#[test]
fn every_workload_passes_its_oracle() {
    for w in Workload::ALL {
        for (round, (c, bad)) in
            run(Options::small(w, 4), &mut Tracer::disabled()).iter().enumerate()
        {
            assert!(bad.is_empty(), "{} round {round}: {bad:?}", w.name());
            assert!(c.frames > 0 && c.rp_vrps > 0, "{} round {round}", w.name());
            match w {
                // Round 0 only withdraws, and Invalid routes do not
                // propagate under DropInvalid; later rounds also restore.
                Workload::Whack => {
                    assert_eq!(c.ov_verdict_flips, 2 * 4 - if round == 0 { 4 } else { 0 });
                    assert!(round == 0 || c.bgp_route_updates > 0);
                }
                Workload::Steady => assert_eq!(c.ov_verdict_flips, 0),
                Workload::ColdWalk => assert_eq!(c.rrdp_snapshot_syncs, c.transport_loads),
            }
        }
    }
}

#[test]
fn counters_repeat_across_runs_and_tracing() {
    for w in Workload::ALL {
        let plain = run(Options::small(w, 8), &mut Tracer::disabled());
        let again = run(Options::small(w, 8), &mut Tracer::disabled());
        let mut tracer = Tracer::enabled();
        let traced = run(Options::small(w, 8), &mut tracer);
        let counters = |r: &[(Counters, Vec<String>)]| r.iter().map(|x| x.0).collect::<Vec<_>>();
        assert_eq!(counters(&plain), counters(&again), "{}", w.name());
        assert_eq!(counters(&plain), counters(&traced), "{}", w.name());
        // Every layer call of every round left a span.
        let per_round = tracer.per_round();
        assert_eq!(per_round.len(), ROUNDS);
        for spans in per_round.values() {
            for name in
                ["round", "ca.step", "rp.validate", "rtr.publish", "rtr.pump", "ov.classify"]
            {
                assert!(spans.contains_key(name), "{}: no {name} span", w.name());
            }
        }
    }
}

#[test]
fn self_times_add_up_to_the_round() {
    let mut tracer = Tracer::enabled();
    run(Options::small(Workload::Whack, 2), &mut tracer);
    for (round, spans) in tracer.per_round() {
        let (total, _) = spans["round"];
        let own: u64 = spans.values().map(|&(_, own)| own).sum();
        assert_eq!(own, total, "round {round}: self times partition the round");
    }
}

#[test]
fn oracle_catches_a_delta_fed_cold_walk() {
    // A fresh ValidationState's last delta announces everything and
    // withdraws nothing, so routers keep every VRP churn removed.
    // The small world's churn withdraws too few VRPs in a few rounds;
    // a 320-AS planet withdraws some every round.
    let opts = Options {
        feed: Feed::Delta,
        world: topogen::Config::planet(4, 200),
        ..Options::small(Workload::ColdWalk, 4)
    };
    let rounds = run(opts, &mut Tracer::disabled());
    let failed: Vec<usize> =
        rounds.iter().enumerate().filter(|(_, (_, bad))| !bad.is_empty()).map(|(i, _)| i).collect();
    assert!(!failed.is_empty(), "the oracle missed diverged routers");
    let last = failed[0];
    assert!(failed.iter().copied().eq(last..ROUNDS), "once diverged, always diverged: {failed:?}");
    assert!(rounds[last].1.iter().any(|b| b.contains("routers diverge")), "{:?}", rounds[last].1);
}
