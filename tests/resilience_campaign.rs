//! Integration tests for the seeded fault-campaign harness behind the
//! `ablation_resilience` experiment.
//!
//! Pins the three properties the experiment's conclusions rest on:
//!
//! - **determinism** — the same `(campaign, seed)` serializes to the
//!   byte-identical outcome on every replay (the whole pipeline runs on
//!   the simulated clock; nothing leaks wall-clock or map-order
//!   nondeterminism into the record);
//! - **strict tier ordering** — under a corruption burst, each layer of
//!   the resilient fetch pipeline strictly improves VRP availability:
//!   bare < retrying < retrying + stale cache;
//! - **defense boundaries** — the stale cache bridges transport faults
//!   but must not bridge an authority-side withdrawal (that separation
//!   belongs to Suspenders), and timeouts lose slow-served rounds the
//!   bare RP eventually collects.

use rpki_attacks::CorpusKind;
use rpki_obs::Recorder;
use rpki_risk::{
    run_campaign, run_campaign_shared, standard_campaigns, CampaignOutcome, CampaignSpec,
    FaultKind, FaultWindow, RpTier,
};
use rpki_rp::UnsafeVrpPolicy;

fn campaign(name: &str, seed: u64) -> CampaignOutcome {
    let spec = standard_campaigns()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no standard campaign named {name}"));
    run_campaign(&spec, seed)
}

fn availability(out: &CampaignOutcome, tier: RpTier) -> usize {
    out.tier(tier).totals.vrp_round_sum
}

#[test]
fn campaign_outcomes_are_byte_identical_across_replays() {
    for spec in standard_campaigns() {
        let a = serde_json::to_string(&run_campaign(&spec, 2013)).expect("serializes");
        let b = serde_json::to_string(&run_campaign(&spec, 2013)).expect("serializes");
        assert_eq!(a, b, "campaign {} replay diverged", spec.name);
    }
}

#[test]
fn corruption_burst_orders_tiers_strictly() {
    let out = campaign("corruption-burst", 2013);
    let bare = availability(&out, RpTier::Bare);
    let retrying = availability(&out, RpTier::Retrying);
    let stale = availability(&out, RpTier::RetryingStale);
    assert!(bare < retrying, "retries must strictly improve on bare: {bare} vs {retrying}");
    assert!(
        retrying < stale,
        "the stale cache must strictly improve on retries: {retrying} vs {stale}"
    );
    // The stale tier rides through the burst whole.
    assert_eq!(out.tier(RpTier::RetryingStale).totals.min_vrps, 8);
    assert_eq!(out.tier(RpTier::RetryingStale).totals.unknown_flips, 0);
}

#[test]
fn takedown_defeats_retries_but_not_the_stale_cache() {
    let out = campaign("takedown", 2013);
    // No amount of retrying reaches a down host…
    assert_eq!(availability(&out, RpTier::Bare), availability(&out, RpTier::Retrying));
    // …but the snapshot cache bridges the whole outage.
    assert!(availability(&out, RpTier::Retrying) < availability(&out, RpTier::RetryingStale));
    assert_eq!(out.tier(RpTier::RetryingStale).totals.min_vrps, 8);
}

#[test]
fn slow_serve_trades_availability_for_boundedness() {
    let out = campaign("slow-serve", 2013);
    // The bare RP hangs until the stalled bytes arrive — counted
    // available, hours late. Timeouts alone lose those rounds; only
    // the stale cache restores availability AND bounded time.
    assert!(availability(&out, RpTier::Retrying) < availability(&out, RpTier::Bare));
    assert_eq!(availability(&out, RpTier::RetryingStale), availability(&out, RpTier::Bare));
    assert!(out.tier(RpTier::RetryingStale).totals.stale_dir_rounds > 0);
}

#[test]
fn withdrawal_is_bridged_by_suspenders_only() {
    let out = campaign("mixed", 2013);
    let stale = out.tier(RpTier::RetryingStale).totals;
    let susp = out.tier(RpTier::Suspenders).totals;
    // The snapshot follows a complete sync that lacks the file: the
    // stale tier loses the withdrawn VRP…
    assert!(stale.min_vrps < 8, "stale cache must not mask the withdrawal: {stale:?}");
    // …while the hold-down layer keeps every announcement valid.
    assert_eq!(susp.min_vrps, 8, "{susp:?}");
    assert_eq!(susp.unknown_flips, 0, "{susp:?}");
    assert!(susp.vrp_round_sum > stale.vrp_round_sum);
}

/// An adversarial-publish campaign: Continental publishes a rejected
/// over-claimer for one window and a truncated manifest for another,
/// healing each with an honest snapshot when the window closes.
fn adversarial_spec() -> CampaignSpec {
    let c = || "rpki.continental.example".to_owned();
    CampaignSpec {
        name: "adversarial-publish".to_owned(),
        unsafe_vrps: UnsafeVrpPolicy::Warn,
        churn: None,
        rounds: 12,
        windows: vec![
            FaultWindow {
                host: c(),
                kind: FaultKind::AdversarialPublish { kind: CorpusKind::ResourceOverclaim },
                from: 2,
                to: 4,
            },
            FaultWindow {
                host: c(),
                kind: FaultKind::AdversarialPublish { kind: CorpusKind::TruncatedDer },
                from: 7,
                to: 9,
            },
        ],
    }
}

#[test]
fn adversarial_publish_campaign_replays_byte_identically() {
    let spec = adversarial_spec();
    let a = run_campaign(&spec, 2013);
    let b = run_campaign(&spec, 2013);
    assert_eq!(
        serde_json::to_string(&a).expect("serializes"),
        serde_json::to_string(&b).expect("serializes"),
        "adversarial campaign replay diverged"
    );
    // The shared-world harness replays identically too.
    let rec = Recorder::disabled();
    let shared = run_campaign_shared(&spec, 2013, &rec);
    let replay = run_campaign_shared(&spec, 2013, &rec);
    assert_eq!(
        serde_json::to_string(&shared).expect("serializes"),
        serde_json::to_string(&replay).expect("serializes"),
        "shared-world adversarial campaign replay diverged"
    );

    // The poison bites and the healing works: the over-claimer window
    // flags every surviving VRP unsafe under Warn, and after each
    // window closes the stale tier is back to the full healthy set.
    let stale = a.tier(RpTier::RetryingStale);
    assert!(stale.totals.rejected_ca_rounds > 0, "{:?}", stale.totals);
    assert!(stale.totals.unsafe_vrp_rounds > 0, "{:?}", stale.totals);
    let last = stale.rounds.last().expect("rounds recorded");
    assert_eq!(last.vrps, 8, "the honest snapshot must heal the poison: {last:?}");
    assert_eq!(last.unsafe_vrps, 0, "healed rounds carry no unsafe VRPs: {last:?}");
}

#[test]
fn unsafe_policies_order_vrp_availability() {
    // One over-claimer window, three policies, same seed. The
    // `0.0.0.0/0` over-claim makes every surviving VRP unsafe, so:
    // accept == warn (annotation is free) > reject (suppression).
    let spec = |policy| CampaignSpec {
        name: "overclaim-policy".to_owned(),
        unsafe_vrps: policy,
        churn: None,
        rounds: 8,
        windows: vec![FaultWindow {
            host: "rpki.continental.example".to_owned(),
            kind: FaultKind::AdversarialPublish { kind: CorpusKind::ResourceOverclaim },
            from: 2,
            to: 5,
        }],
    };
    let accept = run_campaign(&spec(UnsafeVrpPolicy::Accept), 2013);
    let warn = run_campaign(&spec(UnsafeVrpPolicy::Warn), 2013);
    let reject = run_campaign(&spec(UnsafeVrpPolicy::Reject), 2013);
    for tier in RpTier::ALL {
        let (a, w, r) =
            (availability(&accept, tier), availability(&warn, tier), availability(&reject, tier));
        assert_eq!(a, w, "{tier:?}: warn must not change availability");
        assert!(r <= w, "{tier:?}: reject gained VRPs over warn ({r} > {w})");
        if tier != RpTier::Suspenders {
            assert!(r < w, "{tier:?}: reject must lose the suppressed window ({r} vs {w})");
        }
        assert_eq!(accept.tier(tier).totals.unsafe_vrp_rounds, 0, "{tier:?}");
        assert!(warn.tier(tier).totals.unsafe_vrp_rounds > 0, "{tier:?}");
    }
}

/// Fault-campaign soak: sweep all standard campaigns across many seeds
/// and check the layer invariants hold everywhere (run explicitly or
/// from the scheduled CI job: `cargo test --release -- --ignored`).
#[test]
#[ignore = "long-running fault-campaign soak; exercised by scheduled CI"]
fn campaign_soak_across_seeds() {
    for seed in 0..32u64 {
        for spec in standard_campaigns() {
            let out = run_campaign(&spec, seed);
            let bare = availability(&out, RpTier::Bare);
            let retrying = availability(&out, RpTier::Retrying);
            let stale = availability(&out, RpTier::RetryingStale);
            let susp = availability(&out, RpTier::Suspenders);
            let rrdp = availability(&out, RpTier::Rrdp);
            // Weak ordering must hold at every seed; slow serves are
            // the documented exception where timeouts cost rounds the
            // bare RP eventually collects.
            let has_stall = spec.windows.iter().any(|w| matches!(w.kind, FaultKind::Stall { .. }));
            if !has_stall {
                assert!(
                    bare <= retrying,
                    "{} seed {seed}: bare {bare} > retrying {retrying}",
                    spec.name
                );
            }
            assert!(
                retrying <= stale,
                "{} seed {seed}: retrying {retrying} > stale {stale}",
                spec.name
            );
            assert!(stale <= susp, "{} seed {seed}: stale {stale} > suspenders {susp}", spec.name);
            // The rrdp tier runs the same resilient stack over the
            // other transport: its availability must match everywhere.
            assert_eq!(
                rrdp, stale,
                "{} seed {seed}: rrdp tier diverged from the rsync stack",
                spec.name
            );
            // The stale tier never serves a snapshot older than budget,
            // so transport-only campaigns keep every VRP every round
            // (authority-side withdrawals are the documented exception).
            let has_withdraw = spec.windows.iter().any(|w| matches!(w.kind, FaultKind::Withdraw));
            if !has_withdraw {
                assert_eq!(
                    out.tier(RpTier::RetryingStale).totals.min_vrps,
                    8,
                    "{} seed {seed}",
                    spec.name
                );
            }
            // Replays stay byte-identical at every seed.
            let a = serde_json::to_string(&out).expect("serializes");
            let b = serde_json::to_string(&run_campaign(&spec, seed)).expect("serializes");
            assert_eq!(a, b, "{} seed {seed}: replay diverged", spec.name);
        }

        // One shared-world campaign per seed: every tier validates the
        // same repository world, and the invariants carry over —
        // availability ordering, server-side load on every host, and
        // byte-identical replay.
        let spec = standard_campaigns()
            .into_iter()
            .find(|s| s.name == "takedown")
            .expect("standard campaign exists");
        let rec = Recorder::disabled();
        let shared = run_campaign_shared(&spec, seed, &rec);
        let stale = shared.tier(RpTier::RetryingStale).totals.vrp_round_sum;
        let bare = shared.tier(RpTier::Bare).totals.vrp_round_sum;
        assert!(bare <= stale, "shared world seed {seed}: bare {bare} > stale {stale}");
        assert_eq!(shared.divergence.len(), shared.rounds, "seed {seed}");
        assert!(
            shared.load.iter().all(|h| h.frames > 0 && h.bytes > h.frames),
            "seed {seed}: {:?}",
            shared.load
        );
        let replay = run_campaign_shared(&spec, seed, &rec);
        assert_eq!(
            serde_json::to_string(&shared).expect("serializes"),
            serde_json::to_string(&replay).expect("serializes"),
            "seed {seed}: shared-world campaign replay diverged"
        );
    }
}
