//! One entry point for every relying-party configuration.
//!
//! Each relying-party layer the suite models — retries, the stale
//! cache, Suspenders, incremental revalidation, tracing — would widen
//! a positional signature; [`ValidationOptions`] names them instead:
//! callers list the layers they want and
//! [`ModelRpki::validate_with`] assembles the source stack, runs the
//! validator (cold, or incrementally against a persistent
//! [`ValidationState`]), and reports the run (and any Suspenders
//! transitions) through the world's observability recorder.
//!
//! ```
//! use rpki_objects::Moment;
//! use rpki_repo::SyncPolicy;
//! use rpki_rp::ResilientState;
//! use rpki_risk::{ModelRpki, ValidationOptions};
//!
//! let mut w = ModelRpki::build();
//! // The bare networked relying party:
//! let bare = w.validate_with(ValidationOptions::at(Moment(2)));
//! // The full resilience stack:
//! let mut state = ResilientState::default();
//! let run = w.validate_with(
//!     ValidationOptions::at(Moment(3)).retry(SyncPolicy::default()).stale_cache(&mut state),
//! );
//! assert_eq!(bare.vrps, run.vrps);
//! ```
//!
//! [`ModelRpki::validate_direct`] (a perfect-transport probe, `&self`)
//! remains as the one standalone convenience.

use rpki_objects::Moment;
use rpki_repo::{RrdpClientState, SyncPolicy};
use rpki_rp::{
    DirectSource, NetworkSource, ObjectSource, ResilientSource, ResilientState, RrdpSource,
    SchedulePlan, ScheduledSource, SchedulerState, UnsafeVrpPolicy, ValidationConfig,
    ValidationRun, ValidationState, Validator,
};

use crate::fixtures::ModelRpki;
use crate::suspenders::SuspendersState;

/// Which relying-party layers a validation run assembles, built
/// fluently and consumed by [`ModelRpki::validate_with`].
///
/// Defaults to the bare networked relying party: one sync per
/// directory over the simulated (faultable) network, no retries, no
/// cache, no hold-down.
#[derive(Debug)]
pub struct ValidationOptions<'a> {
    now: Moment,
    strict: bool,
    direct: bool,
    retry: Option<SyncPolicy>,
    stale_cache: Option<&'a mut ResilientState>,
    suspenders: Option<&'a mut SuspendersState>,
    incremental: Option<&'a mut ValidationState>,
    rrdp: Option<&'a mut RrdpClientState>,
    rrdp_verify: bool,
    unsafe_vrps: UnsafeVrpPolicy,
    scheduled: Option<(SchedulePlan, &'a mut SchedulerState)>,
}

impl<'a> ValidationOptions<'a> {
    /// Options for a run at `now` over the simulated network with no
    /// extra layers.
    pub fn at(now: Moment) -> Self {
        ValidationOptions {
            now,
            strict: false,
            direct: false,
            retry: None,
            stale_cache: None,
            suspenders: None,
            incremental: None,
            rrdp: None,
            rrdp_verify: true,
            unsafe_vrps: UnsafeVrpPolicy::default(),
            scheduled: None,
        }
    }

    /// Validate over a perfect transport instead of the simulated
    /// network (retries become a no-op; the stale cache still records
    /// snapshots).
    pub fn direct(mut self) -> Self {
        self.direct = true;
        self
    }

    /// Use strict (RFC 6487-style) validation instead of the default
    /// lenient profile.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Retry each directory under `policy`: deadlines, exponential
    /// backoff, digest-checked re-fetches.
    pub fn retry(mut self, policy: SyncPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Fall back to `state`'s last-good snapshots when a directory
    /// cannot be fetched, with circuit breaking; `state` persists
    /// across runs and accumulates snapshots.
    pub fn stale_cache(mut self, state: &'a mut ResilientState) -> Self {
        self.stale_cache = Some(state);
        self
    }

    /// Feed the run through `state`'s Suspenders hold-down after
    /// validation: VRPs that vanish without evidence stay effective
    /// and raise alarms. Transitions are reported through the world's
    /// recorder; read the effective cache from `state` afterwards.
    pub fn suspenders(mut self, state: &'a mut SuspendersState) -> Self {
        self.suspenders = Some(state);
        self
    }

    /// Revalidate incrementally against `state`'s per-CA memo cache:
    /// unchanged publication points replay their cached subtree instead
    /// of being re-walked, the output stays byte-identical to a cold
    /// run, and `state` carries the VRP delta against the previous run
    /// (feed it to an RTR server via
    /// [`RtrServer::publish`](rpki_rp::RtrServer::publish)).
    /// `state` persists across runs; its
    /// [stats](ValidationState::stats) are emitted through the world's
    /// recorder after each run.
    pub fn incremental(mut self, state: &'a mut ValidationState) -> Self {
        self.incremental = Some(state);
        self
    }

    /// Fetch over RRDP (notification poll, delta chains, snapshot
    /// fallback) with the rsync path as the downgrade target, keeping
    /// per-directory session state in `state` across runs. Every
    /// successful RRDP sync is cross-checked against an rsync digest
    /// probe, so a publication point replaying a frozen stale view is
    /// detected ([`RrdpClientState::note_pinned`]) and bypassed.
    /// Ignored by [`direct`](ValidationOptions::direct) runs.
    pub fn rrdp(mut self, state: &'a mut RrdpClientState) -> Self {
        self.rrdp = Some(state);
        self.rrdp_verify = true;
        self
    }

    /// Like [`rrdp`](ValidationOptions::rrdp) but without the freshness
    /// cross-check: the relying party believes whatever the RRDP feed
    /// confirms. This is the Stalloris-vulnerable configuration the
    /// downgrade campaign measures.
    pub fn rrdp_trusting(mut self, state: &'a mut RrdpClientState) -> Self {
        self.rrdp = Some(state);
        self.rrdp_verify = false;
        self
    }

    /// What to do with *unsafe* VRPs — payloads whose prefix overlaps
    /// the resources of a CA the walk rejected. The default
    /// ([`UnsafeVrpPolicy::Accept`]) skips the analysis;
    /// [`Warn`](UnsafeVrpPolicy::Warn) flags them in
    /// [`ValidationRun::unsafe_vrps`](rpki_rp::ValidationRun), and
    /// [`Reject`](UnsafeVrpPolicy::Reject) additionally drops them
    /// from the validated set.
    pub fn unsafe_vrps(mut self, policy: UnsafeVrpPolicy) -> Self {
        self.unsafe_vrps = policy;
        self
    }

    /// Drive fetching through `plan`'s notification-cadence scheduler:
    /// publication points whose refresh deadline has not arrived replay
    /// their scheduled snapshot instead of being re-fetched, hosts in
    /// breaker cooldown inherit exponential backoff, and per-run frame
    /// or time budgets defer the remainder of the sweep. `state`
    /// persists cadence estimates and snapshots across runs; a
    /// [`SchedulePlan::degenerate`] plan makes the run byte-identical
    /// to the unscheduled sweep. When combined with
    /// [`rrdp`](Self::rrdp), the plan's
    /// [`rrdp_fallback_time`](SchedulePlan::rrdp_fallback_time) gates
    /// the rsync downgrade on unreachability (routinator-style timed
    /// fallback). The scheduler stacks *outside* the stale cache, so
    /// cooldown and snapshot fallback still apply to the fetches it
    /// does admit.
    pub fn scheduled(mut self, plan: SchedulePlan, state: &'a mut SchedulerState) -> Self {
        self.scheduled = Some((plan, state));
        self
    }
}

fn run_stack<S: ObjectSource>(
    config: ValidationConfig,
    source: S,
    stale_cache: Option<&mut ResilientState>,
    incremental: Option<&mut ValidationState>,
    scheduled: Option<(SchedulePlan, &mut SchedulerState)>,
    tals: &[rpki_objects::TrustAnchorLocator],
) -> ValidationRun {
    fn walk(
        config: ValidationConfig,
        source: &mut dyn ObjectSource,
        incremental: Option<&mut ValidationState>,
        tals: &[rpki_objects::TrustAnchorLocator],
    ) -> ValidationRun {
        match incremental {
            Some(state) => Validator::new(config).run_incremental(source, tals, state),
            None => Validator::new(config).run(source, tals),
        }
    }
    // The scheduler wraps *outermost*: a not-due directory is answered
    // from the schedule snapshot before the stale cache or transport is
    // consulted, and a fetch it admits still enjoys the full resilience
    // stack underneath.
    match (stale_cache, scheduled) {
        (Some(state), Some((plan, sched))) => {
            let resilient = ResilientSource::new(source, state);
            let mut source = ScheduledSource::new(resilient, sched, plan);
            walk(config, &mut source, incremental, tals)
        }
        (Some(state), None) => {
            let mut source = ResilientSource::new(source, state);
            walk(config, &mut source, incremental, tals)
        }
        (None, Some((plan, sched))) => {
            let mut source = ScheduledSource::new(source, sched, plan);
            walk(config, &mut source, incremental, tals)
        }
        (None, None) => {
            let mut source = source;
            walk(config, &mut source, incremental, tals)
        }
    }
}

impl ModelRpki {
    /// Runs one validation with the layers selected in `opts`, emitting
    /// the run summary (and any Suspenders transitions) through the
    /// network's recorder.
    pub fn validate_with(&mut self, opts: ValidationOptions<'_>) -> ValidationRun {
        let ValidationOptions {
            now,
            strict,
            direct,
            retry,
            mut stale_cache,
            suspenders,
            mut incremental,
            rrdp,
            rrdp_verify,
            unsafe_vrps,
            mut scheduled,
        } = opts;
        let rec = self.net.recorder();
        let config =
            if strict { ValidationConfig::strict_at(now) } else { ValidationConfig::at(now) }
                .with_unsafe_policy(unsafe_vrps);
        if let Some(state) = &mut stale_cache {
            state.set_recorder(rec.clone());
        }
        if let Some((_, state)) = &mut scheduled {
            state.set_recorder(rec.clone());
        }
        let fallback_window = scheduled.as_ref().and_then(|(plan, _)| plan.rrdp_fallback_time);
        let tals = std::slice::from_ref(&self.tal);
        let run = if direct {
            run_stack(
                config,
                DirectSource::new(&self.repos),
                stale_cache,
                incremental.as_deref_mut(),
                scheduled,
                tals,
            )
        } else if let Some(state) = rrdp {
            let policy = retry.unwrap_or_default();
            let mut source =
                RrdpSource::new(&mut self.net, &self.repos, self.rp_node, state, policy);
            if !rrdp_verify {
                source = source.trusting();
            }
            if let Some(window) = fallback_window {
                source = source.fallback_after(window);
            }
            run_stack(config, source, stale_cache, incremental.as_deref_mut(), scheduled, tals)
        } else {
            let source = match retry {
                Some(policy) => {
                    NetworkSource::with_policy(&mut self.net, &self.repos, self.rp_node, policy)
                }
                None => NetworkSource::new(&mut self.net, &self.repos, self.rp_node),
            };
            run_stack(config, source, stale_cache, incremental.as_deref_mut(), scheduled, tals)
        };
        run.emit(&rec, now.0);
        if let Some(state) = incremental {
            state.stats().emit(&rec, now.0);
        }
        if let Some(susp) = suspenders {
            let events = susp.ingest(&run, now);
            if rec.is_enabled() {
                for event in &events {
                    rec.count(&format!("suspenders.{}", event.label()), 1);
                    rec.event(now.0, "suspenders", event.label())
                        .str("vrp", &event.vrp().to_string())
                        .emit();
                }
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suspenders::SuspendersConfig;
    use rpki_obs::Recorder;

    #[test]
    fn incremental_network_run_matches_cold_run() {
        // Same seed, one cold world and one incremental world: the
        // first incremental run (all misses) must be byte-identical to
        // the cold run — same network traffic, same output.
        let mut cold = ModelRpki::build_seeded(5);
        let mut warm = ModelRpki::build_seeded(5);
        let mut state = ValidationState::full();
        let a = cold.validate_with(ValidationOptions::at(Moment(2)));
        let b = warm.validate_with(ValidationOptions::at(Moment(2)).incremental(&mut state));
        assert_eq!(a, b);
        assert_eq!(state.stats().subtrees_rewalked, 4);
        assert_eq!(state.stats().subtrees_reused, 0);
        // Everything announced, nothing withdrawn on the first run.
        assert_eq!(state.last_delta().announce.len(), 8);
        assert!(state.last_delta().withdraw.is_empty());
    }

    #[test]
    fn incremental_rerun_reuses_subtrees_and_yields_delta() {
        let mut w = ModelRpki::build_seeded(5);
        let mut state = ValidationState::full();
        let first = w.validate_with(ValidationOptions::at(Moment(2)).incremental(&mut state));
        // Nothing republished: every subtree replays from the cache and
        // the delta is empty.
        let quiet = w.validate_with(ValidationOptions::at(Moment(3)).incremental(&mut state));
        assert_eq!(first.vrps, quiet.vrps);
        assert_eq!(state.stats().subtrees_reused, 4);
        assert_eq!(state.stats().subtrees_rewalked, 0);
        assert!(state.last_delta().is_empty());
        // A stealthy withdrawal plus republish dirties the content
        // digests (fresh manifests everywhere), so the walk repeats and
        // the delta carries exactly the vanished VRP.
        let file = w.covering_roa_file();
        w.continental.withdraw(&file).unwrap();
        w.publish_all(Moment(4));
        let rerun = w.validate_with(ValidationOptions::at(Moment(5)).incremental(&mut state));
        assert_eq!(rerun.vrps.len(), 7);
        assert!(state.last_delta().announce.is_empty());
        assert_eq!(state.last_delta().withdraw.len(), 1);
    }

    #[test]
    fn incremental_composes_with_retry_and_stale_cache() {
        let mut a = ModelRpki::build_seeded(5);
        let mut b = ModelRpki::build_seeded(5);
        let mut resilient = ResilientState::default();
        let mut state = ValidationState::full();
        let cold = a.validate_with(
            ValidationOptions::at(Moment(2))
                .retry(SyncPolicy::default())
                .stale_cache(&mut resilient),
        );
        let mut resilient_b = ResilientState::default();
        let warm = b.validate_with(
            ValidationOptions::at(Moment(2))
                .retry(SyncPolicy::default())
                .stale_cache(&mut resilient_b)
                .incremental(&mut state),
        );
        assert_eq!(cold, warm);
        assert_eq!(resilient.snapshot_count(), resilient_b.snapshot_count());
    }

    #[test]
    fn direct_transport_with_stale_cache_records_snapshots() {
        let mut w = ModelRpki::build();
        let mut state = ResilientState::default();
        let run =
            w.validate_with(ValidationOptions::at(Moment(2)).direct().stale_cache(&mut state));
        assert_eq!(run.vrps.len(), 8);
        assert!(state.snapshot_count() >= 4);
    }

    #[test]
    fn suspenders_layer_ingests_and_traces() {
        let mut w = ModelRpki::build();
        let rec = Recorder::new();
        w.net.set_recorder(rec.clone());
        let mut susp = SuspendersState::new(SuspendersConfig::default());
        w.validate_with(ValidationOptions::at(Moment(2)).suspenders(&mut susp));
        assert_eq!(susp.len(), 8);
        // Stealthy withdrawal: the hold-down keeps the VRP effective
        // and the transition lands in the trace.
        let file = w.covering_roa_file();
        w.continental.withdraw(&file).unwrap();
        w.publish_all(Moment(3));
        w.validate_with(ValidationOptions::at(Moment(4)).suspenders(&mut susp));
        assert_eq!(susp.len(), 8);
        assert_eq!(susp.held().len(), 1);
        assert_eq!(rec.metrics().counter("suspenders.held_suspicious"), 1);
        assert!(rec
            .events()
            .iter()
            .any(|e| e.layer == "suspenders" && e.kind == "held_suspicious" && e.at == 4));
    }

    #[test]
    fn rrdp_run_matches_cold_network_run() {
        let mut cold = ModelRpki::build_seeded(5);
        let mut warm = ModelRpki::build_seeded(5);
        let mut state = RrdpClientState::new();
        let a = cold.validate_with(ValidationOptions::at(Moment(2)));
        let b = warm.validate_with(ValidationOptions::at(Moment(2)).rrdp(&mut state));
        assert_eq!(a, b, "RRDP-sourced output must equal the rsync cold walk");
        assert_eq!(state.stats().snapshot_syncs, 5, "first contact snapshots every pub point");
        assert_eq!(state.stats().downgrades, 0);
        // A quiet re-run is all fast-path confirmations, same output.
        let c = warm.validate_with(ValidationOptions::at(Moment(3)).rrdp(&mut state));
        assert_eq!(a.vrps, c.vrps);
        assert_eq!(state.stats().unchanged, 5);
    }

    #[test]
    fn rrdp_run_survives_an_offline_rrdp_endpoint() {
        let mut w = ModelRpki::build_seeded(5);
        let baseline = w.validate_with(ValidationOptions::at(Moment(2)));
        for host in ["rpki.arin.example", "rpki.sprint.example", "rpki.continental.example"] {
            if let Some(repo) = w.repos.by_host_mut(host) {
                repo.set_rrdp_offline(true);
            }
        }
        let mut state = RrdpClientState::new();
        let run = w.validate_with(ValidationOptions::at(Moment(3)).rrdp(&mut state));
        assert_eq!(run.vrps, baseline.vrps, "the rsync fallback must keep the RP whole");
        assert!(state.stats().downgrades > 0);
    }

    #[test]
    fn trusting_rrdp_stays_pinned_while_verified_recovers() {
        let mut trusting_world = ModelRpki::build_seeded(9);
        let mut verified_world = ModelRpki::build_seeded(9);
        let mut trusting = RrdpClientState::new();
        let mut verified = RrdpClientState::new();
        trusting_world.validate_with(ValidationOptions::at(Moment(2)).rrdp_trusting(&mut trusting));
        verified_world.validate_with(ValidationOptions::at(Moment(2)).rrdp(&mut verified));
        // The CONTINENTAL host pins its feed, then whacks the covering
        // ROA (the paper's stealthy delete).
        for w in [&mut trusting_world, &mut verified_world] {
            w.repos.by_host_mut("rpki.continental.example").unwrap().rrdp_pin();
            let file = w.covering_roa_file();
            w.continental.withdraw(&file).unwrap();
            w.publish_all(Moment(3));
        }
        let t = trusting_world
            .validate_with(ValidationOptions::at(Moment(4)).rrdp_trusting(&mut trusting));
        let v = verified_world.validate_with(ValidationOptions::at(Moment(4)).rrdp(&mut verified));
        assert_eq!(t.vrps.len(), 8, "the trusting RP still sees the whacked ROA");
        assert_eq!(v.vrps.len(), 7, "the verified RP sees the truth via the downgrade");
        assert!(verified.stats().pinned_detected > 0);
        assert_eq!(trusting.stats().pinned_detected, 0);
    }

    #[test]
    fn incremental_option_matches_cold_and_traces() {
        let mut plain = ModelRpki::build_seeded(5);
        let mut warm = ModelRpki::build_seeded(5);
        let rec = Recorder::new();
        warm.net.set_recorder(rec.clone());
        let a = plain.validate_with(ValidationOptions::at(Moment(2)));
        let mut state = ValidationState::full();
        let b = warm.validate_with(ValidationOptions::at(Moment(2)).incremental(&mut state));
        assert_eq!(a, b, "the incremental walk must be byte-identical to the cold walk");
        assert_eq!(rec.metrics().counter("rp.incremental.runs"), 1);
        assert!(rec.events().iter().any(|e| e.layer == "rp" && e.kind == "incremental"));
        // A quiet re-run replays every subtree, still byte-identical.
        let again = warm.validate_with(ValidationOptions::at(Moment(3)).incremental(&mut state));
        assert_eq!(again.vrps, a.vrps);
        assert_eq!(state.stats().subtrees_reused, 4);
        assert_eq!(rec.metrics().counter("rp.incremental.runs"), 2);
    }

    #[test]
    fn scheduled_degenerate_matches_sweep_and_rerun_is_zero_frames() {
        let mut plain = ModelRpki::build_seeded(5);
        let mut degen = ModelRpki::build_seeded(5);
        let mut sched = ModelRpki::build_seeded(5);
        let a = plain.validate_with(ValidationOptions::at(Moment(2)));
        // Degenerate plan: byte-identical output, identical traffic.
        let mut dstate = SchedulerState::new();
        let d = degen.validate_with(
            ValidationOptions::at(Moment(2)).scheduled(SchedulePlan::degenerate(), &mut dstate),
        );
        assert_eq!(a, d);
        assert_eq!(plain.net.stats().sent, degen.net.stats().sent);
        // A real plan: the first run fetches every point; an immediate
        // re-run finds nothing due and costs zero frames.
        let mut state = SchedulerState::new();
        let plan = SchedulePlan::default();
        let first =
            sched.validate_with(ValidationOptions::at(Moment(2)).scheduled(plan, &mut state));
        assert_eq!(first.vrps, a.vrps);
        let before = sched.net.stats().sent;
        let again =
            sched.validate_with(ValidationOptions::at(Moment(3)).scheduled(plan, &mut state));
        assert_eq!(again.vrps, a.vrps);
        assert_eq!(sched.net.stats().sent, before, "not-due points must cost zero frames");
        assert_eq!(state.last_run().fetched, 0);
        assert!(state.last_run().not_due > 0);
    }

    #[test]
    fn scheduled_composes_with_rrdp_and_gates_fallback() {
        let mut w = ModelRpki::build_seeded(5);
        let baseline = w.validate_with(ValidationOptions::at(Moment(2)));
        w.repos.by_host_mut("rpki.continental.example").unwrap().set_rrdp_offline(true);
        let mut rrdp = RrdpClientState::new();
        let mut state = SchedulerState::new();
        let plan = SchedulePlan { min_refresh: 0, max_refresh: 0, jitter: 0, ..Default::default() };
        // Inside the fallback window the RP defers the rsync downgrade
        // and reports the point unreachable rather than silently
        // switching transports.
        let run = w.validate_with(
            ValidationOptions::at(Moment(3)).rrdp(&mut rrdp).scheduled(plan, &mut state),
        );
        assert!(run.vrps.len() < baseline.vrps.len());
        assert!(rrdp.stats().fallback_deferrals > 0);
        assert_eq!(rrdp.stats().downgrades, 0);
        // Past the window the deferred point downgrades to rsync and
        // the RP is whole again.
        w.net.advance_to(w.net.now() + 4_000);
        let run = w.validate_with(
            ValidationOptions::at(Moment(4)).rrdp(&mut rrdp).scheduled(plan, &mut state),
        );
        assert_eq!(run.vrps, baseline.vrps);
        assert!(rrdp.stats().fallback_switches > 0);
        assert!(rrdp.stats().downgrades > 0);
    }

    #[test]
    fn strict_mode_flows_through() {
        let mut a = ModelRpki::build();
        let strict = a.validate_with(ValidationOptions::at(Moment(2)).strict());
        let lenient = a.validate_with(ValidationOptions::at(Moment(2)));
        // The model world is well-formed, so both profiles agree; the
        // point is that the flag reaches the validator unchanged.
        assert_eq!(strict.vrps, lenient.vrps);
    }
}
