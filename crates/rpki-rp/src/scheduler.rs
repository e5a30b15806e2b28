//! The notification-cadence fetch scheduler.
//!
//! Production relying parties do not sweep every publication point on
//! every validation run: routinator schedules each point by its own
//! update cadence and re-polls it when its refresh interval expires.
//! [`ScheduledSource`] brings that discipline to the simulated relying
//! party. It wraps any [`ObjectSource`] and, per publication point:
//!
//! - tracks an **EWMA of observed inter-change times** (the RRDP
//!   notification cadence, as seen through content-digest changes) and
//!   derives the next refresh deadline from it, clamped to
//!   [`SchedulePlan::min_refresh`]/[`SchedulePlan::max_refresh`];
//!   points that keep confirming unchanged decay geometrically toward
//!   `max_refresh`, points that churn converge onto their real cadence;
//! - adds **seeded deterministic jitter** so deadlines de-synchronize
//!   instead of thundering in lockstep;
//! - charges every delegated fetch against a per-run **frame budget**
//!   and **time budget**; once either is spent, still-due points are
//!   deferred to the next run and served from the scheduler's last-good
//!   snapshot (the starvation surface the slow-serve campaign games);
//! - puts failing hosts on **exponential backoff**: after
//!   [`SchedulePlan::failure_threshold`] consecutive failed contacts
//!   the whole host is skipped for a doubling cool-down instead of
//!   being re-polled every run — the scheduler-side continuation of the
//!   [`FetchHealth`](crate::resilience::FetchHealth) circuit breaker.
//!
//! A point that is **not due** costs zero frames: `probe_dir` answers
//! from the recorded content marker (so an incremental validator
//! replays the memoized subtree without touching the wire) and
//! `load_dir` serves the scheduler's own snapshot.
//!
//! The **degenerate plan** ([`SchedulePlan::degenerate`]) — zero
//! cadence, infinite budget, no jitter, no backoff — delegates every
//! call 1:1, which makes the scheduled stack byte-identical to the
//! full-sweep baseline. That equivalence is the correctness anchor
//! (proptested in `tests/scheduler_equivalence.rs`); everything the
//! scheduler saves must come from schedule policy, never from silently
//! changing what a delegated fetch returns.

use std::collections::BTreeMap;

use rpki_objects::RepoUri;
use rpki_obs::Recorder;
use rpki_repo::{DirProbe, Freshness, SyncOutcome};
use rpkisim_crypto::Digest;
use serde::Serialize;

use crate::source::ObjectSource;

/// The schedule policy: cadence clamps, jitter, budgets, backoff.
///
/// All durations are simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SchedulePlan {
    /// Shortest refresh interval a point can earn, however fast its
    /// observed cadence.
    pub min_refresh: u64,
    /// Longest refresh interval a quiet point decays to.
    pub max_refresh: u64,
    /// Deadlines get a deterministic per-point offset in
    /// `[0, jitter)`, derived from [`SchedulePlan::seed`], so points
    /// sharing a cadence do not all come due on the same run.
    pub jitter: u64,
    /// Seed for the jitter hash.
    pub seed: u64,
    /// Frames one run may spend on delegated fetches before the rest
    /// of the due set is deferred; `None` is unlimited.
    pub frame_budget: Option<u64>,
    /// Simulated seconds one run may spend inside delegated fetches
    /// before the rest of the due set is deferred; `None` is
    /// unlimited. This is the budget a slow-serving authority burns.
    pub time_budget: Option<u64>,
    /// Consecutive failed contacts before a host trips into backoff.
    pub failure_threshold: u32,
    /// First backoff cool-down; doubles per consecutive trip.
    pub backoff_base: u64,
    /// Ceiling on the doubling backoff cool-down.
    pub backoff_cap: u64,
    /// Wired into [`RrdpSource::fallback_after`](crate::RrdpSource):
    /// how long an RRDP notification must stay unreachable before the
    /// rsync fallback fires. `None` falls back on the first failure.
    pub rrdp_fallback_time: Option<u64>,
}

impl Default for SchedulePlan {
    /// Routinator-flavoured defaults: 10-minute floor, daily ceiling,
    /// 10-minute jitter, hour-long RRDP fallback window, unlimited
    /// budgets (callers opt into scarcity explicitly).
    fn default() -> Self {
        SchedulePlan {
            min_refresh: 600,
            max_refresh: 86_400,
            jitter: 600,
            seed: 0x5c4e_d01e,
            frame_budget: None,
            time_budget: None,
            failure_threshold: 3,
            backoff_base: 600,
            backoff_cap: 14_400,
            rrdp_fallback_time: Some(3_600),
        }
    }
}

impl SchedulePlan {
    /// The identity schedule: every point is due on every run, budgets
    /// are unlimited, jitter and backoff are off, and RRDP falls back
    /// immediately. A stack under this plan is byte-identical to the
    /// unscheduled full sweep.
    pub fn degenerate() -> Self {
        SchedulePlan {
            min_refresh: 0,
            max_refresh: 0,
            jitter: 0,
            seed: 0,
            frame_budget: None,
            time_budget: None,
            failure_threshold: u32::MAX,
            backoff_base: 0,
            backoff_cap: 0,
            rrdp_fallback_time: None,
        }
    }

    fn clamp_interval(&self, interval: u64) -> u64 {
        interval.clamp(self.min_refresh, self.max_refresh)
    }

    fn jitter_for(&self, dir: &RepoUri) -> u64 {
        if self.jitter == 0 {
            return 0;
        }
        splitmix64(self.seed ^ fnv1a(dir.to_string().as_bytes())) % self.jitter
    }
}

/// The SplitMix64 finalizer: one deterministic, well-mixed u64 per
/// input.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// One publication point's schedule entry.
#[derive(Debug, Clone)]
struct DirSchedule {
    /// Simulated time this point next owes a wire contact.
    next_due: u64,
    /// Current refresh interval (already clamped).
    interval: u64,
    /// EWMA of observed inter-change times; 0 until two changes have
    /// been observed.
    ewma: u64,
    /// When the last content change was observed.
    last_changed_at: u64,
    /// When the last successful contact (load or confirming poll)
    /// finished.
    last_success: u64,
    /// Content digest of the last complete fetch.
    marker: Option<Digest>,
    /// Last-good file set, served while the point is not due or the
    /// budget deferred it.
    files: BTreeMap<String, Vec<u8>>,
    /// Whether a complete fetch has ever populated `files`.
    listed: bool,
}

/// One host's backoff bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct HostSchedule {
    consecutive_failures: u32,
    /// Consecutive backoff trips; the cool-down doubles per trip.
    trips: u32,
    backoff_until: Option<u64>,
}

/// Cumulative scheduler counters; all plain integers so campaign
/// metrics built on them replay byte-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SchedulerStats {
    /// Validation runs the scheduler has fronted.
    pub runs: u64,
    /// Directory visits that were due (delegated, or deferred on
    /// budget).
    pub due: u64,
    /// Directory visits answered from schedule state at zero frames.
    pub not_due: u64,
    /// Full fetches delegated to the wrapped source.
    pub fetched: u64,
    /// Digest polls delegated to the wrapped source.
    pub polled: u64,
    /// Due visits deferred because a budget was spent.
    pub deferred: u64,
    /// Visits skipped because the host was in backoff.
    pub backoff_skips: u64,
    /// Hosts tripped into backoff.
    pub backoff_trips: u64,
    /// Content changes observed (fetches whose digest moved).
    pub changes_observed: u64,
    /// Polls that confirmed an unchanged point.
    pub unchanged_polls: u64,
    /// Frames charged against run budgets, cumulative.
    pub frames_charged: u64,
    /// Simulated seconds charged against run budgets, cumulative.
    pub time_charged: u64,
}

/// Counters of a single run (reset when a [`ScheduledSource`] begins
/// its run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RunStats {
    /// Sim time the run started.
    pub started_at: u64,
    /// Due visits this run.
    pub due: u64,
    /// Zero-frame visits this run.
    pub not_due: u64,
    /// Delegated full fetches this run.
    pub fetched: u64,
    /// Delegated digest polls this run.
    pub polled: u64,
    /// Budget deferrals this run.
    pub deferred: u64,
    /// Backoff skips this run.
    pub backoff_skips: u64,
    /// Frames spent on delegated work this run.
    pub frames_used: u64,
    /// Simulated seconds spent inside delegated work this run.
    pub time_used: u64,
    /// Oldest `now - last_success` over points this run deferred or
    /// served not-due — the staleness a starved schedule accrues.
    pub max_served_age: u64,
}

/// Persistent scheduler state: per-point schedules, per-host backoff,
/// cumulative stats. Owned by the experiment/relying party and lent to
/// a fresh [`ScheduledSource`] each run, like
/// [`ResilientState`](crate::resilience::ResilientState).
#[derive(Debug, Default)]
pub struct SchedulerState {
    dirs: BTreeMap<String, DirSchedule>,
    hosts: BTreeMap<String, HostSchedule>,
    stats: SchedulerStats,
    run: RunStats,
    recorder: Recorder,
}

impl SchedulerState {
    /// Fresh state: every point starts unknown, so the first run is a
    /// full sweep by construction.
    pub fn new() -> Self {
        SchedulerState::default()
    }

    /// Installs an observability recorder; deferrals and backoff
    /// transitions are emitted into it. Disabled by default.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Counters of the current (or just-finished) run.
    pub fn last_run(&self) -> RunStats {
        self.run
    }

    /// Number of publication points with a schedule entry.
    pub fn tracked_dirs(&self) -> usize {
        self.dirs.len()
    }

    /// When `dir` next owes a wire contact, if it is tracked.
    pub fn next_due(&self, dir: &RepoUri) -> Option<u64> {
        self.dirs.get(&dir.to_string()).map(|d| d.next_due)
    }

    /// The refresh interval `dir` has currently earned, if tracked.
    pub fn interval(&self, dir: &RepoUri) -> Option<u64> {
        self.dirs.get(&dir.to_string()).map(|d| d.interval)
    }

    /// Whether `host` is currently in backoff at `now`.
    pub fn host_backing_off(&self, host: &str, now: u64) -> bool {
        self.hosts.get(host).is_some_and(|h| h.backoff_until.is_some_and(|until| now < until))
    }

    /// Starts a new run's budget window.
    fn begin_run(&mut self, now: u64) {
        self.stats.runs += 1;
        self.run = RunStats { started_at: now, ..RunStats::default() };
    }

    fn record_success(&mut self, host: &str) {
        let entry = self.hosts.entry(host.to_owned()).or_default();
        entry.consecutive_failures = 0;
        entry.trips = 0;
        entry.backoff_until = None;
    }

    fn record_failure(&mut self, host: &str, now: u64, plan: &SchedulePlan) {
        let entry = self.hosts.entry(host.to_owned()).or_default();
        entry.consecutive_failures += 1;
        if entry.consecutive_failures >= plan.failure_threshold && plan.backoff_base > 0 {
            entry.trips += 1;
            let shift = (entry.trips - 1).min(16);
            let cooldown = plan
                .backoff_base
                .checked_shl(shift)
                .unwrap_or(u64::MAX)
                .min(plan.backoff_cap.max(plan.backoff_base));
            entry.backoff_until = Some(now + cooldown);
            entry.consecutive_failures = 0;
            self.stats.backoff_trips += 1;
            if self.recorder.is_enabled() {
                self.recorder.count("rp.schedule_backoffs", 1);
                self.recorder
                    .event(now, "rp", "schedule_backoff")
                    .str("host", host)
                    .u64("trips", u64::from(entry.trips))
                    .u64("until", now + cooldown)
                    .emit();
            }
        }
    }
}

/// An [`ObjectSource`] adapter that only lets due publication points
/// reach the wrapped source. See the module docs for the policy.
pub struct ScheduledSource<'s, S> {
    inner: S,
    state: &'s mut SchedulerState,
    plan: SchedulePlan,
}

impl<'s, S: ObjectSource> ScheduledSource<'s, S> {
    /// Wraps `inner` under `plan`, starting a fresh run budget.
    pub fn new(inner: S, state: &'s mut SchedulerState, plan: SchedulePlan) -> Self {
        let now = inner.now();
        state.begin_run(now);
        ScheduledSource { inner, state, plan }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn budget_spent(&self) -> bool {
        self.plan.frame_budget.is_some_and(|b| self.state.run.frames_used >= b)
            || self.plan.time_budget.is_some_and(|b| self.state.run.time_used >= b)
    }

    /// Whether `dir` owes a wire contact right now. Unknown points are
    /// always due; backed-off hosts are never polled.
    fn due(&self, dir: &RepoUri, now: u64) -> DueState {
        if self.state.host_backing_off(dir.host(), now) {
            return DueState::BackedOff;
        }
        match self.state.dirs.get(&dir.to_string()) {
            None => DueState::Due,
            Some(entry) if entry.next_due <= now => DueState::Due,
            Some(_) => DueState::NotDue,
        }
    }

    /// Serves `dir` from schedule state without touching the wire.
    fn serve_snapshot(&mut self, dir: &RepoUri, now: u64) -> SyncOutcome {
        let Some(entry) = self.state.dirs.get(&dir.to_string()) else {
            return SyncOutcome::unreachable(dir.clone());
        };
        if !entry.listed {
            return SyncOutcome::unreachable(dir.clone());
        }
        let age = now.saturating_sub(entry.last_success);
        self.state.run.max_served_age = self.state.run.max_served_age.max(age);
        let mut out = SyncOutcome::fresh(dir.clone(), entry.files.clone());
        out.content = entry.marker;
        out
    }

    /// Charges one delegated exchange against the run budget.
    fn charge(&mut self, frames_before: Option<u64>, t0: u64) {
        let frames = self
            .inner
            .wire_frames()
            .zip(frames_before)
            .map_or(0, |(after, before)| after.saturating_sub(before));
        let elapsed = self.inner.now().saturating_sub(t0);
        self.state.run.frames_used += frames;
        self.state.run.time_used += elapsed;
        self.state.stats.frames_charged += frames;
        self.state.stats.time_charged += elapsed;
    }

    fn note_deferred(&mut self, dir: &RepoUri, now: u64) {
        self.state.run.deferred += 1;
        self.state.stats.deferred += 1;
        if self.state.recorder.is_enabled() {
            self.state.recorder.count("rp.schedule_deferrals", 1);
            self.state
                .recorder
                .event(now, "rp", "schedule_defer")
                .str("host", dir.host())
                .u64("frames_used", self.state.run.frames_used)
                .u64("time_used", self.state.run.time_used)
                .emit();
        }
    }

    /// Folds a successful fetch's digest into the schedule: changed
    /// content feeds the cadence EWMA, unchanged content decays the
    /// interval geometrically toward `max_refresh`.
    fn reschedule_after_fetch(&mut self, dir: &RepoUri, outcome: &SyncOutcome) {
        let done = self.inner.now();
        let digest = outcome.content_digest();
        let key = dir.to_string();
        let plan = self.plan;
        let entry = self.state.dirs.entry(key).or_insert_with(|| DirSchedule {
            next_due: 0,
            interval: plan.min_refresh,
            ewma: 0,
            last_changed_at: done,
            last_success: done,
            marker: None,
            files: BTreeMap::new(),
            listed: false,
        });
        let changed = entry.marker != digest;
        if changed {
            if entry.marker.is_some() {
                // Second or later observed change: a cadence sample.
                let sample = done.saturating_sub(entry.last_changed_at).max(1);
                entry.ewma = if entry.ewma == 0 { sample } else { (3 * entry.ewma + sample) / 4 };
                entry.interval = plan.clamp_interval(entry.ewma);
            } else {
                // First contact: start attentive and let decay or the
                // EWMA move the interval from here.
                entry.interval = plan.min_refresh;
            }
            entry.last_changed_at = done;
            self.state.stats.changes_observed += 1;
        } else {
            // Confirmed unchanged: decay geometrically toward the
            // ceiling. `max(1)` keeps a zero interval (the degenerate
            // plan) moving through the clamp instead of sticking at 0
            // by accident — the clamp pins it back to the plan's range.
            entry.interval = plan.clamp_interval(entry.interval.saturating_mul(2).max(1));
        }
        entry.marker = digest;
        entry.files = outcome.files.clone();
        entry.listed = true;
        entry.last_success = done;
        entry.next_due = done + entry.interval + plan.jitter_for(dir);
    }

    /// Reschedules a confirming (unchanged) digest poll.
    fn reschedule_after_poll(&mut self, dir: &RepoUri) {
        let done = self.inner.now();
        let plan = self.plan;
        if let Some(entry) = self.state.dirs.get_mut(&dir.to_string()) {
            entry.interval = plan.clamp_interval(entry.interval.saturating_mul(2).max(1));
            entry.last_success = done;
            entry.next_due = done + entry.interval + plan.jitter_for(dir);
        }
        self.state.stats.unchanged_polls += 1;
    }

    /// Reschedules after a failed contact: per-point retry pacing on
    /// top of the host-level backoff [`SchedulerState::record_failure`]
    /// may have armed.
    fn reschedule_after_failure(&mut self, dir: &RepoUri) {
        let done = self.inner.now();
        let retry = self.plan.backoff_base.max(self.plan.min_refresh);
        if let Some(entry) = self.state.dirs.get_mut(&dir.to_string()) {
            entry.next_due = done + retry;
        }
    }
}

enum DueState {
    Due,
    NotDue,
    BackedOff,
}

impl<S: ObjectSource> ObjectSource for ScheduledSource<'_, S> {
    fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
        let now = self.inner.now();
        match self.due(dir, now) {
            DueState::BackedOff => {
                self.state.run.backoff_skips += 1;
                self.state.stats.backoff_skips += 1;
                return self.serve_snapshot(dir, now);
            }
            DueState::NotDue => {
                self.state.run.not_due += 1;
                self.state.stats.not_due += 1;
                return self.serve_snapshot(dir, now);
            }
            DueState::Due => {}
        }
        self.state.run.due += 1;
        self.state.stats.due += 1;
        let has_snapshot = self.state.dirs.get(&dir.to_string()).is_some_and(|e| e.listed);
        if self.budget_spent() && has_snapshot {
            // Budget gone: defer to the next run. A point with no
            // snapshot is fetched regardless — deferral must never
            // blank out a subtree the validator has never seen.
            self.note_deferred(dir, now);
            return self.serve_snapshot(dir, now);
        }
        let frames_before = self.inner.wire_frames();
        let outcome = self.inner.load_dir(dir);
        self.charge(frames_before, now);
        self.state.run.fetched += 1;
        self.state.stats.fetched += 1;
        // A stale outcome means a resilience layer below already
        // bridged a failed contact; schedule-wise that is a failure.
        let contact_ok = outcome.listed && outcome.freshness == Freshness::Fresh;
        if contact_ok {
            self.state.record_success(dir.host());
            self.reschedule_after_fetch(dir, &outcome);
        } else {
            let done = self.inner.now();
            self.state.record_failure(dir.host(), done, &self.plan);
            self.reschedule_after_failure(dir);
        }
        outcome
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn wire_frames(&self) -> Option<u64> {
        self.inner.wire_frames()
    }

    fn probe_dir(&mut self, dir: &RepoUri) -> Option<DirProbe> {
        let now = self.inner.now();
        match self.due(dir, now) {
            DueState::BackedOff | DueState::NotDue => {
                // Zero-frame answer from the recorded marker: a
                // matching incremental memo replays without any wire
                // traffic at all.
                let entry = self.state.dirs.get(&dir.to_string())?;
                if !entry.listed {
                    return None;
                }
                let age = now.saturating_sub(entry.last_success);
                self.state.run.max_served_age = self.state.run.max_served_age.max(age);
                self.state.run.not_due += 1;
                self.state.stats.not_due += 1;
                return Some(DirProbe { dir: dir.clone(), listed: true, digest: entry.marker });
            }
            DueState::Due => {}
        }
        let has_snapshot =
            self.state.dirs.get(&dir.to_string()).is_some_and(|e| e.listed && e.marker.is_some());
        if self.budget_spent() && has_snapshot {
            self.state.run.due += 1;
            self.state.stats.due += 1;
            self.note_deferred(dir, now);
            let entry = &self.state.dirs[&dir.to_string()];
            return Some(DirProbe { dir: dir.clone(), listed: true, digest: entry.marker });
        }
        let frames_before = self.inner.wire_frames();
        let probe = self.inner.probe_dir(dir)?;
        self.charge(frames_before, now);
        self.state.run.polled += 1;
        self.state.stats.polled += 1;
        if probe.listed {
            let matches = self
                .state
                .dirs
                .get(&dir.to_string())
                .is_some_and(|e| e.marker.is_some() && e.marker == probe.digest);
            if matches {
                // Confirmed unchanged: this poll settles the visit, so
                // it counts as the due contact and reschedules.
                self.state.run.due += 1;
                self.state.stats.due += 1;
                self.state.record_success(dir.host());
                self.reschedule_after_poll(dir);
            }
            // A digest mismatch leaves the entry due: the follow-up
            // load_dir performs the real fetch and reschedules there.
        }
        Some(probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scriptable inner source with a settable clock and content
    /// version, counting wire activity.
    struct FakeSource {
        now: u64,
        up: bool,
        version: u8,
        frames: u64,
        loads: u64,
        probes: u64,
    }

    impl FakeSource {
        fn new(now: u64) -> Self {
            FakeSource { now, up: true, version: 1, frames: 0, loads: 0, probes: 0 }
        }

        fn outcome(&self, dir: &RepoUri) -> SyncOutcome {
            let mut files = BTreeMap::new();
            files.insert("a.roa".to_owned(), vec![self.version]);
            let mut out = SyncOutcome::fresh(dir.clone(), files);
            out.content = out.content_digest();
            out
        }
    }

    impl ObjectSource for FakeSource {
        fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
            self.loads += 1;
            self.frames += 4;
            if self.up {
                self.outcome(dir)
            } else {
                SyncOutcome::unreachable(dir.clone())
            }
        }

        fn now(&self) -> u64 {
            self.now
        }

        fn probe_dir(&mut self, dir: &RepoUri) -> Option<DirProbe> {
            self.probes += 1;
            self.frames += 1;
            if self.up {
                let digest = self.outcome(dir).content_digest();
                Some(DirProbe { dir: dir.clone(), listed: true, digest })
            } else {
                None
            }
        }

        fn wire_frames(&self) -> Option<u64> {
            Some(self.frames)
        }
    }

    fn dir(n: u32) -> RepoUri {
        RepoUri::new("h", &["repo", &format!("ca{n}")])
    }

    fn plan() -> SchedulePlan {
        SchedulePlan { min_refresh: 100, max_refresh: 1_600, jitter: 0, ..SchedulePlan::default() }
    }

    #[test]
    fn first_contact_fetches_then_not_due_serves_snapshot() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, plan());
            let out = src.load_dir(&dir(0));
            assert!(out.is_complete());
        }
        assert_eq!(inner.loads, 1);
        assert_eq!(state.next_due(&dir(0)), Some(100));
        // Second run before the deadline: zero wire activity, same
        // bytes.
        inner.now = 50;
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, plan());
            let out = src.load_dir(&dir(0));
            assert!(out.is_complete());
            assert_eq!(out.files["a.roa"], vec![1]);
        }
        assert_eq!(inner.loads, 1, "a not-due point must not touch the wire");
        assert_eq!(state.stats().not_due, 1);
    }

    #[test]
    fn unchanged_confirmations_decay_toward_max_refresh() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = plan();
        let mut expected = p.min_refresh;
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        for _ in 0..6 {
            inner.now = state.next_due(&dir(0)).unwrap();
            ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
            expected = (expected * 2).min(p.max_refresh);
            assert_eq!(state.interval(&dir(0)), Some(expected));
        }
        assert_eq!(state.interval(&dir(0)), Some(p.max_refresh));
    }

    #[test]
    fn cadence_ewma_converges_onto_change_rate() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = plan();
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        // The point changes every 400 s, and we poll it when due.
        for round in 1..=8u64 {
            inner.now = round * 400;
            inner.version = inner.version.wrapping_add(1);
            ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        }
        let interval = state.interval(&dir(0)).unwrap();
        assert!(
            (300..=500).contains(&interval),
            "EWMA should track the 400 s cadence, got {interval}"
        );
    }

    #[test]
    fn frame_budget_defers_and_first_contact_overrides() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = SchedulePlan { frame_budget: Some(4), ..plan() };
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            // First contact always fetches, even with the budget gone
            // after the first load (4 frames ≥ budget 4).
            assert!(src.load_dir(&dir(0)).is_complete());
            assert!(src.load_dir(&dir(1)).is_complete(), "no snapshot yet: must fetch");
        }
        assert_eq!(inner.loads, 2);
        // Next run: both due again (make them due), budget allows one.
        inner.now = 10_000;
        inner.version = 7;
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            assert!(src.load_dir(&dir(0)).is_complete());
            let out = src.load_dir(&dir(1));
            assert!(out.is_complete(), "deferred point serves its snapshot");
            assert_eq!(out.files["a.roa"], vec![1], "snapshot bytes, not the new version");
        }
        assert_eq!(inner.loads, 3, "the second point was deferred, not fetched");
        assert_eq!(state.stats().deferred, 1);
        assert!(state.last_run().max_served_age > 0);
    }

    #[test]
    fn failing_host_trips_into_exponential_backoff() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p =
            SchedulePlan { failure_threshold: 2, backoff_base: 200, backoff_cap: 1_000, ..plan() };
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        inner.up = false;
        for run in 0..2u64 {
            inner.now = 1_000 + run * 500;
            ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        }
        assert!(state.host_backing_off("h", 1_600));
        assert_eq!(state.stats().backoff_trips, 1);
        // While backing off, the snapshot serves and the wire stays
        // quiet.
        let loads_before = inner.loads;
        inner.now = 1_600;
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            let out = src.load_dir(&dir(0));
            assert!(out.is_complete());
        }
        assert_eq!(inner.loads, loads_before);
        assert_eq!(state.stats().backoff_skips, 1);
    }

    #[test]
    fn degenerate_plan_delegates_everything() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = SchedulePlan::degenerate();
        for run in 0..5u64 {
            inner.now = run * 7;
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            src.probe_dir(&dir(0));
            src.load_dir(&dir(0));
        }
        assert_eq!(inner.loads, 5, "every run must reach the wire");
        assert_eq!(inner.probes, 5);
        assert_eq!(state.stats().not_due, 0);
        assert_eq!(state.stats().deferred, 0);
    }

    #[test]
    fn not_due_probe_replays_marker_digest() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = plan();
        let marker = {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            src.load_dir(&dir(0)).content_digest()
        };
        inner.now = 10;
        let probes_before = inner.probes;
        let probe = {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            src.probe_dir(&dir(0)).unwrap()
        };
        assert_eq!(inner.probes, probes_before, "not-due probe is answered locally");
        assert!(probe.listed);
        assert_eq!(probe.digest, marker);
    }

    #[test]
    fn due_probe_confirming_unchanged_reschedules() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = plan();
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        inner.now = state.next_due(&dir(0)).unwrap();
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            let probe = src.probe_dir(&dir(0)).unwrap();
            assert!(probe.listed);
        }
        assert_eq!(state.stats().unchanged_polls, 1);
        assert!(state.next_due(&dir(0)).unwrap() > inner.now, "the poll rescheduled the point");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = SchedulePlan { jitter: 300, ..SchedulePlan::default() };
        let a = p.jitter_for(&dir(1));
        let b = p.jitter_for(&dir(2));
        assert!(a < 300 && b < 300);
        assert_eq!(a, p.jitter_for(&dir(1)), "same seed, same point, same offset");
        let other = SchedulePlan { seed: 99, ..p };
        // Different seeds de-correlate (overwhelmingly likely to
        // differ for at least one of two points).
        assert!(a != other.jitter_for(&dir(1)) || b != other.jitter_for(&dir(2)));
    }
}
