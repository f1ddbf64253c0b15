//! The superposed Poisson event stream the asynchronous (§2) and PRP
//! (§4) drivers replay: recovery points at rate μᵢ, pair interactions
//! at rate λᵢⱼ and, under fault injection, latent errors — all drawn
//! from one [`PoissonRace`] on the workload stream. The two drivers
//! share its history generator and its fault-injection episode loop;
//! they differ only in whether an RP implants PRPs in its peers and in
//! the rule a detected error rolls back under.

use rbmarkov::paper::AsyncParams;
use rbsim::{PoissonRace, SimRng, StreamId};

use crate::fault::{Contamination, FaultConfig, FaultState};
use crate::history::{History, HistoryArena, ProcessId};
use crate::metrics::{RollbackOutcome, SchemeMetrics};
use crate::rollback::{propagate_rollback, RollbackRule};

/// One kind of event in the superposed stream.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EventKind {
    /// Recovery point (= acceptance test) in a process.
    Rp(usize),
    /// Interaction of a pair.
    Interaction(usize, usize),
    /// Latent error arises in a process.
    Error(usize),
}

/// The seeded event stream of one driver, with the fault draws of its
/// episodes on a stream of their own.
pub(crate) struct EventStream {
    n: usize,
    rng: SimRng,
    race: PoissonRace,
    kinds: Vec<EventKind>,
    fault_rng: SimRng,
}

impl EventStream {
    /// The stream of `params` (plus the error categories of `fault`)
    /// under `seed`. Category order is part of the artifact contract:
    /// every RP, then the positive-rate pairs `(i, j), i < j`, then the
    /// positive error rates.
    pub(crate) fn new(params: &AsyncParams, fault: Option<&FaultConfig>, seed: u64) -> Self {
        let n = params.n();
        let mut rates = Vec::with_capacity(n + n * (n - 1) / 2 + n);
        let mut kinds = Vec::with_capacity(rates.capacity());
        for (i, &mu) in params.mu().iter().enumerate() {
            rates.push(mu);
            kinds.push(EventKind::Rp(i));
        }
        for i in 0..n {
            for j in i + 1..n {
                let l = params.lambda(i, j);
                if l > 0.0 {
                    rates.push(l);
                    kinds.push(EventKind::Interaction(i, j));
                }
            }
        }
        if let Some(f) = fault {
            for (i, &r) in f.error_rates.iter().enumerate() {
                if r > 0.0 {
                    rates.push(r);
                    kinds.push(EventKind::Error(i));
                }
            }
        }
        EventStream {
            n,
            rng: SimRng::new(seed, StreamId::WORKLOAD),
            race: PoissonRace::new(&rates),
            kinds,
            fault_rng: SimRng::new(seed, StreamId::FAULTS),
        }
    }

    /// The kind of each category, in race order.
    pub(crate) fn kinds(&self) -> &[EventKind] {
        &self.kinds
    }

    /// Advances `t` to the next event and returns its category.
    #[inline]
    pub(crate) fn next_category(&mut self, t: &mut f64) -> usize {
        let (dt, k) = self.race.next(&mut self.rng);
        *t += dt;
        k
    }

    /// Advances `t` to the next event and returns its kind.
    #[inline]
    pub(crate) fn next(&mut self, t: &mut f64) -> EventKind {
        let k = self.next_category(t);
        self.kinds[k]
    }

    /// Replays the stream into a history up to `horizon`, skipping error
    /// events. With `implant = Some(delay)` every RP implants PRPs as
    /// [`record_rp`] does.
    pub(crate) fn history(&mut self, horizon: f64, implant: Option<f64>) -> History {
        let mut h = History::new(self.n);
        let mut t = 0.0;
        loop {
            let kind = self.next(&mut t);
            if t > horizon {
                return h;
            }
            match kind {
                EventKind::Rp(i) => record_rp(&mut h, i, &mut t, implant),
                EventKind::Interaction(i, j) => {
                    h.record_interaction(ProcessId(i), ProcessId(j), t);
                }
                EventKind::Error(_) => {}
            }
        }
    }

    /// Runs `episodes` independent fault-injection episodes: each
    /// replays a fresh history until an acceptance test first *detects*
    /// an error, rolls back under the rule `rule` gives for the detected
    /// contamination and records the outcome. RPs implant PRPs as in
    /// [`Self::history`].
    pub(crate) fn failure_episodes(
        &mut self,
        fault: &FaultConfig,
        episodes: usize,
        implant: Option<f64>,
        rule: impl Fn(Contamination) -> RollbackRule,
    ) -> SchemeMetrics {
        let mut metrics = SchemeMetrics::default();
        // Arena-backed episode state: one History and one FaultState are
        // cleared and refilled instead of reallocated per episode.
        let mut arena = HistoryArena::new(self.n);
        let mut fs = FaultState::clean(self.n);
        for _ in 0..episodes {
            let h = arena.begin_episode();
            fs.reset();
            let mut t = 0.0;
            // Hard per-episode event bound to catch mis-configured models
            // (e.g. zero error rates) instead of spinning forever.
            let mut budget = 10_000_000u64;
            loop {
                budget -= 1;
                assert!(
                    budget > 0,
                    "episode exceeded event budget; check error rates"
                );
                match self.next(&mut t) {
                    EventKind::Rp(i) => {
                        let pid = ProcessId(i);
                        // The acceptance test precedes the state save.
                        if let Some(c) = fs.on_acceptance_test(fault, &mut self.fault_rng, pid) {
                            let plan = propagate_rollback(h, pid, t, rule(c));
                            fs.apply_rollback(&plan.restart);
                            let excised = fs.n_contaminated() == 0;
                            metrics.record(&RollbackOutcome { plan, excised });
                            break;
                        }
                        record_rp(h, i, &mut t, implant);
                    }
                    EventKind::Interaction(i, j) => {
                        let (a, b) = (ProcessId(i), ProcessId(j));
                        h.record_interaction(a, b, t);
                        fs.on_interaction(fault, &mut self.fault_rng, a, b, t);
                    }
                    EventKind::Error(i) => fs.inject_local(ProcessId(i), t),
                }
            }
        }
        metrics
    }
}

/// Records a real RP of `Pᵢ` at `*t`. With `implant = Some(delay)` (the
/// §4 scheme) it also implants a PRP in every peer `delay` later — "upon
/// the completion of the current instruction" — and moves `*t` past the
/// implants, so the next event cannot be recorded out of order.
fn record_rp(h: &mut History, i: usize, t: &mut f64, implant: Option<f64>) {
    let rp = h.record_rp(ProcessId(i), *t);
    if let Some(delay) = implant {
        *t += delay;
        for j in (0..h.n()).filter(|&j| j != i) {
            h.record_prp(ProcessId(j), *t, rp);
        }
    }
}
