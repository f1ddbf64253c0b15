//! The superposed Poisson event stream the asynchronous (§2) and PRP
//! (§4) drivers replay: recovery points at rate μᵢ, pair interactions
//! at rate λᵢⱼ and, under fault injection, latent errors — all drawn
//! from one [`PoissonRace`] on the workload stream.

use rbmarkov::paper::AsyncParams;
use rbsim::{PoissonRace, SimRng, StreamId};

use crate::fault::FaultConfig;

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

/// The seeded event stream of one driver.
pub(crate) struct EventStream {
    rng: SimRng,
    race: PoissonRace,
    kinds: Vec<EventKind>,
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
            rng: SimRng::new(seed, StreamId::WORKLOAD),
            race: PoissonRace::new(&rates),
            kinds,
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
}
