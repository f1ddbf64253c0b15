//! What one run measured: counts, failures with their causes, metric
//! values with units and sample counts, and the order statistics used
//! to summarise them.

use std::collections::BTreeMap;

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the figure summarises.
    pub samples: usize,
}

impl Value {
    pub fn new(value: f64, unit: &'static str, samples: usize) -> Value {
        Value {
            value,
            unit,
            samples,
        }
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// `(operation, cause)` for every failed operation.
    pub failures: Vec<(String, String)>,
    /// The end-to-end figures named in `BENCHMARK.json`.
    pub e2e: BTreeMap<&'static str, Value>,
    /// The workload's own named end-to-end figures (printed and kept in
    /// the result file; the common ones above are what runs compare).
    pub named: Vec<(String, Value)>,
    /// Per-layer figures and where each came from (`workload` or
    /// `census`, see `census.rs`).
    pub layers: BTreeMap<String, (Value, &'static str)>,
}

impl Outcome {
    pub fn fail(&mut self, op: impl Into<String>, cause: impl Into<String>) {
        self.failures.push((op.into(), cause.into()));
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn named(&mut self, name: &str, v: Value) {
        self.named.push((name.to_string(), v));
    }

    pub fn layer(&mut self, name: &str, v: Value) {
        self.layers.insert(name.to_string(), (v, "workload"));
    }

    /// Folds a census run in: its counts and failures add up, and it
    /// fills only the per-layer figures this run does not have yet.
    pub fn absorb_census(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        for (name, (v, _)) in other.layers {
            self.layers.entry(name).or_insert((v, "census"));
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank `p`-quantile; NaN when empty.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Geometric mean; NaN when empty.
pub fn gmean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A percentile figure with its sample count.
pub fn pct(xs: &[f64], p: f64, unit: &'static str) -> Value {
    Value::new(quantile(xs, p), unit, xs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.5);
        assert_eq!(quantile(&xs, 0.95), 95.0);
        assert!(median(&[]).is_nan());
    }
}
