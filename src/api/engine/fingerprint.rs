//! [`Fingerprint`] — the canonical cache identity of one solve.
//!
//! Two solves may share a memo-table entry exactly when they would compute
//! the same report: same scenario, same task, same knobs. The scenario part
//! of that identity is the *round-trip spec formatting* from the session
//! API ([`Scenario::to_spec`](crate::api::Scenario::to_spec)): the spec
//! language's formatters are proptest-verified to round-trip, and Rust's
//! shortest-`f64` `Display` guarantees `parse(format(x)) == x`, so two
//! scenarios with the same spec string are bit-for-bit the same instance.
//! Scenarios the spec language cannot express (piecewise latencies, dense
//! polynomials, shifted forms) have no fingerprint and simply bypass the
//! cache.
//!
//! The scenario class is part of the identity too: a k-commodity instance
//! holding a single demand formats to the same spec string as its
//! single-commodity network twin (the parser reads one `demand` line as a
//! network), and without the class tag the two would alias one report
//! entry — serving a report whose `"class"` field lies about the scenario
//! that hit the cache.
//!
//! The knob part folds in every [`SolveOptions`] field that can change the
//! report — task, tolerance bits, the optional α, curve steps, the
//! iteration cap, the weak/strong curve strategy and the pricing budgets.
//! The all-or-nothing mode (`aon`) is left out: every mode yields
//! bit-identical flows (`tests/aon_parity.rs`), so it only changes how
//! fast a report is computed, never the report. A
//! 64-bit FNV-1a digest of the whole identity is kept alongside for cheap
//! shard selection; equality always compares the full key, so hash
//! collisions can never alias two different solves.

use sopt_core::curve::CurveStrategy;

use super::super::scenario::{Scenario, ScenarioClass};
use super::super::solve::{SolveOptions, Task};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running 64-bit FNV-1a digest. Deterministic across processes and
/// platforms (unlike `DefaultHasher`, whose keys are unspecified), so
/// fingerprint hashes are stable enough to log, compare across runs, and
/// store in perf baselines.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes one byte slice with FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

/// The full cache identity of one solve: canonical spec string + every
/// report-affecting knob, plus a precomputed FNV-1a digest for sharding.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Canonical spec formatting of the scenario (round-trips by parsing).
    pub spec: String,
    /// The scenario class (disambiguates the 1-commodity multicommodity
    /// instance from its network twin, whose specs coincide).
    pub class: ScenarioClass,
    /// The task the report answers.
    pub task: Task,
    /// `tolerance` bits (bit-exact; NaN knobs are rejected upstream).
    pub tolerance_bits: u64,
    /// `alpha` bits, or `u64::MAX` when unset (α is in `[0, 1]`, whose bit
    /// patterns never reach `u64::MAX`).
    pub alpha_bits: u64,
    /// Curve sample count.
    pub steps: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Weak/strong curve strategy.
    pub strategy: CurveStrategy,
    /// Pricing best-response grid resolution.
    pub price_steps: usize,
    /// Pricing best-response round budget.
    pub price_rounds: usize,
    /// FNV-1a digest of all of the above (shard selector, log handle).
    pub hash: u64,
}

impl Fingerprint {
    /// Computes the fingerprint of `(scenario, options)`, or `None` when
    /// the scenario has no spec formatting (and therefore no canonical
    /// identity to memoize under).
    pub fn of(scenario: &Scenario, options: &SolveOptions) -> Option<Fingerprint> {
        let spec = scenario.to_spec().ok()?;
        Some(Fingerprint::from_parts(
            spec,
            scenario.class(),
            options.task,
            options.tolerance.to_bits(),
            options.alpha.map_or(u64::MAX, f64::to_bits),
            options.steps,
            options.max_iters,
            options.strategy,
            options.price_steps,
            options.price_rounds,
        ))
    }

    /// Rebuilds a fingerprint from its stored fields, recomputing the
    /// digest. This is how the disk log
    /// ([`crate::api::serve::persist`]) turns a replayed record back into
    /// the exact in-memory key — the hash is derived, so a log written by
    /// one process shards identically in the next.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        spec: String,
        class: ScenarioClass,
        task: Task,
        tolerance_bits: u64,
        alpha_bits: u64,
        steps: usize,
        max_iters: usize,
        strategy: CurveStrategy,
        price_steps: usize,
        price_rounds: usize,
    ) -> Fingerprint {
        let mut h = Fnv64::default();
        h.write(spec.as_bytes());
        h.write_u64(class as u64);
        h.write(task.name().as_bytes());
        h.write_u64(tolerance_bits);
        h.write_u64(alpha_bits);
        h.write_u64(steps as u64);
        h.write_u64(max_iters as u64);
        h.write_u64(strategy as u64);
        h.write_u64(price_steps as u64);
        h.write_u64(price_rounds as u64);
        Fingerprint {
            spec,
            class,
            task,
            tolerance_bits,
            alpha_bits,
            steps,
            max_iters,
            strategy,
            price_steps,
            price_rounds,
            hash: h.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> SolveOptions {
        SolveOptions::default()
    }

    #[test]
    fn fnv_is_stable() {
        // Reference FNV-1a vector: the empty input hashes to the offset
        // basis; "a" to the published constant.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn identical_scenarios_share_a_fingerprint() {
        let a = Scenario::parse("x, 1.0").unwrap();
        let b = Scenario::parse("x, 1").unwrap(); // same instance, same formatting
        let fa = Fingerprint::of(&a, &opts()).unwrap();
        let fb = Fingerprint::of(&b, &opts()).unwrap();
        assert_eq!(fa, fb);
        assert_eq!(fa.hash, fb.hash);
    }

    #[test]
    fn every_knob_separates_fingerprints() {
        let sc = Scenario::parse("x, 1.0").unwrap();
        let base = Fingerprint::of(&sc, &opts()).unwrap();
        let mut o = opts();
        o.task = Task::Curve;
        assert_ne!(base, Fingerprint::of(&sc, &o).unwrap());
        let mut o = opts();
        o.tolerance = 1e-6;
        assert_ne!(base, Fingerprint::of(&sc, &o).unwrap());
        let mut o = opts();
        o.alpha = Some(0.5);
        assert_ne!(base, Fingerprint::of(&sc, &o).unwrap());
        let mut o = opts();
        o.steps = 20;
        assert_ne!(base, Fingerprint::of(&sc, &o).unwrap());
        let mut o = opts();
        o.max_iters = 10;
        assert_ne!(base, Fingerprint::of(&sc, &o).unwrap());
        let mut o = opts();
        o.strategy = CurveStrategy::Weak;
        assert_ne!(base, Fingerprint::of(&sc, &o).unwrap());
        let mut o = opts();
        o.price_steps = 17;
        assert_ne!(base, Fingerprint::of(&sc, &o).unwrap());
        let mut o = opts();
        o.price_rounds = 33;
        assert_ne!(base, Fingerprint::of(&sc, &o).unwrap());
        // The AON mode never changes a report, so it shares the entry.
        let mut o = opts();
        o.aon = sopt_solver::AonMode::Sequential;
        assert_eq!(base, Fingerprint::of(&sc, &o).unwrap());
        // Different scenario, same knobs.
        let other = Scenario::parse("x, 2.0").unwrap();
        assert_ne!(base, Fingerprint::of(&other, &opts()).unwrap());
    }

    #[test]
    fn class_disambiguates_identical_specs() {
        // A 1-commodity multicommodity instance and its network twin format
        // to the same spec string; the class keeps their reports apart.
        let net = Scenario::parse("nodes=2; 0->1: x; 0->1: 1; demand 0->1: 1").unwrap();
        let Scenario::Network(inst) = &net else {
            unreachable!()
        };
        let multi = Scenario::Multi(sopt_network::instance::MultiCommodityInstance::new(
            inst.graph.clone(),
            inst.latencies.clone(),
            vec![sopt_network::instance::Commodity {
                source: inst.source,
                sink: inst.sink,
                rate: inst.rate,
            }],
        ));
        let fn_net = Fingerprint::of(&net, &opts()).unwrap();
        let fn_multi = Fingerprint::of(&multi, &opts()).unwrap();
        assert_eq!(fn_net.spec, fn_multi.spec);
        assert_ne!(fn_net, fn_multi);
        assert_ne!(fn_net.hash, fn_multi.hash);
    }

    #[test]
    fn unrepresentable_scenarios_have_no_fingerprint() {
        use sopt_equilibrium::parallel::ParallelLinks;
        use sopt_latency::LatencyFn;
        let links = ParallelLinks::new(vec![LatencyFn::piecewise(0.1, &[(0.0, 1.0)])], 1.0);
        assert!(Fingerprint::of(&Scenario::from(links), &opts()).is_none());
    }
}
