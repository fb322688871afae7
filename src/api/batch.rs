//! [`Batch`] — solve many scenarios across threads with deterministic,
//! input-ordered results.
//!
//! Since PR 3, `Batch` is a thin compatibility wrapper over the
//! [`super::engine`] subsystem: `run` delegates to
//! [`Engine::run`](super::Engine::run), which keeps the original contract —
//! exactly one `Result<Report, SoptError>` per input scenario, in input
//! order, regardless of thread interleaving, with a panicking solve
//! contained per scenario as [`SoptError::WorkerPanic`] — while gaining the
//! engine's cost-ordered scheduler and memo cache. Code that wants cache
//! control, run statistics, or streaming delivery should use
//! [`super::Engine`] directly.

use super::engine::{Engine, EngineBuilder, EngineStats};
use super::error::SoptError;
use super::report::Report;
use super::scenario::Scenario;
use super::solve::{impl_solve_knobs, SolveOptions, Task};

/// A batch of scenarios to solve with shared knobs.
///
/// ```
/// use stackopt::api::{Batch, Scenario, Task};
///
/// let scenarios = vec![
///     Scenario::parse("x, 1.0")?,
///     Scenario::parse("x, 2x, 0.9")?,
/// ];
/// let reports = Batch::new(scenarios).task(Task::Beta).run();
/// assert_eq!(reports.len(), 2);
/// assert!((reports[0].as_ref().unwrap().data.as_beta().unwrap().beta - 0.5).abs() < 1e-9);
/// # Ok::<(), stackopt::api::SoptError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Batch {
    scenarios: Vec<Scenario>,
    options: SolveOptions,
    threads: Option<usize>,
}

impl Batch {
    /// A batch over the given scenarios with default knobs.
    pub fn new(scenarios: Vec<Scenario>) -> Self {
        Self {
            scenarios,
            options: SolveOptions::default(),
            threads: None,
        }
    }

    /// Worker thread count (default: available parallelism, capped at the
    /// batch size).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Solve every scenario. Returns exactly one result per input, in
    /// input order.
    pub fn run(self) -> Vec<Result<Report, SoptError>> {
        self.engine().run()
    }

    /// [`Batch::run`] plus the run's [`EngineStats`] — library users see
    /// the report/profile memo traffic and eviction counts without
    /// switching to the engine API.
    pub fn run_with_stats(self) -> (Vec<Result<Report, SoptError>>, EngineStats) {
        self.engine().run_stats()
    }

    /// Batch construction routes through [`EngineBuilder`] — the one
    /// place engine knobs are assembled — with a fresh per-run cache
    /// (no persistence path, so `build_cache` cannot fail).
    fn engine(self) -> Engine {
        let mut builder = EngineBuilder::new().options(self.options);
        if let Some(threads) = self.threads {
            builder = builder.threads(threads);
        }
        builder
            .engine(self.scenarios)
            .expect("cache without a persistence path always builds")
    }
}

impl_solve_knobs!(Batch);

/// Convenience wrapper: solve `scenarios` for `task` with default knobs on
/// the default thread count.
pub fn run_batch(scenarios: Vec<Scenario>, task: Task) -> Vec<Result<Report, SoptError>> {
    Batch::new(scenarios).task(task).run()
}

/// Parse a batch file: one scenario spec per line (either grammar); blank
/// lines and `#` comments are skipped. Errors name the failing line.
pub fn parse_batch_file(text: &str) -> Result<Vec<Scenario>, SoptError> {
    let mut scenarios = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Every per-line failure carries the line number — on a long fleet
        // file, "invalid rate" without a line is useless. The wrapper keeps
        // the typed source variant intact (match on `AtLine { source, .. }`
        // to distinguish syntax errors from modeling errors).
        let scenario = Scenario::parse(line).map_err(|e| SoptError::AtLine {
            line: lineno + 1,
            source: Box::new(e),
        })?;
        scenarios.push(scenario);
    }
    if scenarios.is_empty() {
        return Err(SoptError::EmptyScenario);
    }
    Ok(scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<Scenario> {
        [
            "x, 1.0",                                        // β = 1/2
            "x, 0.5x",                                       // β = 0 (no constants)
            "nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0", // Pigou as a network
            "x, 1.0 @ 2",                                    // different rate
        ]
        .iter()
        .map(|s| Scenario::parse(s).unwrap())
        .collect()
    }

    #[test]
    fn results_come_back_in_input_order() {
        let reports = Batch::new(specs()).task(Task::Beta).threads(3).run();
        assert_eq!(reports.len(), 4);
        let betas: Vec<f64> = reports
            .iter()
            .map(|r| r.as_ref().unwrap().data.as_beta().unwrap().beta)
            .collect();
        assert!((betas[0] - 0.5).abs() < 1e-9, "{betas:?}");
        assert!(betas[1].abs() < 1e-9, "{betas:?}");
        assert!((betas[2] - 0.5).abs() < 1e-4, "{betas:?}");
        // Rate-2 Pigou has a different β than rate-1 (the Leader freezes
        // the constant link at o₂ = 3/2 of r = 2) — order is observable.
        assert!((betas[3] - 0.75).abs() < 1e-9, "{betas:?}");
    }

    #[test]
    fn single_thread_and_parallel_agree() {
        let seq = Batch::new(specs()).threads(1).run();
        let par = Batch::new(specs()).threads(4).run();
        for (a, b) in seq.iter().zip(&par) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.to_json(), b.to_json());
        }
    }

    #[test]
    fn per_scenario_errors_stay_in_their_slot() {
        let scenarios = vec![
            Scenario::parse("x, 1.0").unwrap(),
            Scenario::parse("mm1:1.0").unwrap(), // rate 1 ≥ capacity 1: infeasible
            Scenario::parse("x, 1.0").unwrap(),
        ];
        let reports = Batch::new(scenarios).threads(2).run();
        assert!(reports[0].is_ok());
        assert!(matches!(
            reports[1].as_ref().unwrap_err(),
            SoptError::Infeasible { .. }
        ));
        assert!(reports[2].is_ok());
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(Batch::new(vec![]).run().is_empty());
    }

    #[test]
    fn run_with_stats_surfaces_engine_traffic() {
        // A duplicated scenario dedups through the per-run report memo;
        // Batch now surfaces that traffic without the engine API.
        let scenarios = vec![
            Scenario::parse("x, 1.0").unwrap(),
            Scenario::parse("x, 1.0").unwrap(),
            Scenario::parse("x, 2x, 0.9").unwrap(),
        ];
        let (reports, stats) = Batch::new(scenarios).threads(1).run_with_stats();
        assert_eq!(reports.len(), 3);
        assert_eq!(stats.scenarios, 3);
        assert_eq!(stats.delivered, 3);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 2));
    }

    #[test]
    fn batch_file_parsing_skips_comments_and_names_lines() {
        let text = "# Pigou\nx, 1.0\n\nx, 2x, 0.9\n";
        let scenarios = parse_batch_file(text).unwrap();
        assert_eq!(scenarios.len(), 2);
        let err = parse_batch_file("x, 1.0\n2 x\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // Non-parse failures carry the line number too.
        let err = parse_batch_file("x, 1.0\nnodes=3; 0->1: x; demand 0->2: 1\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("unreachable"), "{err}");
        assert_eq!(
            parse_batch_file("# only comments\n").unwrap_err(),
            SoptError::EmptyScenario
        );
    }
}
