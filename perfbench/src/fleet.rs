//! `od-fleet`: one buffered batch submitted at once to the work-stealing
//! engine with `threads = nproc`, task `equilib`, on a skewed fleet: a few
//! congested k-commodity OD grids, hundreds of small multi-commodity
//! networks, parallel-link scenarios, and duplicate specs.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use stackopt::api::{
    Engine, EngineBuilder, EquilibReport, Report, ReportData, Scenario, ScenarioSummary,
    SolveCache, SolveOptions, SoptError, Task,
};
use stackopt::fleet::{generate_fleet, Family};
use stackopt::instances::try_grid_city_multi;

use crate::layers::{self, Steps, Trace};
use crate::serve;
use crate::util::{median, nproc, peak_rss_mb, quantile, secs, timed, Outcome, Rng};

/// The OD grids of every fleet: side 31 (961 nodes, 3,720 edges), 64 OD
/// pairs over at most 16 origins. Their cold `equilib` costs 0.2–4.4 s
/// single-thread depending on the generator seed, so the set is fixed
/// (0.7, 0.8 and 1.1 s) and the benchmark seed draws the rest of the
/// fleet and the order.
const OD_GRID_SEEDS: [u64; 3] = [1, 5, 8];
const OD_SIDE: usize = 31;
const OD_PAIRS: usize = 64;
/// Demand scale applied after generation. The generator scales
/// capacities with the rate, so its own instances stay uncongested and
/// converge in one FW iteration; scaling only the demands congests them.
const CONGESTION: f64 = 4.0;
/// Small layered k-commodity networks (`gen --family multi`).
const SMALL_MULTI: usize = 300;
/// Parallel-link scenarios (`gen --family mixed`).
const PARALLEL: usize = 200;
/// Extra copies of earlier small specs (cache hits inside the batch).
const DUPLICATES: usize = 40;
/// Hit probes per batch: single-scenario submissions of the fleet's
/// repeated specs against the batch's warm cache.
const HIT_PROBES: usize = 400;
const SETUP_REPS: usize = 11;

/// The fleet as spec lines, in submission order.
fn fleet_specs(seed: u64) -> Result<Vec<String>, SoptError> {
    let mut rng = Rng::new(seed, 2);
    let lines = |text: String| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(str::to_string)
            .collect()
    };
    let mut small = lines(generate_fleet(
        Family::Multi,
        SMALL_MULTI,
        rng.next() >> 16,
        None,
        1.0,
        None,
    )?);
    small.extend(lines(generate_fleet(
        Family::Mixed,
        PARALLEL,
        rng.next() >> 16,
        None,
        1.0,
        None,
    )?));
    let mut specs = small.clone();
    for _ in 0..DUPLICATES {
        specs.push(small[rng.below(small.len())].clone());
    }
    for g in OD_GRID_SEEDS {
        let mut inst =
            try_grid_city_multi(OD_SIDE, 1.0, OD_PAIRS, g).map_err(|e| SoptError::Io {
                context: e.to_string(),
            })?;
        for c in &mut inst.commodities {
            c.rate *= CONGESTION;
        }
        specs.push(Scenario::from(inst).to_spec()?);
    }
    rng.shuffle(&mut specs);
    Ok(specs)
}

/// What `sopt batch` does before the engine: generate, parse.
fn fleet(seed: u64) -> Result<(Vec<String>, Vec<Scenario>), String> {
    let specs = fleet_specs(seed).map_err(|e| e.to_string())?;
    let scenarios = specs
        .iter()
        .map(|s| Scenario::parse(s))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok((specs, scenarios))
}

fn options() -> SolveOptions {
    SolveOptions {
        task: Task::Equilib,
        ..SolveOptions::default()
    }
}

/// The engine `EngineBuilder::engine` builds, keeping a handle on its
/// cache for the hit probes.
fn engine(fleet: Vec<Scenario>, threads: usize) -> Result<(Engine, Arc<SolveCache>), String> {
    let builder = EngineBuilder::new().threads(threads).task(Task::Equilib);
    let cache = builder.build_cache().map_err(|e| e.to_string())?;
    let engine = Engine::new(fleet)
        .task(Task::Equilib)
        .threads(threads)
        .cache(Arc::clone(&cache));
    Ok((engine, cache))
}

/// The report the engine must produce for `spec`, rebuilt from its
/// decomposed solve (the same public calls `Task::Equilib` makes).
fn reference_json(spec: &str, steps: &Steps) -> Result<String, String> {
    let scenario = Scenario::parse(spec).map_err(|e| e.to_string())?;
    let model = scenario.model();
    let (Some(nash), Some(opt)) = (&steps.nash_profile, &steps.optimum_profile) else {
        return Err("equilib decomposition without profiles".into());
    };
    let report = Report {
        scenario: ScenarioSummary {
            class: scenario.class(),
            task: Task::Equilib,
            size: scenario.size(),
            nodes: scenario.nodes(),
            rate: scenario.rate(),
        },
        data: ReportData::Equilib(EquilibReport {
            nash_cost: model.cost(nash.flows()),
            nash_level: nash.level(),
            nash_flows: nash.flows().to_vec(),
            optimum_cost: model.cost(opt.flows()),
            optimum_level: opt.level(),
            optimum_flows: opt.flows().to_vec(),
        }),
    };
    Ok(report.to_json())
}

/// Reference report per distinct spec, and the decomposed solve behind it.
type References = (HashMap<String, String>, Vec<(String, Steps)>);

/// Reference reports for every distinct spec, solved one at a time, with
/// the network profiles certified. Returns the decompositions too; with
/// `envelope` they include parsing the spec's `batch --stream` line.
fn references(specs: &[String], envelope: bool, out: &mut Outcome) -> Result<References, String> {
    let o = options();
    let mut refs = HashMap::new();
    let mut steps_all = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if refs.contains_key(spec) {
            continue;
        }
        let line = envelope.then(|| serve::request_line(i, spec));
        let steps = layers::decompose(line.as_deref(), spec, &o)?;
        refs.insert(spec.clone(), reference_json(spec, &steps)?);
        let scenario = Scenario::parse(spec).map_err(|e| e.to_string())?;
        if let (Some(inst), Some(opt)) = (layers::as_multi(&scenario), &steps.optimum_profile) {
            layers::certify(&inst, opt, steps.nash_profile.as_ref(), out);
        }
        steps_all.push((spec.clone(), steps));
    }
    Ok((refs, steps_all))
}

/// Every index delivered once, each report equal to its reference.
fn check_batch(
    specs: &[String],
    results: &[Result<Report, SoptError>],
    refs: &HashMap<String, String>,
    out: &mut Outcome,
) {
    if results.len() != specs.len() {
        out.check(Some(format!(
            "{} results for {} scenarios",
            results.len(),
            specs.len()
        )));
    }
    for (spec, r) in specs.iter().zip(results) {
        out.check(match r {
            Ok(report) if report.to_json() == refs[spec] => None,
            Ok(_) => Some("report differs from its reference".into()),
            Err(e) => Some(format!("solve failed: {e}")),
        });
    }
}

pub fn run(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let threads = nproc();
    let mut setup = Vec::new();
    let (mut specs, mut scenarios) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (r, t) = timed(|| -> Result<_, String> {
            let (sp, sc) = fleet(seed)?;
            let e = engine(sc.clone(), threads)?;
            std::hint::black_box(e);
            Ok((sp, sc))
        });
        (specs, scenarios) = r?;
        setup.push(t);
    }
    let (refs, _) = references(&specs, false, out)?;
    let mut rng = Rng::new(seed, 3);
    let mut makespans = Vec::new();
    let mut hits = Vec::new();
    let start = Instant::now();
    while makespans.is_empty() || secs(start) < seconds {
        let (engine, cache) = engine(scenarios.clone(), threads)?;
        let t = Instant::now();
        let results = engine.run();
        makespans.push(secs(t));
        check_batch(&specs, &results, &refs, out);
        probe_hits(&specs, &scenarios, &cache, &refs, &mut rng, &mut hits, out);
    }
    let done = (makespans.len() * specs.len()) as f64;
    println!(
        "od-fleet: {} batches of {} scenarios ({} OD grids, {} threads), slowest {:.1} ms, {} hit probes, hit p99 {:.4} ms",
        makespans.len(),
        specs.len(),
        OD_GRID_SEEDS.len(),
        threads,
        quantile(&makespans, 1.0) * 1e3,
        hits.len(),
        quantile(&hits, 0.99) * 1e3
    );
    out.metric("latency_p50_ms", median(&makespans) * 1e3, "ms");
    out.metric(
        "throughput_ops_s",
        done / makespans.iter().sum::<f64>(),
        "1/s",
    );
    out.metric("setup_s", median(&setup), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(())
}

/// Submits `HIT_PROBES` of the fleet's repeated specs one at a time
/// against the warm `cache`, recording each latency (seconds) in `hits`.
fn probe_hits(
    specs: &[String],
    scenarios: &[Scenario],
    cache: &Arc<SolveCache>,
    refs: &HashMap<String, String>,
    rng: &mut Rng,
    hits: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let repeated: Vec<usize> = (0..specs.len())
        .filter(|&i| specs.iter().filter(|s| **s == specs[i]).count() > 1)
        .collect();
    for _ in 0..HIT_PROBES {
        let i = repeated[rng.below(repeated.len())];
        let probe = Engine::new(vec![scenarios[i].clone()])
            .task(Task::Equilib)
            .threads(1)
            .cache(Arc::clone(cache));
        let t = Instant::now();
        let r = probe.run();
        hits.push(secs(t));
        check_batch(&specs[i..=i], &r, refs, out);
    }
}

/// One scenario end to end through a single-thread engine: the faster of
/// two cold runs.
fn single(scenario: &Scenario) -> f64 {
    let run = || {
        let e = Engine::new(vec![scenario.clone()])
            .task(Task::Equilib)
            .threads(1);
        timed(|| std::hint::black_box(e.run())).1
    };
    run().min(run())
}

pub fn trace(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let threads = nproc();
    let (specs, scenarios) = fleet(seed)?;
    let mut distinct: Vec<usize> = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        if !specs[..i].contains(s) {
            distinct.push(i);
        }
    }
    let mut tr = Trace::default();
    // Untraced: the batch's makespan and each distinct scenario's
    // single-thread service time.
    let (e, _) = engine(scenarios.clone(), threads)?;
    let (_, makespan) = timed(|| e.run());
    let service: Vec<f64> = distinct.iter().map(|&i| single(&scenarios[i])).collect();
    tr.untraced_s = service.iter().sum();
    let threads_f = threads as f64;
    tr.idle_share = 1.0 - tr.untraced_s / (threads_f * makespan);
    tr.tail_s = makespan - tr.untraced_s / threads_f;

    let rec = stackopt::obs::enable();
    let before = rec.snapshot();
    let (e, cache) = engine(scenarios.clone(), threads)?;
    let (results, stats) = e.run_stats();
    tr.steals = stats.steals as f64;
    tr.cache_hit_ratio = stats.hit_rate();
    tr.cache_profile_hit_ratio = stats.net_profile_hits as f64
        / (stats.net_profile_hits + stats.net_profile_misses).max(1) as f64;
    let (refs, steps) = references(&specs, true, out)?;
    check_batch(&specs, &results, &refs, out);
    let mut hits = Vec::new();
    probe_hits(
        &specs,
        &scenarios,
        &cache,
        &refs,
        &mut Rng::new(seed, 3),
        &mut hits,
        out,
    );
    tr.hit_ms = hits.iter().map(|h| h * 1e3).collect();
    for ((spec, st), &i) in steps.iter().zip(&distinct) {
        debug_assert_eq!(spec, &specs[i]);
        let e2e = single(&scenarios[i]);
        tr.traced_s += e2e;
        // The engine receives parsed scenarios: no envelope, no spec parse.
        tr.coverage.push((st.solve_sum() - st.spec_parse, e2e));
    }
    tr.obs = Some(layers::ObsDelta::new(before, rec.snapshot()));
    // Kernel probes on the fleet's largest network, an OD grid.
    if let Some((spec, st)) = steps.iter().max_by_key(|(s, _)| s.len()) {
        let scenario = Scenario::parse(spec).map_err(|e| e.to_string())?;
        if let (Some(inst), Some(opt)) = (layers::as_multi(&scenario), &st.optimum_profile) {
            tr.kernels = layers::kernels(&inst, opt, st.nash_profile.as_ref(), out);
        }
    }
    for s in results.iter().flatten() {
        let (json, t) = timed(|| s.to_json());
        tr.encode_s.push(t);
        tr.response_bytes.push(json.len() as f64);
    }
    serve::measure(seed, &specs, &refs, &mut tr, out)?;
    tr.steps = steps.into_iter().map(|(_, s)| s).collect();
    tr.emit(out);
    Ok(())
}
