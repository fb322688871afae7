//! `city-beta`: closed loop, one client, one request at a time — a cold
//! `--task beta` on a 10⁴-edge BPR city grid per request, each through
//! the envelope and a fresh single-thread server, as `sopt solve` does.

use std::time::Instant;

use stackopt::api::{
    EngineBuilder, Outcome as Answer, Request, Response, Scenario, Server, SolveOptions,
    SolveRequest, Task,
};
use stackopt::equilibrium::certify::certify_network;
use stackopt::instances::try_grid_city;
use stackopt::network::{EdgeFlow, NetworkInstance};
use stackopt::solver::CostModel;

use crate::layers::{self, Trace, CERT_TOL};
use crate::util::{median, peak_rss_mb, quantile, secs, timed, Outcome, Rng};

/// Grid side: 51² nodes, 10,200 edges.
const SIDE: usize = 51;
/// The fixed set of grids. Cold solve times differ by generator seed
/// (2.3–3.5 s over seeds 1–8), so the set is fixed to four grids of equal
/// cost (2.3 s each) and every run solves it in whole rounds; the
/// benchmark seed orders the rounds and names the requests.
const GRID_SEEDS: [u64; 4] = [1, 5, 6, 8];
/// Repeats of each request on the server that just solved it cold: the
/// cache-hit path for a 10⁴-edge spec (envelope, fingerprint, encode).
const HIT_REPEATS: usize = 4;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 11;

struct Grid {
    instance: NetworkInstance,
    line: String,
}

fn request_line(id: String, spec: String, task: Task) -> String {
    Request::solve(
        id.as_str(),
        SolveRequest {
            spec,
            task: Some(task),
            ..SolveRequest::default()
        },
    )
    .to_json()
}

fn inputs(seed: u64) -> Result<Vec<Grid>, String> {
    GRID_SEEDS
        .iter()
        .map(|&g| {
            let instance = try_grid_city(SIDE, 1.0, g).map_err(|e| e.to_string())?;
            let spec = Scenario::from(instance.clone())
                .to_spec()
                .map_err(|e| e.to_string())?;
            let line = request_line(format!("city-{seed}-{g}"), spec, Task::Beta);
            Ok(Grid { instance, line })
        })
        .collect()
}

fn server() -> Server {
    EngineBuilder::new()
        .threads(1)
        .server()
        .expect("a server without persistence always builds")
}

/// One request through the envelope: parse, handle, encode.
fn answer(server: &Server, line: &str) -> (Response, String) {
    let req = Request::parse(line).expect("generated request lines parse");
    let resp = server.handle(req);
    let json = resp.to_json();
    (resp, json)
}

/// One cold request end to end through a fresh server, checked; returns
/// its seconds (the check is not timed).
fn cold(grid: &Grid, out: &mut Outcome) -> f64 {
    let t = Instant::now();
    let server = server();
    let (resp, _) = answer(&server, &grid.line);
    let seconds = secs(t);
    out.check(check(&server, &resp, grid));
    seconds
}

/// The β report's own invariants, then the certificates of the Nash and
/// optimum flows (read back from the server's profile cache with an
/// `equilib` request on the same spec).
fn check(server: &Server, resp: &Response, grid: &Grid) -> Option<String> {
    let Answer::Ok(report) = &resp.outcome else {
        return Some(format!("solve failed: {:?}", resp.outcome));
    };
    let Some(b) = report.data.as_beta() else {
        return Some("not a beta report".into());
    };
    if !(0.0..=1.0).contains(&b.beta) {
        return Some(format!("beta {} outside [0, 1]", b.beta));
    }
    if (b.induced_cost - b.optimum_cost).abs() > 1e-6 * b.optimum_cost.abs().max(1.0) {
        return Some(format!(
            "induced cost {} differs from optimum cost {}",
            b.induced_cost, b.optimum_cost
        ));
    }
    let req = Request::parse(&grid.line).expect("generated request lines parse");
    let stackopt::api::RequestKind::Solve(mut s) = req.kind else {
        unreachable!("city requests are solves")
    };
    s.task = Some(Task::Equilib);
    let eq = server.handle(Request::solve("check", s));
    let Answer::Ok(report) = &eq.outcome else {
        return Some(format!("equilib read-back failed: {:?}", eq.outcome));
    };
    let e = report.data.as_equilib().expect("equilib task");
    for (flows, model, what) in [
        (&e.nash_flows, CostModel::Wardrop, "nash"),
        (&e.optimum_flows, CostModel::SystemOptimum, "optimum"),
    ] {
        if let Err(err) = certify_network(&grid.instance, &EdgeFlow(flows.clone()), model, CERT_TOL)
        {
            return Some(format!("{what}: {err}"));
        }
    }
    None
}

pub fn run(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let mut setup = Vec::new();
    let mut grids = Vec::new();
    for _ in 0..SETUP_REPS {
        let ((g, s), t) = timed(|| (inputs(seed), server()));
        std::hint::black_box(s);
        grids = g?;
        setup.push(t);
    }
    let mut rng = Rng::new(seed, 1);
    let mut cold = Vec::new();
    let mut hits = Vec::new();
    let start = Instant::now();
    while cold.is_empty() || secs(start) < seconds {
        let mut order: Vec<usize> = (0..grids.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let grid = &grids[i];
            let t = Instant::now();
            let server = server();
            let (resp, json) = answer(&server, &grid.line);
            cold.push(secs(t));
            for _ in 0..HIT_REPEATS {
                let t = Instant::now();
                let (_, again) = answer(&server, &grid.line);
                hits.push(secs(t));
                out.check((again != json).then(|| "cache hit differs from its miss".into()));
            }
            out.check(check(&server, &resp, grid));
        }
    }
    println!(
        "city-beta: {} cold solves ({} grids of {} edges), slowest {:.1} ms, {} hits, hit p99 {:.3} ms",
        cold.len(),
        grids.len(),
        grids[0].instance.graph.num_edges(),
        quantile(&cold, 1.0) * 1e3,
        hits.len(),
        quantile(&hits, 0.99) * 1e3
    );
    out.metric("latency_p50_ms", median(&cold) * 1e3, "ms");
    out.metric(
        "throughput_ops_s",
        cold.len() as f64 / cold.iter().sum::<f64>(),
        "1/s",
    );
    out.metric("setup_s", median(&setup), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(())
}

pub fn trace(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let grids = inputs(seed)?;
    let mut tr = Trace::default();
    for grid in &grids {
        tr.untraced_s += cold(grid, out);
    }
    let rec = stackopt::obs::enable();
    let before = rec.snapshot();
    let defaults = SolveOptions::default();
    let mut kernels = None;
    let mut cache = (0u64, 0u64, 0u64, 0u64);
    for grid in &grids {
        let req = Request::parse(&grid.line).map_err(|e| e.error.to_string())?;
        let (spec, o) = layers::request_options(&req, &defaults).expect("a solve request");
        // The same request end to end before and after its decomposition,
        // so a drift in host speed during the pair cancels in the mean.
        let before = cold(grid, out);
        let steps = layers::decompose(Some(&grid.line), &spec, &o)?;
        let t = Instant::now();
        let server = server();
        let (resp, json) = answer(&server, &grid.line);
        let e2e = 0.5 * (before + secs(t));
        let (_, enc) = timed(|| resp.to_json());
        for _ in 0..HIT_REPEATS {
            let t = Instant::now();
            let (_, again) = answer(&server, &grid.line);
            tr.hit_ms.push(secs(t) * 1e3);
            out.check((again != json).then(|| "cache hit differs from its miss".into()));
        }
        let s = server.stats();
        out.check(check(&server, &resp, grid));
        cache.0 += s.cache_hits;
        cache.1 += s.cache_hits + s.cache_misses;
        cache.2 += s.net_profile_hits;
        cache.3 += s.net_profile_hits + s.net_profile_misses;
        tr.traced_s += e2e;
        tr.coverage
            .push((steps.codec_parse + steps.solve_sum() + enc, e2e));
        tr.encode_s.push(enc);
        tr.response_bytes.push(json.len() as f64);
        if kernels.is_none() {
            if let (Some(opt), Some(inst)) = (
                steps.optimum_profile.as_ref(),
                layers::as_multi(&Scenario::Network(grid.instance.clone())),
            ) {
                kernels = Some(layers::kernels(
                    &inst,
                    opt,
                    steps.nash_profile.as_ref(),
                    out,
                ));
            }
        }
        tr.steps.push(steps);
    }
    tr.obs = Some(layers::ObsDelta::new(before, rec.snapshot()));
    tr.kernels = kernels.unwrap_or_default();
    tr.cache_hit_ratio = cache.0 as f64 / cache.1.max(1) as f64;
    tr.cache_profile_hit_ratio = cache.2 as f64 / cache.3.max(1) as f64;
    tr.inflight_max = 1.0;
    tr.emit(out);
    Ok(())
}
