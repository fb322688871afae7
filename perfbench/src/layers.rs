//! The traced pass: times the calls into each layer's public functions
//! from outside the program, on a workload's own inputs.
//!
//! A request is decomposed into the steps the server takes for it —
//! envelope parse, spec parse, fingerprint, the Nash/optimum profile
//! solves, the MOP plan, the induced solve — each timed on its own, and
//! the same request is also answered end to end through a fresh server,
//! so `trace.coverage` says how much of the end-to-end time the timed
//! calls explain. Kernel probes (shortest paths, latency sweeps, the line
//! search, the certificate) run on the workload's largest network at its
//! optimum flow. Phases the program already records (`sopt-obs`) are read
//! as snapshot deltas; those phases are inclusive and are never summed.

use std::time::Instant;

use stackopt::api::engine::Fingerprint;
use stackopt::api::{EqKind, ModelProfile, Request, RequestKind, Scenario, SolveOptions, Task};
use stackopt::equilibrium::certify::certify_multicommodity;
use stackopt::latency::{DirPlan, LatencyBatch};
use stackopt::network::{Commodity, Csr, MultiCommodityInstance, RevCsr, SpMode, SpWorkspace};
use stackopt::obs::MetricsSnapshot;
use stackopt::solver::line_search::{exact_step_eval, max_step_eval};
use stackopt::solver::{CostModel, Eval, FwOptions};

use crate::util::{mean, median, quantile, ratio, secs, timed, Outcome};

/// Relative tolerance of the Wardrop/KKT certificates the benchmark
/// checks: a flow-carrying path may cost at most this share more than the
/// shortest path at the certified flow.
pub const CERT_TOL: f64 = 1e-4;

/// A solve request's spec and knobs. The workloads override only the
/// task; every other knob is the server default.
pub fn request_options(req: &Request, defaults: &SolveOptions) -> Option<(String, SolveOptions)> {
    let RequestKind::Solve(s) = &req.kind else {
        return None;
    };
    let mut o = defaults.clone();
    if let Some(t) = s.task {
        o.task = t;
    }
    Some((s.spec.clone(), o))
}

/// The Frank–Wolfe knobs a solve with `o` runs under.
fn fw_options(o: &SolveOptions) -> FwOptions {
    FwOptions {
        rel_gap: o.tolerance,
        max_iters: o.max_iters,
        aon: o.aon,
        ..FwOptions::default()
    }
}

/// One request taken apart into its layer calls (seconds each).
#[derive(Default)]
pub struct Steps {
    pub codec_parse: f64,
    pub spec_parse: f64,
    pub fingerprint: f64,
    pub optimum: f64,
    pub nash: f64,
    pub plan: f64,
    pub induced: f64,
    /// Cold profile solves: (FW iterations, polish rounds, final rel gap).
    pub fw: Vec<(usize, usize, f64)>,
    /// The profiles, for the certificate and the kernel probes.
    pub optimum_profile: Option<ModelProfile>,
    pub nash_profile: Option<ModelProfile>,
}

impl Steps {
    /// The solver-side steps a cache miss pays after the envelope.
    pub fn solve_sum(&self) -> f64 {
        self.spec_parse + self.fingerprint + self.optimum + self.nash + self.plan + self.induced
    }
}

fn profile(
    scenario: &Scenario,
    kind: EqKind,
    fw: &FwOptions,
    steps: &mut Steps,
) -> Result<(ModelProfile, f64), String> {
    let (p, t) = timed(|| scenario.model().solve_profile(kind, fw));
    let p = p.map_err(|e| format!("{} profile: {e}", kind.what()))?;
    if let Some(r) = p.flow_result() {
        steps.fw.push((r.fw_iterations, r.polish_rounds, r.rel_gap));
    }
    Ok((p, t))
}

/// Runs the solve behind `spec` under `o` step by step, the way
/// `Task::Beta`/`Equilib`/`Curve` do it inside the server, timing each
/// public call. `line`, when given, is the envelope to time parsing of.
pub fn decompose(line: Option<&str>, spec: &str, o: &SolveOptions) -> Result<Steps, String> {
    let mut st = Steps::default();
    if let Some(line) = line {
        let (r, t) = timed(|| Request::parse(line));
        r.map_err(|e| format!("request parse: {}", e.error))?;
        st.codec_parse = t;
    }
    let (scenario, t) = timed(|| Scenario::parse(spec));
    let scenario = scenario.map_err(|e| format!("spec parse: {e}"))?;
    st.spec_parse = t;
    let (fp, t) = timed(|| Fingerprint::of(&scenario, o));
    std::hint::black_box(fp);
    st.fingerprint = t;
    let fw = fw_options(o);
    let model = scenario.model();
    match o.task {
        Task::Beta => {
            let optimum = if model.plan_needs_optimum() {
                let (p, t) = profile(&scenario, EqKind::Optimum, &fw, &mut st)?;
                st.optimum = t;
                Some(p)
            } else {
                None
            };
            let (plan, t) = timed(|| model.beta_plan(optimum.as_ref()));
            let plan = plan.map_err(|e| format!("beta plan: {e}"))?;
            st.plan = t;
            if plan.nash_cost.is_none() {
                let (p, t) = profile(&scenario, EqKind::Nash, &fw, &mut st)?;
                st.nash = t;
                st.nash_profile = Some(p);
            }
            let (ind, t) = timed(|| {
                model.induced(
                    &plan.leader,
                    &plan.leader_values,
                    &fw,
                    plan.induced_seed.as_ref(),
                )
            });
            ind.map_err(|e| format!("induced: {e}"))?;
            st.induced = t;
            st.optimum_profile = optimum;
        }
        Task::Equilib | Task::Curve => {
            let (nash, t) = profile(&scenario, EqKind::Nash, &fw, &mut st)?;
            st.nash = t;
            let (optimum, t) = profile(&scenario, EqKind::Optimum, &fw, &mut st)?;
            st.optimum = t;
            if o.task == Task::Curve {
                let alphas: Vec<f64> = (0..=o.steps).map(|k| k as f64 / o.steps as f64).collect();
                let (c, t) =
                    timed(|| model.anarchy_curve(&alphas, o.strategy, &fw, &optimum, &nash));
                c.map_err(|e| format!("curve: {e}"))?;
                st.induced = t;
            }
            st.nash_profile = Some(nash);
            st.optimum_profile = Some(optimum);
        }
        other => return Err(format!("task {other} is not part of any workload")),
    }
    Ok(st)
}

/// The workload's largest network, as a multicommodity instance.
pub fn as_multi(scenario: &Scenario) -> Option<MultiCommodityInstance> {
    match scenario {
        Scenario::Parallel(_) => None,
        Scenario::Network(n) => Some(MultiCommodityInstance {
            graph: n.graph.clone(),
            latencies: n.latencies.clone(),
            commodities: vec![Commodity {
                source: n.source,
                sink: n.sink,
                rate: n.rate,
            }],
        }),
        Scenario::Multi(m) => Some(m.clone()),
    }
}

/// Kernel timings on one network at a given flow.
#[derive(Default)]
pub struct Kernels {
    pub query_us: f64,
    pub settled_nodes: f64,
    pub to_many_us: f64,
    pub sweep_ns_per_edge: f64,
    pub sweep_bytes: f64,
    pub line_search_us: f64,
    pub certify_ms: f64,
}

/// Times the shortest-path, latency-sweep and line-search kernels on
/// `inst` at the optimum `profile`, and certifies the Nash and optimum
/// profiles (an uncertified profile counts as a failure in `out`).
pub fn kernels(
    inst: &MultiCommodityInstance,
    optimum: &ModelProfile,
    nash: Option<&ModelProfile>,
    out: &mut Outcome,
) -> Kernels {
    let mut k = Kernels::default();
    let m = inst.graph.num_edges();
    let f = optimum.flows();
    let batch = LatencyBatch::new(&inst.latencies);
    let mut costs = vec![0.0; m];
    // Sweep: one marginal-cost evaluation over every edge, the FW gradient.
    let reps = (2_000_000 / m.max(1)).clamp(20, 2_000);
    let (_, t) = timed(|| {
        for _ in 0..reps {
            batch.marginal_into(std::hint::black_box(f), &mut costs);
        }
    });
    k.sweep_ns_per_edge = t * 1e9 / (reps * m) as f64;
    // Computed, not measured: the flow read, the cost written, and the
    // three per-edge BPR parameters (t0, b/c^p, c) read once per sweep.
    k.sweep_bytes = (m * 8 * 5) as f64;

    let csr = Csr::new(&inst.graph);
    let rcsr = RevCsr::new(&inst.graph);
    let mut ws = SpWorkspace::new();
    let mut q_us = Vec::new();
    let mut settled = Vec::new();
    let mut y = vec![0.0; m];
    for c in inst.commodities.iter().take(16) {
        let t = Instant::now();
        let d = ws.shortest_to(&csr, Some(&rcsr), &costs, c.source, c.sink, SpMode::Auto);
        q_us.push(secs(t) * 1e6);
        settled.push(ws.settled_nodes() as f64);
        if d.is_some() {
            ws.walk_st_path(&csr, Some(&rcsr), |e| y[e.idx()] += c.rate);
        }
    }
    k.query_us = median(&q_us);
    k.settled_nodes = mean(&settled);
    // One-to-many: one traversal per origin to all of its sinks.
    let mut origins: Vec<_> = inst.commodities.iter().map(|c| c.source).collect();
    origins.sort();
    origins.dedup();
    let mut many_us = Vec::new();
    for &o in origins.iter().take(16) {
        let targets: Vec<_> = inst
            .commodities
            .iter()
            .filter(|c| c.source == o)
            .map(|c| c.sink)
            .collect();
        let t = Instant::now();
        std::hint::black_box(ws.shortest_to_many(&csr, &costs, o, &targets));
        many_us.push(secs(t) * 1e6);
    }
    k.to_many_us = median(&many_us);
    // Line search along the all-or-nothing direction from the optimum.
    // Only commodities routed above enter the direction; `y` carries
    // exactly their demand, so scale `f` to the same total first.
    let routed: f64 = inst.commodities.iter().take(16).map(|c| c.rate).sum();
    let total: f64 = inst.commodities.iter().map(|c| c.rate).sum();
    let fs: Vec<f64> = f.iter().map(|x| x * routed / total).collect();
    let d: Vec<f64> = y.iter().zip(&fs).map(|(a, b)| a - b).collect();
    let eval = Eval::new(&inst.latencies, Some(&batch));
    let gmax = max_step_eval(&eval, &fs, &d);
    let mut plan = DirPlan::new();
    let mut ls = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        std::hint::black_box(exact_step_eval(
            &eval,
            CostModel::SystemOptimum,
            &fs,
            &d,
            gmax,
            &mut plan,
        ));
        ls.push(secs(t) * 1e6);
    }
    k.line_search_us = median(&ls);

    k.certify_ms = certify(inst, optimum, nash, out) * 1e3;
    k
}

/// Certifies the optimum (KKT) and Nash (Wardrop) profiles of `inst`,
/// counting each certificate as one checked operation in `out`. Returns
/// the seconds the certificates took.
pub fn certify(
    inst: &MultiCommodityInstance,
    optimum: &ModelProfile,
    nash: Option<&ModelProfile>,
    out: &mut Outcome,
) -> f64 {
    let t = Instant::now();
    for (p, model, what) in [
        (Some(optimum), CostModel::SystemOptimum, "optimum (KKT)"),
        (nash, CostModel::Wardrop, "nash (Wardrop)"),
    ] {
        let Some(r) = p.and_then(ModelProfile::flow_result) else {
            continue;
        };
        let err = certify_multicommodity(inst, &r.per_commodity, &r.flow, model, CERT_TOL)
            .err()
            .map(|e| format!("{what} certificate: {e}"));
        out.check(err);
    }
    secs(t)
}

/// Phase sums (µs), counts and counter values the program's own recorder
/// gathered between two snapshots.
pub struct ObsDelta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl ObsDelta {
    pub fn new(before: MetricsSnapshot, after: MetricsSnapshot) -> Self {
        ObsDelta { before, after }
    }

    fn phase(s: &MetricsSnapshot, name: &str) -> (f64, f64) {
        s.phase(name)
            .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64))
    }

    /// (sum µs, count) of `name` in the window.
    pub fn phase_delta(&self, name: &str) -> (f64, f64) {
        let (s1, c1) = Self::phase(&self.after, name);
        let (s0, c0) = Self::phase(&self.before, name);
        (s1 - s0, c1 - c0)
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.after.counter(name).unwrap_or(0) as f64 - self.before.counter(name).unwrap_or(0) as f64
    }
}

/// Everything the per-layer metrics are computed from; each workload fills
/// what its layers do and leaves the rest at zero.
#[derive(Default)]
pub struct Trace {
    pub steps: Vec<Steps>,
    /// Per traced request: (sum of its timed layer calls, its end-to-end
    /// latency with tracing on) in seconds.
    pub coverage: Vec<(f64, f64)>,
    /// End-to-end seconds of the same requests with tracing off and on.
    pub untraced_s: f64,
    pub traced_s: f64,
    pub encode_s: Vec<f64>,
    pub response_bytes: Vec<f64>,
    pub obs: Option<ObsDelta>,
    pub kernels: Kernels,
    /// Cache-hit latencies (ms) of the workload's repeated requests.
    pub hit_ms: Vec<f64>,
    pub cache_hit_ratio: f64,
    pub cache_disk_hits: f64,
    pub cache_profile_hit_ratio: f64,
    pub persist_replay_s: f64,
    pub persist_log_kb: f64,
    pub persist_records: f64,
    pub persist_append_us: f64,
    pub queue_wait_ms: Vec<f64>,
    pub inflight_max: f64,
    pub idle_share: f64,
    pub steals: f64,
    pub tail_s: f64,
}

impl Trace {
    /// Emits every per-layer metric into `out`. Layer times are means per
    /// request over the requests that made the call, so heavy requests
    /// weigh in as they do in the workload's total time.
    pub fn emit(&self, out: &mut Outcome) {
        let col = |f: fn(&Steps) -> f64| -> Vec<f64> {
            self.steps.iter().map(f).filter(|&v| v > 0.0).collect()
        };
        out.metric("codec.parse_us", mean(&col(|s| s.codec_parse)) * 1e6, "us");
        out.metric("codec.encode_us", mean(&self.encode_s) * 1e6, "us");
        out.metric(
            "codec.response_kb",
            mean(&self.response_bytes) / 1024.0,
            "KiB",
        );
        out.metric("spec.parse_ms", mean(&col(|s| s.spec_parse)) * 1e3, "ms");
        out.metric("fingerprint.us", mean(&col(|s| s.fingerprint)) * 1e6, "us");
        out.metric("cache.hit_ratio", self.cache_hit_ratio, "ratio");
        out.metric(
            "cache.hit_latency_p99_ms",
            quantile(&self.hit_ms, 0.99),
            "ms",
        );
        out.metric("cache.disk_hits", self.cache_disk_hits, "count");
        out.metric(
            "cache.profile_hit_ratio",
            self.cache_profile_hit_ratio,
            "ratio",
        );
        out.metric("persist.replay_s", self.persist_replay_s, "s");
        out.metric("persist.log_kb", self.persist_log_kb, "KiB");
        out.metric("persist.records", self.persist_records, "count");
        out.metric("persist.append_us", self.persist_append_us, "us");
        out.metric(
            "serve.queue_wait_ms_p50",
            quantile(&self.queue_wait_ms, 0.5),
            "ms",
        );
        out.metric(
            "serve.queue_wait_ms_p99",
            quantile(&self.queue_wait_ms, 0.99),
            "ms",
        );
        out.metric("serve.inflight_max", self.inflight_max, "count");
        out.metric("scheduler.idle_share", self.idle_share, "ratio");
        out.metric("scheduler.steals", self.steals, "count");
        out.metric("scheduler.tail_s", self.tail_s, "s");
        out.metric(
            "equilibrium.optimum_ms",
            mean(&col(|s| s.optimum)) * 1e3,
            "ms",
        );
        out.metric("equilibrium.nash_ms", mean(&col(|s| s.nash)) * 1e3, "ms");
        out.metric(
            "equilibrium.induced_ms",
            mean(&col(|s| s.induced)) * 1e3,
            "ms",
        );
        out.metric("mop.plan_ms", mean(&col(|s| s.plan)) * 1e3, "ms");
        let fw: Vec<&(usize, usize, f64)> = self.steps.iter().flat_map(|s| &s.fw).collect();
        let iters: Vec<f64> = fw.iter().map(|f| f.0 as f64).collect();
        let rounds: Vec<f64> = fw.iter().map(|f| f.1 as f64).collect();
        out.metric("frank_wolfe.iterations", mean(&iters), "count");
        out.metric("frank_wolfe.polish_rounds", mean(&rounds), "count");
        let gap = fw.iter().map(|f| f.2).fold(0.0, f64::max);
        out.metric("frank_wolfe.rel_gap", gap, "ratio");
        let delta = |name: &str| {
            self.obs
                .as_ref()
                .map_or((0.0, 0.0), |o| o.phase_delta(name))
        };
        let counter = |name: &str| self.obs.as_ref().map_or(0.0, |o| o.counter(name));
        let (cold_us, cold_n) = delta("cold_solve");
        let (polish_us, polish_n) = delta("warm_polish");
        let (aon_us, aon_n) = delta("aon");
        let (_, sp_n) = delta("sp_query");
        let solves = counter("cold_starts") + counter("warm_starts");
        out.metric("frank_wolfe.cold_ms", ratio(cold_us, cold_n) / 1e3, "ms");
        out.metric(
            "frank_wolfe.us_per_iter",
            ratio(cold_us, counter("fw_iterations")),
            "us",
        );
        out.metric("path_polish.ms", ratio(polish_us, polish_n) / 1e3, "ms");
        out.metric("aon.pass_ms", ratio(aon_us, aon_n) / 1e3, "ms");
        out.metric("aon.share", ratio(aon_us, cold_us), "ratio");
        out.metric("aon.groups", ratio(counter("aon_groups"), aon_n), "count");
        out.metric(
            "aon.queries_saved",
            ratio(counter("aon_queries_saved"), aon_n),
            "count",
        );
        let k = &self.kernels;
        out.metric("csr.query_us", k.query_us, "us");
        out.metric("csr.settled_nodes", k.settled_nodes, "count");
        out.metric("csr.queries", ratio(sp_n, solves), "count");
        out.metric("csr.to_many_us", k.to_many_us, "us");
        out.metric("latency.sweep_ns_per_edge", k.sweep_ns_per_edge, "ns");
        out.metric("latency.sweep_bytes", k.sweep_bytes, "bytes");
        out.metric("line_search.us", k.line_search_us, "us");
        out.metric("certify.ms", k.certify_ms, "ms");
        let (layers, e2e) = self
            .coverage
            .iter()
            .fold((0.0, 0.0), |(a, b), (l, e)| (a + l, b + e));
        out.metric("trace.coverage", ratio(layers, e2e), "ratio");
        out.metric(
            "obs.overhead_pct",
            ratio(self.traced_s - self.untraced_s, self.untraced_s) * 100.0,
            "%",
        );
    }
}
