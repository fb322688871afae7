//! The disk-backed second-level cache: an append-only log of solved
//! reports and equilibrium profiles, replayed on startup.
//!
//! ## File format (`soptcache` version 3)
//!
//! A plain text file. Line 1 is the header `soptcache 3`; every further
//! line is one record, tab-separated:
//!
//! ```text
//! R␉task␉class␉tol₁₆␉alpha₁₆␉steps␉max_iters␉strategy␉psteps␉prounds␉aon␉spec␉payload
//! P␉class␉kind␉fwknobs␉spec␉payload
//! ```
//!
//! `R` records are report-memo entries — the key fields are exactly the
//! [`Fingerprint`] fields (the digest is recomputed on replay, so the log
//! carries no hash to go stale). `P` records are profile-memo entries —
//! the [`ProfileKey`] fields, with `fwknobs` either `-` (knob-free
//! parallel equalizer) or `tol₁₆:max_iters:aon`. (Version 2 added the
//! `aon` strategy token to both key shapes; version 3 dropped the
//! conjugate, restart and stall-window tokens from `fwknobs` when those
//! solver settings stopped being options.)
//!
//! Every `f64` in a key or payload is written as the 16-hex-digit big-endian
//! encoding of its IEEE-754 bits (`f64::to_bits`), **never** as decimal
//! text: replayed values are bit-for-bit the values that were computed, so
//! a report served across a restart serializes byte-identically to the
//! report that was first solved. Payload vectors are comma-joined (`-`
//! when empty); curve points are `alpha:cost:ratio:oracle` tokens.
//!
//! ## Robustness
//!
//! * Only `Ok` results are persisted — errors are deterministic to
//!   recompute and not worth the bytes.
//! * A torn final line (crash mid-append) or any undecodable record is
//!   skipped on replay; the rest of the log still loads.
//! * A file whose header is not `soptcache 3` — an older version's
//!   included — is refused with a typed [`SoptError::Io`]: every format
//!   change bumps the header rather than silently misparsing.
//! * Append failures (disk full, revoked permissions) poison the log
//!   handle: the server keeps solving from memory and simply stops
//!   persisting, rather than failing requests.

use std::io::Write;
use std::path::Path;

use sopt_core::curve::CurveStrategy;
use sopt_network::flow::EdgeFlow;
use sopt_solver::frank_wolfe::FwResult;
use sopt_solver::AonMode;

use super::super::engine::cache::{DiskAttachment, EqKind, FwKnobs, ProfileKey, SolveCache};
use super::super::engine::fingerprint::Fingerprint;
use super::super::error::SoptError;
use super::super::model::ModelProfile;
use super::super::report::{
    BetaReport, CurvePointReport, CurveReport, EquilibReport, LlfReport, PricingReport,
    PricingSweepPoint, Report, ReportData, ScenarioSummary, TollsReport,
};
use super::super::scenario::ScenarioClass;
use super::super::solve::Task;

/// The header line a version-3 cache file starts with.
const HEADER: &str = "soptcache 3";

/// The write side of the log. Appends are serialized by a mutex and
/// flushed per record; a failed append poisons the handle (persistence
/// stops, solving continues).
pub(crate) struct DiskLog {
    file: std::sync::Mutex<Option<std::fs::File>>,
}

impl DiskLog {
    /// Appends one report record (best-effort; see the module docs).
    pub(crate) fn append_report(&self, fp: &Fingerprint, report: &Report) {
        self.append_line(encode_report(fp, report));
    }

    /// Appends one profile record (best-effort).
    pub(crate) fn append_profile(&self, key: &ProfileKey, profile: &ModelProfile) {
        self.append_line(encode_profile(key, profile));
    }

    fn append_line(&self, line: Option<String>) {
        let Some(line) = line else {
            return; // unencodable (e.g. a spec containing a tab): skip
        };
        let mut guard = self.file.lock().expect("disk log lock poisoned");
        if let Some(f) = guard.as_mut() {
            let wrote = writeln!(f, "{line}").and_then(|()| f.flush());
            if wrote.is_err() {
                *guard = None;
            }
        }
    }
}

/// Opens (creating if missing) the log at `path`, replays every decodable
/// record into `cache`, and attaches the write side so fresh `Ok` results
/// are written through. Called once per cache by
/// [`EngineBuilder::build_cache`](super::super::engine::EngineBuilder).
pub(crate) fn attach(path: &Path, cache: &SolveCache) -> Result<(), SoptError> {
    let io_err = |what: &str, e: std::io::Error| SoptError::Io {
        context: format!("{what} '{}': {e}", path.display()),
    };
    let mut report_keys = std::collections::HashSet::new();
    let mut profile_keys = std::collections::HashSet::new();
    match std::fs::read_to_string(path) {
        Ok(text) if !text.is_empty() => {
            let mut lines = text.lines();
            if lines.next() != Some(HEADER) {
                return Err(SoptError::Io {
                    context: format!(
                        "'{}' is not a soptcache v3 file (bad header)",
                        path.display()
                    ),
                });
            }
            for line in lines {
                match decode_record(line) {
                    Some(Record::Report(fp, report)) => {
                        report_keys.insert(fp.clone());
                        cache.seed_report(fp, report);
                    }
                    Some(Record::Profile(key, profile)) => {
                        profile_keys.insert(key.clone());
                        cache.seed_profile(key, profile);
                    }
                    None => {} // torn or foreign record: skip, keep the rest
                }
            }
        }
        Ok(_) => {} // empty file: treat as fresh
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err("cannot read cache file", e)),
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| io_err("cannot open cache file", e))?;
    let empty = file
        .metadata()
        .map_err(|e| io_err("cannot stat cache file", e))?
        .len()
        == 0;
    if empty {
        writeln!(file, "{HEADER}").map_err(|e| io_err("cannot write cache header", e))?;
    }
    cache.attach_disk(DiskAttachment {
        log: DiskLog {
            file: std::sync::Mutex::new(Some(file)),
        },
        report_keys,
        profile_keys,
    });
    Ok(())
}

enum Record {
    Report(Fingerprint, Report),
    Profile(ProfileKey, ModelProfile),
}

/// One-shot compaction of the log at `path`: drops torn or undecodable
/// records, keeps only the newest record per cache key, and atomically
/// replaces the file (temp file in the same directory + rename). Returns
/// `(before, after)` record counts, header excluded.
///
/// Compaction is offline maintenance: run it while no server has the log
/// attached — an append racing the snapshot is lost at the rename.
pub(crate) fn compact(path: &Path) -> Result<(usize, usize), SoptError> {
    let io_err = |what: &str, e: std::io::Error| SoptError::Io {
        context: format!("{what} '{}': {e}", path.display()),
    };
    let text = std::fs::read_to_string(path).map_err(|e| io_err("cannot read cache file", e))?;
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return Err(SoptError::Io {
            context: format!(
                "'{}' is not a soptcache v3 file (bad header)",
                path.display()
            ),
        });
    }
    // Key = every field but the payload (the final tab-separated field) —
    // exactly the cache identity the record seeds. First-seen key order is
    // kept; the newest record per key wins, mirroring replay semantics.
    let mut order: Vec<&str> = Vec::new();
    let mut latest: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    let mut before = 0usize;
    for line in lines {
        before += 1;
        if decode_record(line).is_none() {
            continue; // torn or foreign: drop rather than carry forward
        }
        let Some((key, _payload)) = line.rsplit_once('\t') else {
            continue;
        };
        if latest.insert(key, line).is_none() {
            order.push(key);
        }
    }
    let tmp = {
        let mut name = path.as_os_str().to_owned();
        name.push(".compact-tmp");
        std::path::PathBuf::from(name)
    };
    let write_tmp = |tmp: &Path| -> std::io::Result<()> {
        let mut f = std::fs::File::create(tmp)?;
        writeln!(f, "{HEADER}")?;
        for key in &order {
            writeln!(f, "{}", latest[key])?;
        }
        f.sync_all()
    };
    if let Err(e) = write_tmp(&tmp) {
        let _ = std::fs::remove_file(&tmp);
        return Err(io_err("cannot write compacted file", e));
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err("cannot replace cache file", e))?;
    Ok((before, order.len()))
}

// ---------------------------------------------------------------------------
// Primitive token encoding.

fn hx(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn hx_bits(bits: u64) -> String {
    format!("{bits:016x}")
}

fn unhx(s: &str) -> Option<f64> {
    unhx_bits(s).map(f64::from_bits)
}

fn unhx_bits(s: &str) -> Option<u64> {
    (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok())?
}

fn vec_enc(v: &[f64]) -> String {
    if v.is_empty() {
        "-".to_string()
    } else {
        v.iter().map(|&x| hx(x)).collect::<Vec<_>>().join(",")
    }
}

fn vec_dec(s: &str) -> Option<Vec<f64>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split(',').map(unhx).collect()
}

fn opt_enc(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), hx)
}

fn opt_dec(s: &str) -> Option<Option<f64>> {
    if s == "-" {
        Some(None)
    } else {
        unhx(s).map(Some)
    }
}

fn class_name(c: ScenarioClass) -> &'static str {
    match c {
        ScenarioClass::Parallel => "parallel-links",
        ScenarioClass::Network => "network",
        ScenarioClass::Multi => "multicommodity",
    }
}

fn class_parse(s: &str) -> Option<ScenarioClass> {
    match s {
        "parallel-links" => Some(ScenarioClass::Parallel),
        "network" => Some(ScenarioClass::Network),
        "multicommodity" => Some(ScenarioClass::Multi),
        _ => None,
    }
}

fn kind_parse(s: &str) -> Option<EqKind> {
    match s {
        "nash" => Some(EqKind::Nash),
        "optimum" => Some(EqKind::Optimum),
        _ => None,
    }
}

/// Map an oracle name back to the `&'static str` the report type carries.
fn oracle_static(s: &str) -> Option<&'static str> {
    match s {
        "exact" => Some("exact"),
        "brute-force" => Some("brute-force"),
        "heuristic-upper-bound" => Some("heuristic-upper-bound"),
        _ => None,
    }
}

/// Map a pricing-method name back to the report's `&'static str`.
fn method_static(s: &str) -> Option<&'static str> {
    match s {
        "closed-form" => Some("closed-form"),
        "best-response" => Some("best-response"),
        "single-price-auction" => Some("single-price-auction"),
        _ => None,
    }
}

/// Map a curve-strategy name back to the report's `&'static str`.
fn split_static(s: &str) -> Option<&'static str> {
    match s {
        "strong" => Some("strong"),
        "weak" => Some("weak"),
        _ => None,
    }
}

/// A cursor over space-separated payload tokens.
struct Tok<'a>(std::str::SplitAsciiWhitespace<'a>);

impl<'a> Tok<'a> {
    fn new(s: &'a str) -> Self {
        Tok(s.split_ascii_whitespace())
    }

    fn next(&mut self) -> Option<&'a str> {
        self.0.next()
    }

    fn f64(&mut self) -> Option<f64> {
        unhx(self.next()?)
    }

    fn usize(&mut self) -> Option<usize> {
        self.next()?.parse().ok()
    }

    fn vec(&mut self) -> Option<Vec<f64>> {
        vec_dec(self.next()?)
    }

    fn opt(&mut self) -> Option<Option<f64>> {
        opt_dec(self.next()?)
    }

    /// The payload must be fully consumed — trailing tokens mean a record
    /// from a different (future) writer, which is safer to skip.
    fn done(mut self) -> Option<()> {
        self.next().is_none().then_some(())
    }
}

// ---------------------------------------------------------------------------
// Report records.

fn encode_report(fp: &Fingerprint, report: &Report) -> Option<String> {
    if fp.spec.contains('\t') || fp.spec.contains('\n') {
        return None; // cannot be framed; canonical specs never contain these
    }
    let payload = encode_report_payload(report)?;
    Some(format!(
        "R\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        fp.task.name(),
        class_name(fp.class),
        hx_bits(fp.tolerance_bits),
        hx_bits(fp.alpha_bits),
        fp.steps,
        fp.max_iters,
        fp.strategy.name(),
        fp.price_steps,
        fp.price_rounds,
        fp.aon.name(),
        fp.spec,
        payload
    ))
}

fn encode_report_payload(report: &Report) -> Option<String> {
    let s = &report.scenario;
    let head = format!("{} {} {}", s.size, s.nodes, hx(s.rate));
    let data = match &report.data {
        ReportData::Beta(b) => format!(
            "beta {} {} {} {} {} {} {}",
            hx(b.beta),
            hx(b.nash_cost),
            hx(b.optimum_cost),
            hx(b.induced_cost),
            vec_enc(&b.strategy),
            vec_enc(&b.optimum),
            vec_enc(&b.commodity_alphas)
        ),
        ReportData::Curve(c) => {
            let points = if c.points.is_empty() {
                "-".to_string()
            } else {
                c.points
                    .iter()
                    .map(|p| {
                        format!(
                            "{}:{}:{}:{}",
                            hx(p.alpha),
                            hx(p.cost),
                            hx(p.ratio),
                            p.oracle
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            };
            format!(
                "curve {} {} {} {} {} {points}",
                hx(c.beta),
                opt_enc(c.weak_beta),
                c.strategy,
                hx(c.nash_cost),
                hx(c.optimum_cost)
            )
        }
        ReportData::Equilib(e) => format!(
            "equilib {} {} {} {} {} {}",
            vec_enc(&e.nash_flows),
            opt_enc(e.nash_level),
            hx(e.nash_cost),
            vec_enc(&e.optimum_flows),
            opt_enc(e.optimum_level),
            hx(e.optimum_cost)
        ),
        ReportData::Tolls(t) => format!(
            "tolls {} {} {} {} {}",
            vec_enc(&t.tolls),
            vec_enc(&t.optimum),
            vec_enc(&t.tolled_nash),
            hx(t.tolled_cost),
            hx(t.revenue)
        ),
        ReportData::Llf(l) => format!(
            "llf {} {} {} {} {} {}",
            hx(l.alpha),
            vec_enc(&l.strategy),
            hx(l.cost),
            hx(l.optimum_cost),
            hx(l.ratio),
            hx(l.bound)
        ),
        ReportData::Pricing(p) => {
            let sweep = if p.sweep.is_empty() {
                "-".to_string()
            } else {
                p.sweep
                    .iter()
                    .map(|s| format!("{}:{}", hx(s.beta), hx(s.revenue)))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            format!(
                "pricing {} {} {} {} {} {sweep}",
                p.method,
                vec_enc(&p.prices),
                vec_enc(&p.flows),
                hx(p.revenue),
                opt_enc(p.level)
            )
        }
    };
    Some(format!("{head} {data}"))
}

fn decode_record(line: &str) -> Option<Record> {
    let mut fields = line.split('\t');
    match fields.next()? {
        "R" => decode_report(fields),
        "P" => decode_profile(fields),
        _ => None,
    }
}

fn decode_report(mut fields: std::str::Split<'_, char>) -> Option<Record> {
    let task: Task = fields.next()?.parse().ok()?;
    let class = class_parse(fields.next()?)?;
    let tolerance_bits = unhx_bits(fields.next()?)?;
    let alpha_bits = unhx_bits(fields.next()?)?;
    let steps: usize = fields.next()?.parse().ok()?;
    let max_iters: usize = fields.next()?.parse().ok()?;
    let strategy = CurveStrategy::from_name(fields.next()?)?;
    let price_steps: usize = fields.next()?.parse().ok()?;
    let price_rounds: usize = fields.next()?.parse().ok()?;
    let aon = AonMode::from_name(fields.next()?)?;
    let spec = fields.next()?.to_string();
    let payload = fields.next()?;
    if fields.next().is_some() {
        return None;
    }
    let mut t = Tok::new(payload);
    let size = t.usize()?;
    let nodes = t.usize()?;
    let rate = t.f64()?;
    let data = decode_report_data(&mut t)?;
    t.done()?;
    let report = Report {
        scenario: ScenarioSummary {
            class,
            task,
            size,
            nodes,
            rate,
        },
        data,
    };
    let fp = Fingerprint::from_parts(
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
        aon,
    );
    Some(Record::Report(fp, report))
}

fn decode_report_data(t: &mut Tok<'_>) -> Option<ReportData> {
    match t.next()? {
        "beta" => Some(ReportData::Beta(BetaReport {
            beta: t.f64()?,
            nash_cost: t.f64()?,
            optimum_cost: t.f64()?,
            induced_cost: t.f64()?,
            strategy: t.vec()?,
            optimum: t.vec()?,
            commodity_alphas: t.vec()?,
        })),
        "curve" => {
            let beta = t.f64()?;
            let weak_beta = t.opt()?;
            let strategy = split_static(t.next()?)?;
            let nash_cost = t.f64()?;
            let optimum_cost = t.f64()?;
            let points_tok = t.next()?;
            let points = if points_tok == "-" {
                Vec::new()
            } else {
                points_tok
                    .split(',')
                    .map(|p| {
                        let mut parts = p.split(':');
                        let point = CurvePointReport {
                            alpha: unhx(parts.next()?)?,
                            cost: unhx(parts.next()?)?,
                            ratio: unhx(parts.next()?)?,
                            oracle: oracle_static(parts.next()?)?,
                        };
                        parts.next().is_none().then_some(point)
                    })
                    .collect::<Option<Vec<_>>>()?
            };
            Some(ReportData::Curve(CurveReport {
                beta,
                weak_beta,
                strategy,
                nash_cost,
                optimum_cost,
                points,
            }))
        }
        "equilib" => Some(ReportData::Equilib(EquilibReport {
            nash_flows: t.vec()?,
            nash_level: t.opt()?,
            nash_cost: t.f64()?,
            optimum_flows: t.vec()?,
            optimum_level: t.opt()?,
            optimum_cost: t.f64()?,
        })),
        "tolls" => Some(ReportData::Tolls(TollsReport {
            tolls: t.vec()?,
            optimum: t.vec()?,
            tolled_nash: t.vec()?,
            tolled_cost: t.f64()?,
            revenue: t.f64()?,
        })),
        "llf" => Some(ReportData::Llf(LlfReport {
            alpha: t.f64()?,
            strategy: t.vec()?,
            cost: t.f64()?,
            optimum_cost: t.f64()?,
            ratio: t.f64()?,
            bound: t.f64()?,
        })),
        "pricing" => {
            let method = method_static(t.next()?)?;
            let prices = t.vec()?;
            let flows = t.vec()?;
            let revenue = t.f64()?;
            let level = t.opt()?;
            let sweep_tok = t.next()?;
            let sweep = if sweep_tok == "-" {
                Vec::new()
            } else {
                sweep_tok
                    .split(',')
                    .map(|p| {
                        let mut parts = p.split(':');
                        let point = PricingSweepPoint {
                            beta: unhx(parts.next()?)?,
                            revenue: unhx(parts.next()?)?,
                        };
                        parts.next().is_none().then_some(point)
                    })
                    .collect::<Option<Vec<_>>>()?
            };
            Some(ReportData::Pricing(PricingReport {
                method,
                prices,
                flows,
                revenue,
                level,
                sweep,
            }))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Profile records.

fn encode_profile(key: &ProfileKey, profile: &ModelProfile) -> Option<String> {
    if key.spec.contains('\t') || key.spec.contains('\n') {
        return None;
    }
    let fw = match key.fw {
        None => "-".to_string(),
        Some(k) => format!("{}:{}:{}", hx_bits(k.tolerance_bits), k.max_iters, k.aon),
    };
    let payload = match profile {
        ModelProfile::Parallel { flows, level } => {
            format!("par {} {}", hx(*level), vec_enc(flows))
        }
        ModelProfile::Flow(r) => {
            let per = if r.per_commodity.is_empty() {
                "-".to_string()
            } else {
                r.per_commodity
                    .iter()
                    .map(|f| vec_enc(f.as_slice()))
                    .collect::<Vec<_>>()
                    .join(";")
            };
            format!(
                "fw {} {} {} {} {} {per}",
                hx(r.objective),
                hx(r.rel_gap),
                r.iterations,
                u8::from(r.converged),
                vec_enc(r.flow.as_slice())
            )
        }
    };
    Some(format!(
        "P\t{}\t{}\t{fw}\t{}\t{payload}",
        class_name(key.class),
        key.kind.what(),
        key.spec
    ))
}

fn decode_profile(mut fields: std::str::Split<'_, char>) -> Option<Record> {
    let class = class_parse(fields.next()?)?;
    let kind = kind_parse(fields.next()?)?;
    let fw_tok = fields.next()?;
    let fw = if fw_tok == "-" {
        None
    } else {
        let mut parts = fw_tok.split(':');
        let knobs = FwKnobs {
            tolerance_bits: unhx_bits(parts.next()?)?,
            max_iters: parts.next()?.parse().ok()?,
            aon: AonMode::from_name(parts.next()?)?.name(),
        };
        if parts.next().is_some() {
            return None;
        }
        Some(knobs)
    };
    let spec = fields.next()?.to_string();
    let payload = fields.next()?;
    if fields.next().is_some() {
        return None;
    }
    let mut t = Tok::new(payload);
    let profile = match t.next()? {
        "par" => ModelProfile::Parallel {
            level: t.f64()?,
            flows: t.vec()?,
        },
        "fw" => {
            let objective = t.f64()?;
            let rel_gap = t.f64()?;
            let iterations = t.usize()?;
            let converged = match t.next()? {
                "0" => false,
                "1" => true,
                _ => return None,
            };
            let flow = EdgeFlow(t.vec()?);
            let per_tok = t.next()?;
            let per_commodity = if per_tok == "-" {
                Vec::new()
            } else {
                per_tok
                    .split(';')
                    .map(|s| vec_dec(s).map(EdgeFlow))
                    .collect::<Option<Vec<_>>>()?
            };
            // The on-disk record predates the fw/polish iteration split;
            // attribute everything to the FW phase on replay. Telemetry
            // fields never feed a Report, so replays stay bit-identical.
            ModelProfile::Flow(FwResult {
                flow,
                per_commodity,
                objective,
                rel_gap,
                iterations,
                fw_iterations: iterations,
                polish_rounds: 0,
                converged,
            })
        }
        _ => return None,
    };
    t.done()?;
    Some(Record::Profile(
        ProfileKey {
            class,
            spec,
            kind,
            fw,
        },
        profile,
    ))
}

#[cfg(test)]
mod tests {
    use super::super::super::scenario::Scenario;
    use super::super::super::solve::SolveOptions;
    use super::*;

    fn report_of(spec: &str, task: Task) -> (Fingerprint, Report) {
        let sc = Scenario::parse(spec).unwrap();
        let mut options = SolveOptions {
            task,
            ..SolveOptions::default()
        };
        if task == Task::Llf {
            options.alpha = Some(0.5);
        }
        let fp = Fingerprint::of(&sc, &options).unwrap();
        let report = match task {
            Task::Llf => sc.solve().task(task).alpha(0.5).run().unwrap(),
            _ => sc.solve().task(task).run().unwrap(),
        };
        (fp, report)
    }

    #[test]
    fn report_records_round_trip_bit_exactly() {
        for task in Task::ALL {
            // Pricing needs an all-affine instance (a constant link has no
            // pricing equilibrium for best-response to find).
            let spec = if task == Task::Pricing {
                "x+0.2, 2x+0.3"
            } else {
                "x, 2x+0.3, 1.0"
            };
            let (fp, report) = report_of(spec, task);
            let line = encode_report(&fp, &report).unwrap();
            let Some(Record::Report(fp2, report2)) = decode_record(&line) else {
                panic!("{task}: undecodable: {line}");
            };
            assert_eq!(fp, fp2, "{task}");
            assert_eq!(report.to_json(), report2.to_json(), "{task}");
        }
    }

    #[test]
    fn network_report_records_round_trip() {
        let (fp, report) = report_of("nodes=2; 0->1: x; 0->1: 1; demand 0->1: 1", Task::Beta);
        let line = encode_report(&fp, &report).unwrap();
        let Some(Record::Report(fp2, report2)) = decode_record(&line) else {
            panic!("undecodable: {line}");
        };
        assert_eq!(fp, fp2);
        assert_eq!(report.to_json(), report2.to_json());
    }

    #[test]
    fn profile_records_round_trip() {
        let key = ProfileKey {
            class: ScenarioClass::Parallel,
            spec: "x, 1".into(),
            kind: EqKind::Nash,
            fw: None,
        };
        let profile = ModelProfile::Parallel {
            flows: vec![0.25, 0.75],
            level: 1.0 + f64::EPSILON, // an awkward value decimal would mangle
        };
        let line = encode_profile(&key, &profile).unwrap();
        let Some(Record::Profile(key2, profile2)) = decode_record(&line) else {
            panic!("undecodable: {line}");
        };
        assert_eq!(key, key2);
        let (
            ModelProfile::Parallel { flows, level },
            ModelProfile::Parallel {
                flows: f2,
                level: l2,
            },
        ) = (&profile, &profile2)
        else {
            panic!()
        };
        assert_eq!(flows, f2);
        assert_eq!(level.to_bits(), l2.to_bits());

        let fw_key = ProfileKey {
            class: ScenarioClass::Multi,
            spec: "nodes=2; 0->1: x; demand 0->1: 1".into(),
            kind: EqKind::Optimum,
            fw: Some(FwKnobs {
                tolerance_bits: 1e-10f64.to_bits(),
                max_iters: 2000,
                aon: AonMode::Auto.name(),
            }),
        };
        let fw_profile = ModelProfile::Flow(FwResult {
            flow: EdgeFlow(vec![1.0, 0.0]),
            per_commodity: vec![EdgeFlow(vec![0.5, 0.0]), EdgeFlow(vec![0.5, 0.0])],
            objective: 0.123456789,
            rel_gap: 1e-11,
            iterations: 42,
            fw_iterations: 42,
            polish_rounds: 0,
            converged: true,
        });
        let line = encode_profile(&fw_key, &fw_profile).unwrap();
        let Some(Record::Profile(key2, profile2)) = decode_record(&line) else {
            panic!("undecodable: {line}");
        };
        assert_eq!(fw_key, key2);
        let ModelProfile::Flow(r) = profile2 else {
            panic!()
        };
        assert_eq!(r.flow.as_slice(), &[1.0, 0.0]);
        assert_eq!(r.per_commodity.len(), 2);
        assert_eq!(r.iterations, 42);
        assert!(r.converged);
        assert_eq!(r.objective.to_bits(), 0.123456789f64.to_bits());
    }

    #[test]
    fn compact_keeps_newest_record_per_key_and_drops_torn_lines() {
        let (fp, report) = report_of("x, 2x+0.3, 1.0", Task::Beta);
        let line_a = encode_report(&fp, &report).unwrap();
        // A second record under the same key but a different payload — the
        // newest must win.
        let mut doctored = report.clone();
        if let ReportData::Beta(b) = &mut doctored.data {
            b.beta = 0.25;
        }
        let line_b = encode_report(&fp, &doctored).unwrap();
        let (fp2, report2) = report_of("x, 1.0", Task::Equilib);
        let line_c = encode_report(&fp2, &report2).unwrap();
        let dir = std::env::temp_dir().join(format!("sopt-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.soptcache");
        std::fs::write(
            &path,
            format!("{HEADER}\n{line_a}\n{line_c}\n{line_b}\nR\ttorn"),
        )
        .unwrap();
        let (before, after) = compact(&path).unwrap();
        assert_eq!((before, after), (4, 2));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Header intact, first-seen key order, newest payload per key.
        assert_eq!(lines, vec![HEADER, line_b.as_str(), line_c.as_str()]);
        // The compacted file still replays: every line decodes.
        for line in &lines[1..] {
            assert!(decode_record(line).is_some());
        }
        // Compacting an already-compact file is a fixpoint.
        assert_eq!(compact(&path).unwrap(), (2, 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_refuses_a_foreign_header() {
        let dir = std::env::temp_dir().join(format!("sopt-compact-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not-a-cache");
        // A version-2 log is refused like any foreign file: its profile
        // records carry knob tokens this version no longer reads.
        for text in ["something else\n", "soptcache 2\n"] {
            std::fs::write(&path, text).unwrap();
            assert!(matches!(
                compact(&path).unwrap_err(),
                SoptError::Io { context } if context.contains("bad header")
            ));
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_and_foreign_records_are_skipped() {
        for bad in [
            "",
            "R",
            "R\tbeta",
            "R\tbeta\tparallel-links\tzz\t00\t1\t1\tstrong\tx, 1\t2 2 00",
            "Q\twhatever",
            "R\tbeta\tparallel-links", // truncated mid-record (torn write)
            "P\tparallel-links\tnash\t-\tx, 1\tpar", // payload cut short
        ] {
            assert!(decode_record(bad).is_none(), "accepted {bad:?}");
        }
    }
}
