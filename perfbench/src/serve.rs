//! The serve layer, measured on od-fleet's traced pass: the fleet streamed
//! as envelope lines through `Server::serve` over a Unix socket pair (the
//! path of `sopt batch --stream` and `sopt serve`), written through to a
//! fresh `soptcache` log; then the server is rebuilt on the log and a
//! sample is replayed from disk.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

use stackopt::api::{EngineBuilder, Request, Server, SolveRequest, Task};
use stackopt::fleet::{generate_fleet, Family};

use crate::layers::Trace;
use crate::util::{median, nproc, timed, Outcome, Rng};

/// Requests replayed against the rebuilt server.
const REPLAY: usize = 50;
/// Rebuilds of the server on the log; their median is `persist.replay_s`.
const REBUILDS: usize = 5;

/// The envelope line `sopt batch --stream` sends for scenario `index`.
pub fn request_line(index: usize, spec: &str) -> String {
    let mut req = Request::solve(
        format!("f{index}").as_str(),
        SolveRequest {
            spec: spec.to_string(),
            task: Some(Task::Equilib),
            ..SolveRequest::default()
        },
    );
    req.index = Some(index);
    req.to_json()
}

/// One response line, as the client sees it.
struct Answer {
    at: Instant,
    index: Option<usize>,
    status: String,
    /// The `report` object, without the envelope's telemetry fields.
    report: Option<String>,
    elapsed_us: Option<f64>,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    Some(&line[start..])
}

fn number(line: &str, key: &str) -> Option<f64> {
    field(line, key)
        .and_then(|r| r.split([',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
}

fn parse_answer(line: &str, at: Instant) -> Answer {
    let status = field(line, "\"status\": \"")
        .and_then(|r| r.split('"').next())
        .unwrap_or("")
        .to_string();
    let report = field(line, "\"report\": ").map(|r| {
        let end = r.find(", \"elapsed_us\"").unwrap_or(r.len() - 1);
        r[..end].to_string()
    });
    Answer {
        at,
        index: number(line, "\"index\": ").map(|i| i as usize),
        status,
        report,
        elapsed_us: number(line, "\"elapsed_us\": "),
    }
}

/// Sends every line over one connection to `server.serve` as fast as the
/// socket takes them, reading the answers as they come. Returns the send
/// instants and the answers.
fn stream(server: &Server, lines: &[String]) -> Result<(Vec<Instant>, Vec<Answer>), String> {
    let (client, server_end) = UnixStream::pair().map_err(|e| e.to_string())?;
    let reader = BufReader::new(server_end.try_clone().map_err(|e| e.to_string())?);
    let mut tx = client.try_clone().map_err(|e| e.to_string())?;
    let (served, sent, answers) = std::thread::scope(|s| {
        let serve = s.spawn(move || server.serve(reader, server_end));
        let send = s.spawn(move || -> std::io::Result<Vec<Instant>> {
            let mut sent = Vec::with_capacity(lines.len());
            for line in lines {
                sent.push(Instant::now());
                tx.write_all(line.as_bytes())?;
                tx.write_all(b"\n")?;
            }
            tx.shutdown(std::net::Shutdown::Write)?;
            Ok(sent)
        });
        let mut answers = Vec::with_capacity(lines.len());
        for line in BufReader::new(&client).lines() {
            let Ok(line) = line else { break };
            answers.push(parse_answer(&line, Instant::now()));
        }
        let sent = send.join().expect("the sender does not panic");
        let served = serve.join().expect("serve contains panics per request");
        (served, sent, answers)
    });
    served.map_err(|e| e.to_string())?;
    let sent = sent.map_err(|e| format!("sending requests: {e}"))?;
    Ok((sent, answers))
}

/// A scratch directory inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn server(log: Option<&Path>) -> Result<Server, String> {
    let mut b = EngineBuilder::new().threads(nproc()).metrics(true);
    if let Some(log) = log {
        b = b.persist(log);
    }
    b.server().map_err(|e| e.to_string())
}

/// Miss latency with persistence on minus off, on parallel-link specs
/// the fleet does not contain.
fn append_cost(dir: &Scratch) -> Result<f64, String> {
    let specs: Vec<String> = generate_fleet(Family::Affine, 60, 0x00a9_9e4d, None, 1.0, None)
        .map_err(|e| e.to_string())?
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    let on = server(Some(&dir.file("append.soptcache")))?;
    let off = server(None)?;
    let mut d = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let req = Request::parse(&request_line(i, spec)).map_err(|e| e.error.to_string())?;
        let (_, t_on) = timed(|| on.handle(req.clone()));
        let (_, t_off) = timed(|| off.handle(req));
        d.push((t_on - t_off) * 1e6);
    }
    Ok(median(&d))
}

/// Streams `specs` through the serve front door with persistence on, checks
/// every index is answered once with its reference report, rebuilds the
/// server on the log and checks a sample of disk replays, and fills the
/// serve and persist fields of `tr`.
pub fn measure(
    seed: u64,
    specs: &[String],
    refs: &HashMap<String, String>,
    tr: &mut Trace,
    out: &mut Outcome,
) -> Result<(), String> {
    let lines: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| request_line(i, s))
        .collect();
    let dir = Scratch::new("fleet-serve")?;
    let log = dir.file("cache.soptcache");
    let (sent, answers) = stream(&server(Some(&log))?, &lines)?;

    let mut answer_of: Vec<Option<usize>> = vec![None; specs.len()];
    for (a, ans) in answers.iter().enumerate() {
        match ans.index.filter(|&i| i < specs.len()) {
            Some(i) if answer_of[i].is_none() => answer_of[i] = Some(a),
            Some(i) => out.check(Some(format!("index {i} streamed back twice"))),
            None => out.check(Some("a streamed answer without a known index".into())),
        }
    }
    for (i, spec) in specs.iter().enumerate() {
        out.check(match answer_of[i].map(|a| &answers[a]) {
            None => Some(format!("index {i} never streamed back")),
            Some(a) if a.status != "ok" => Some(format!("index {i} answered {}", a.status)),
            Some(a) if a.report.as_ref() != Some(&refs[spec]) => {
                Some(format!("streamed report {i} differs from its reference"))
            }
            Some(_) => None,
        });
    }
    // Queue wait: response latency from the send minus the service time
    // the envelope reports; in flight: sent and not yet answered.
    let ms = |a: Instant, b: Instant| a.saturating_duration_since(b).as_secs_f64() * 1e3;
    for (i, a) in answer_of.iter().enumerate() {
        if let Some(ans) = a.map(|a| &answers[a]) {
            if let Some(us) = ans.elapsed_us {
                tr.queue_wait_ms.push(ms(ans.at, sent[i]) - us / 1e3);
            }
        }
    }
    let mut answered: Vec<Instant> = answers.iter().map(|a| a.at).collect();
    answered.sort();
    tr.inflight_max = sent
        .iter()
        .enumerate()
        .map(|(i, &s)| (i + 1).saturating_sub(answered.partition_point(|&a| a <= s)) as f64)
        .fold(0.0, f64::max);

    tr.persist_log_kb = std::fs::metadata(&log).map_or(0.0, |m| m.len() as f64 / 1024.0);
    tr.persist_records =
        std::fs::read_to_string(&log).map_or(0, |s| s.lines().count().saturating_sub(1)) as f64;
    let mut rebuilds = Vec::new();
    let mut srv = None;
    for _ in 0..REBUILDS {
        drop(srv.take());
        let (s, t) = timed(|| server(Some(&log)));
        srv = Some(s?);
        rebuilds.push(t);
    }
    tr.persist_replay_s = median(&rebuilds);
    let srv = srv.expect("REBUILDS > 0");
    let mut rng = Rng::new(seed, 5);
    let mut sample: Vec<usize> = Vec::new();
    while sample.len() < REPLAY.min(specs.len()) {
        let i = rng.below(specs.len());
        if !sample.iter().any(|&j| specs[j] == specs[i]) {
            sample.push(i);
        }
    }
    for &i in &sample {
        let req = Request::parse(&lines[i]).map_err(|e| e.error.to_string())?;
        let json = srv.handle(req).to_json();
        let again = parse_answer(&json, Instant::now()).report;
        out.check(
            (again.as_ref() != Some(&refs[&specs[i]]))
                .then(|| format!("disk replay of index {i} differs from its reference")),
        );
    }
    let disk_hits = srv.stats().disk_hits;
    out.check(
        (disk_hits < sample.len() as u64)
            .then(|| format!("{disk_hits} disk hits for {} replayed solves", sample.len())),
    );
    tr.cache_disk_hits = disk_hits as f64;
    tr.persist_append_us = append_cost(&dir)?;
    Ok(())
}
