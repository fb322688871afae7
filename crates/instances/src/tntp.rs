//! TNTP importer — the Transportation Networks test-problem format behind
//! `sopt import --format tntp`.
//!
//! TNTP (<https://github.com/bstabler/TransportationNetworks>) is the de
//! facto exchange format for traffic-assignment benchmarks (Sioux Falls,
//! Anaheim, Chicago, …). A *network* file carries `<KEY> value` metadata
//! followed by one link row per line; a *trips* file carries `Origin`
//! blocks of `destination : flow;` entries. This module parses both into
//! the repo's native types: every link becomes a BPR latency
//! `t0·(1 + b·(x/c)^p)` from its free-flow time, coefficient, capacity and
//! power columns, so imported instances run on the exact same solver path
//! as the generated families.
//!
//! The parsers are strict where it matters (node ids in range, positive
//! capacities, integral BPR powers — the latency kernels need `p: u32`)
//! and lenient where real files are sloppy (tilde comments, `~` header
//! rows, missing optional columns, blank lines). All failures are typed
//! [`TntpError`] values carrying the 1-based source line.
//!
//! Parsing is *streaming*: [`parse_tntp_net_reader`] and
//! [`parse_tntp_trips_reader`] consume any [`BufRead`] line by line through
//! one reused buffer, so a city-scale file never has to sit in memory as
//! one string. The `&str` entry points are thin wrappers over the byte
//! readers and behave identically.

use std::io::BufRead;

use sopt_latency::LatencyFn;
use sopt_network::graph::{DiGraph, NodeId, MAX_PARSED_NODES};
use sopt_network::instance::{Commodity, MultiCommodityInstance, NetworkInstance};

/// A parse failure, pointing at the offending 1-based line of the input.
#[derive(Clone, Debug, PartialEq)]
pub enum TntpError {
    /// A required `<KEY>` metadata tag is missing.
    MissingMetadata {
        /// The tag, e.g. `"NUMBER OF NODES"`.
        key: &'static str,
    },
    /// A line could not be parsed or carries an invalid value.
    Malformed {
        /// 1-based line number in the input text.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The parsed demands cannot form an instance (e.g. no trips at all).
    NoDemand,
    /// The underlying reader failed mid-stream.
    Io(String),
}

impl std::fmt::Display for TntpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TntpError::MissingMetadata { key } => {
                write!(f, "tntp: missing <{key}> metadata tag")
            }
            TntpError::Malformed { line, reason } => {
                write!(f, "tntp: line {line}: {reason}")
            }
            TntpError::NoDemand => {
                write!(f, "tntp: trips carry no positive off-diagonal demand")
            }
            TntpError::Io(e) => write!(f, "tntp: read failed: {e}"),
        }
    }
}

impl std::error::Error for TntpError {}

/// A parsed TNTP network (+ optional trips): the pieces of a
/// [`NetworkInstance`] / [`MultiCommodityInstance`] before a demand
/// structure is chosen.
#[derive(Clone, Debug)]
pub struct TntpNetwork {
    /// The street graph, nodes `0..n` (TNTP's 1-based ids minus one).
    pub graph: DiGraph,
    /// One BPR latency per edge, in link-row order.
    pub latencies: Vec<LatencyFn>,
    /// `(origin, destination, flow)` demands from the trips file; empty
    /// when no trips were supplied.
    pub demands: Vec<(NodeId, NodeId, f64)>,
}

impl TntpNetwork {
    /// Build the native instance: single-commodity when exactly one demand
    /// survived, multicommodity otherwise. `fallback_rate` routes
    /// first-node → last-node when no trips were supplied.
    pub fn into_instance(self, fallback_rate: f64) -> Result<TntpInstance, TntpError> {
        let mut demands = self.demands;
        if demands.is_empty() {
            let n = self.graph.num_nodes();
            if n < 2 || !(fallback_rate.is_finite() && fallback_rate > 0.0) {
                return Err(TntpError::NoDemand);
            }
            demands.push((NodeId(0), NodeId(n as u32 - 1), fallback_rate));
        }
        if demands.len() == 1 {
            let (s, t, r) = demands[0];
            return Ok(TntpInstance::Single(NetworkInstance::new(
                self.graph,
                self.latencies,
                s,
                t,
                r,
            )));
        }
        let commodities = demands
            .into_iter()
            .map(|(source, sink, rate)| Commodity { source, sink, rate })
            .collect();
        Ok(TntpInstance::Multi(MultiCommodityInstance::new(
            self.graph,
            self.latencies,
            commodities,
        )))
    }
}

/// The instance an import produced.
#[derive(Clone, Debug)]
pub enum TntpInstance {
    /// Exactly one origin–destination pair.
    Single(NetworkInstance),
    /// Several origin–destination pairs.
    Multi(MultiCommodityInstance),
}

/// Strip a `~` comment and surrounding whitespace from a TNTP line.
fn clean(line: &str) -> &str {
    match line.find('~') {
        Some(i) => line[..i].trim(),
        None => line.trim(),
    }
}

/// Streams non-empty, comment-stripped lines out of a [`BufRead`] through
/// one reused buffer, tracking the `<KEY> value` metadata header as it
/// goes. Callers pull body rows with [`LineScanner::next_body_row`]; the
/// accumulated metadata is available once the first body row (or EOF) has
/// been seen — metadata always precedes the body in TNTP files.
struct LineScanner<R> {
    reader: R,
    buf: String,
    line_no: usize,
    in_meta: bool,
    meta: Vec<(String, String)>,
}

impl<R: BufRead> LineScanner<R> {
    fn new(reader: R) -> Self {
        LineScanner {
            reader,
            buf: String::new(),
            line_no: 0,
            in_meta: true,
            meta: Vec::new(),
        }
    }

    /// The next 1-based `(line_no, row)` body line, or `None` at EOF.
    /// Metadata tags are absorbed into `self.meta` along the way; a file
    /// without an explicit `<END OF METADATA>` ends its header at the
    /// first non-tag row.
    fn next_body_row(&mut self) -> Result<Option<(usize, &str)>, TntpError> {
        // The loop yields the row's *byte span* and re-slices after it
        // ends: returning `clean(&self.buf)` directly from inside the
        // loop would pin the borrow across the `buf.clear()` of the next
        // iteration under the current borrow checker.
        let span = loop {
            self.buf.clear();
            let read = self
                .reader
                .read_line(&mut self.buf)
                .map_err(|e| TntpError::Io(e.to_string()))?;
            if read == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let cleaned = clean(&self.buf);
            if cleaned.is_empty() {
                continue;
            }
            if self.in_meta {
                if let Some(rest) = cleaned.strip_prefix('<') {
                    if let Some(end) = rest.find('>') {
                        let key = rest[..end].trim();
                        if key.eq_ignore_ascii_case("END OF METADATA") {
                            self.in_meta = false;
                            continue;
                        }
                        let (key, value) = (key.to_string(), rest[end + 1..].trim().to_string());
                        self.meta.push((key, value));
                        continue;
                    }
                }
                self.in_meta = false;
            }
            let start = cleaned.as_ptr() as usize - self.buf.as_ptr() as usize;
            break start..start + cleaned.len();
        };
        Ok(Some((self.line_no, &self.buf[span])))
    }

    fn meta_usize(&self, key: &'static str) -> Result<Option<usize>, TntpError> {
        for (k, v) in &self.meta {
            if k.eq_ignore_ascii_case(key) {
                return v
                    .split_whitespace()
                    .next()
                    .and_then(|t| t.parse().ok())
                    .map(Some)
                    .ok_or(TntpError::MissingMetadata { key });
            }
        }
        Ok(None)
    }
}

fn field(tokens: &[&str], idx: usize, name: &str, line: usize) -> Result<f64, TntpError> {
    let tok = tokens.get(idx).ok_or_else(|| TntpError::Malformed {
        line,
        reason: format!("missing {name} column (need {} fields)", idx + 1),
    })?;
    tok.parse().map_err(|e| TntpError::Malformed {
        line,
        reason: format!("bad {name} '{tok}': {e}"),
    })
}

fn node_in_range(raw: f64, n: usize, name: &str, line: usize) -> Result<NodeId, TntpError> {
    let id = raw as i64;
    if raw.fract() != 0.0 || id < 1 || id as usize > n {
        return Err(TntpError::Malformed {
            line,
            reason: format!("{name} {raw} out of range 1..={n}"),
        });
    }
    Ok(NodeId(id as u32 - 1))
}

/// One link row: `init term capacity length fft b power …` (trailing
/// columns — speed, toll, type — are ignored, as is a trailing `;`).
fn parse_link_row(
    g: &mut DiGraph,
    lats: &mut Vec<LatencyFn>,
    n: usize,
    line: usize,
    row: &str,
) -> Result<(), TntpError> {
    // Header rows some files repeat mid-body.
    if row.starts_with("init") || row.starts_with("Init") {
        return Ok(());
    }
    let row = row.trim_end_matches(';').trim();
    if row.is_empty() {
        return Ok(());
    }
    let tokens: Vec<&str> = row.split_whitespace().collect();
    let init = node_in_range(field(&tokens, 0, "init node", line)?, n, "init node", line)?;
    let term = node_in_range(field(&tokens, 1, "term node", line)?, n, "term node", line)?;
    if init == term {
        return Err(TntpError::Malformed {
            line,
            reason: format!("self-loop at node {}", init.0 + 1),
        });
    }
    let capacity = field(&tokens, 2, "capacity", line)?;
    let length = field(&tokens, 3, "length", line)?;
    let fft = field(&tokens, 4, "free flow time", line)?;
    let b = field(&tokens, 5, "b", line)?;
    let power = field(&tokens, 6, "power", line)?;
    if !(capacity.is_finite() && capacity > 0.0) {
        return Err(TntpError::Malformed {
            line,
            reason: format!("capacity must be positive, got {capacity}"),
        });
    }
    if !(b.is_finite() && b >= 0.0) {
        return Err(TntpError::Malformed {
            line,
            reason: format!("b must be ≥ 0, got {b}"),
        });
    }
    if power.fract() != 0.0 || !(0.0..=64.0).contains(&power) {
        return Err(TntpError::Malformed {
            line,
            reason: format!("power must be an integer in 0..=64, got {power}"),
        });
    }
    // Zero free-flow time appears in real files (connector links);
    // fall back to the length column, then to a nominal unit time.
    let t0 = if fft > 0.0 {
        fft
    } else if length > 0.0 {
        length
    } else {
        1.0
    };
    let lat = if b == 0.0 || power == 0.0 {
        LatencyFn::constant(t0)
    } else {
        LatencyFn::bpr(t0, b, capacity, power as u32)
    };
    g.add_edge(init, term);
    lats.push(lat);
    Ok(())
}

/// Streaming parse of a TNTP network into a graph and per-edge BPR
/// latencies — one buffered line at a time, never the whole file.
pub fn parse_tntp_net_reader<R: BufRead>(
    reader: R,
) -> Result<(DiGraph, Vec<LatencyFn>), TntpError> {
    let mut scanner = LineScanner::new(reader);
    // The first body row (copied out — the scanner's buffer is about to be
    // reused) closes the metadata header, which the graph size needs.
    let first: Option<(usize, String)> = scanner
        .next_body_row()?
        .map(|(line, row)| (line, row.to_string()));
    let n = scanner
        .meta_usize("NUMBER OF NODES")?
        .ok_or(TntpError::MissingMetadata {
            key: "NUMBER OF NODES",
        })?;
    if n > MAX_PARSED_NODES {
        return Err(TntpError::Malformed {
            line: 0,
            reason: format!("<NUMBER OF NODES> {n} exceeds the limit of {MAX_PARSED_NODES}"),
        });
    }
    let links = scanner.meta_usize("NUMBER OF LINKS")?;
    let mut g = DiGraph::with_nodes(n);
    let mut lats = Vec::new();
    if let Some((line, row)) = &first {
        parse_link_row(&mut g, &mut lats, n, *line, row)?;
    }
    while let Some((line, row)) = scanner.next_body_row()? {
        parse_link_row(&mut g, &mut lats, n, line, row)?;
    }
    if let Some(expect) = links {
        if lats.len() != expect {
            return Err(TntpError::Malformed {
                line: 0,
                reason: format!(
                    "<NUMBER OF LINKS> says {expect} but {} link rows parsed",
                    lats.len()
                ),
            });
        }
    }
    Ok((g, lats))
}

/// Parse a TNTP network file into a graph and per-edge BPR latencies.
///
/// Link rows are `init term capacity length fft b power …` (trailing
/// columns — speed, toll, type — are ignored, as is a trailing `;`).
/// `power` must be integral and ≥ 0 (0 or a zero `b` coefficient turns the
/// link into its constant free-flow time).
pub fn parse_tntp_net(text: &str) -> Result<(DiGraph, Vec<LatencyFn>), TntpError> {
    parse_tntp_net_reader(text.as_bytes())
}

/// Streaming parse of a TNTP trips table into `(origin, destination,
/// flow)` demands — one buffered line at a time, never the whole file.
/// Zero and diagonal (self) flows are dropped. `n` bounds the node ids.
pub fn parse_tntp_trips_reader<R: BufRead>(
    reader: R,
    n: usize,
) -> Result<Vec<(NodeId, NodeId, f64)>, TntpError> {
    let mut scanner = LineScanner::new(reader);
    let mut demands = Vec::new();
    let mut origin: Option<NodeId> = None;
    while let Some((line, row)) = scanner.next_body_row()? {
        if let Some(rest) = row.strip_prefix("Origin") {
            let raw: f64 = rest.trim().parse().map_err(|e| TntpError::Malformed {
                line,
                reason: format!("bad origin '{}': {e}", rest.trim()),
            })?;
            origin = Some(node_in_range(raw, n, "origin", line)?);
            continue;
        }
        let Some(o) = origin else {
            return Err(TntpError::Malformed {
                line,
                reason: "destination entries before any 'Origin' header".into(),
            });
        };
        // `dest : flow; dest : flow; …`
        for entry in row.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (d, v) = entry.split_once(':').ok_or_else(|| TntpError::Malformed {
                line,
                reason: format!("expected 'dest : flow', got '{entry}'"),
            })?;
            let draw: f64 = d.trim().parse().map_err(|e| TntpError::Malformed {
                line,
                reason: format!("bad destination '{}': {e}", d.trim()),
            })?;
            let dest = node_in_range(draw, n, "destination", line)?;
            let flow: f64 = v.trim().parse().map_err(|e| TntpError::Malformed {
                line,
                reason: format!("bad flow '{}': {e}", v.trim()),
            })?;
            if !flow.is_finite() || flow < 0.0 {
                return Err(TntpError::Malformed {
                    line,
                    reason: format!("flow must be finite and ≥ 0, got {flow}"),
                });
            }
            if flow > 0.0 && dest != o {
                demands.push((o, dest, flow));
            }
        }
    }
    Ok(demands)
}

/// Parse a TNTP trips file into `(origin, destination, flow)` demands.
/// Zero and diagonal (self) flows are dropped. `n` bounds the node ids.
pub fn parse_tntp_trips(text: &str, n: usize) -> Result<Vec<(NodeId, NodeId, f64)>, TntpError> {
    parse_tntp_trips_reader(text.as_bytes(), n)
}

/// Streaming parse of a network reader and (optionally) a trips reader
/// into a [`TntpNetwork`] — the file-backed twin of [`parse_tntp`].
pub fn parse_tntp_readers<R: BufRead, T: BufRead>(
    net: R,
    trips: Option<T>,
) -> Result<TntpNetwork, TntpError> {
    let (graph, latencies) = parse_tntp_net_reader(net)?;
    let demands = match trips {
        Some(t) => parse_tntp_trips_reader(t, graph.num_nodes())?,
        None => Vec::new(),
    };
    Ok(TntpNetwork {
        graph,
        latencies,
        demands,
    })
}

/// Parse a network file and (optionally) a trips file into a
/// [`TntpNetwork`].
pub fn parse_tntp(net: &str, trips: Option<&str>) -> Result<TntpNetwork, TntpError> {
    let (graph, latencies) = parse_tntp_net(net)?;
    let demands = match trips {
        Some(t) => parse_tntp_trips(t, graph.num_nodes())?,
        None => Vec::new(),
    };
    Ok(TntpNetwork {
        graph,
        latencies,
        demands,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NET: &str = include_str!("../fixtures/mini.tntp");
    const TRIPS: &str = include_str!("../fixtures/mini_trips.tntp");

    #[test]
    fn parses_the_fixture_net() {
        let (g, lats) = parse_tntp_net(NET).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(lats.len(), 5);
        assert_eq!(lats[0], LatencyFn::bpr(6.0, 0.15, 25.9, 4));
        // Zero-b link degrades to its free-flow constant.
        assert_eq!(lats[4], LatencyFn::constant(3.0));
    }

    #[test]
    fn parses_the_fixture_trips() {
        let demands = parse_tntp_trips(TRIPS, 4).unwrap();
        assert_eq!(
            demands,
            vec![
                (NodeId(0), NodeId(3), 2.5),
                (NodeId(0), NodeId(2), 1.0),
                (NodeId(1), NodeId(3), 4.0),
            ]
        );
    }

    #[test]
    fn round_trips_into_a_multicommodity_instance() {
        let net = parse_tntp(NET, Some(TRIPS)).unwrap();
        match net.into_instance(1.0).unwrap() {
            TntpInstance::Multi(inst) => {
                assert_eq!(inst.commodities.len(), 3);
                assert_eq!(inst.graph.num_edges(), 5);
            }
            TntpInstance::Single(_) => panic!("three demands must stay multicommodity"),
        }
    }

    #[test]
    fn no_trips_falls_back_to_corner_demand() {
        let net = parse_tntp(NET, None).unwrap();
        match net.into_instance(2.0).unwrap() {
            TntpInstance::Single(inst) => {
                assert_eq!(inst.source, NodeId(0));
                assert_eq!(inst.sink, NodeId(3));
                assert_eq!(inst.rate, 2.0);
            }
            TntpInstance::Multi(_) => panic!("fallback demand is single-commodity"),
        }
    }

    #[test]
    fn malformed_rows_carry_the_line_number() {
        let bad = "<NUMBER OF NODES> 2\n<END OF METADATA>\n1 2 0.0 1 1 0.15 4 ;\n";
        match parse_tntp_net(bad).unwrap_err() {
            TntpError::Malformed { line, reason } => {
                assert_eq!(line, 3);
                assert!(reason.contains("capacity"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        let missing = "1 2 10 1 1 0.15 4 ;\n";
        assert_eq!(
            parse_tntp_net(missing).unwrap_err(),
            TntpError::MissingMetadata {
                key: "NUMBER OF NODES"
            }
        );
        // An absurd node count is refused before the graph is allocated.
        let huge = "<NUMBER OF NODES> 100000000000\n<END OF METADATA>\n1 2 10 1 1 0.15 4 ;\n";
        match parse_tntp_net(huge).unwrap_err() {
            TntpError::Malformed { reason, .. } => {
                assert!(reason.contains("exceeds the limit"), "{reason}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn streaming_readers_match_the_str_parsers() {
        // Tiny buffer capacity forces many refills; results must be
        // identical to the whole-string parse, line numbers included.
        let net_stream = std::io::BufReader::with_capacity(8, NET.as_bytes());
        let trips_stream = std::io::BufReader::with_capacity(8, TRIPS.as_bytes());
        let streamed = parse_tntp_readers(net_stream, Some(trips_stream)).unwrap();
        let whole = parse_tntp(NET, Some(TRIPS)).unwrap();
        assert_eq!(streamed.latencies, whole.latencies);
        assert_eq!(streamed.demands, whole.demands);
        assert_eq!(streamed.graph.num_edges(), whole.graph.num_edges());
    }

    #[test]
    fn reader_failures_become_typed_io_errors() {
        struct Failing;
        impl std::io::Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
        }
        let r = std::io::BufReader::new(Failing);
        match parse_tntp_net_reader(r).unwrap_err() {
            TntpError::Io(msg) => assert!(msg.contains("disk gone"), "{msg}"),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn link_count_mismatch_is_detected() {
        let bad =
            "<NUMBER OF NODES> 2\n<NUMBER OF LINKS> 3\n<END OF METADATA>\n1 2 10 1 1 0.15 4 ;\n";
        match parse_tntp_net(bad).unwrap_err() {
            TntpError::Malformed { reason, .. } => {
                assert!(reason.contains("link rows"), "{reason}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
