//! Text specifications for instances — the input language of the CLI and
//! of [`crate::api::Scenario::parse`].
//!
//! ## Parallel-links specs
//!
//! A *links spec* is a comma-separated list of latency expressions with an
//! optional `@ rate` suffix (rate defaults to 1):
//!
//! | form | meaning |
//! |---|---|
//! | `x` | `ℓ(x) = x` |
//! | `2.5x` | `ℓ(x) = 2.5·x` |
//! | `2x+0.3` | `ℓ(x) = 2x + 0.3` |
//! | `0.7` | `ℓ ≡ 0.7` |
//! | `x^3`, `2x^4`, `x^3+0.5` | monomials, optionally with an offset |
//! | `mm1:2.0` | M/M/1 with capacity 2 |
//! | `bpr:1,0.15,10,4` | BPR `t₀(1 + b(x/c)^p)` |
//!
//! Example: `"x, 1.0"` is Pigou's network; `"x, 1.0 @ 2"` routes rate 2.
//! Whitespace is allowed around commas and `+`, but not inside a token:
//! `2 x` and `x ^2` are rejected with an error naming the token.
//!
//! ## Network specs
//!
//! A *network spec* is a `;`-separated statement list describing an
//! arbitrary directed network with one or more demands:
//!
//! ```text
//! nodes=4; 0->1: x; 0->2: 1.0; 1->3: 1.0; 2->3: x; demand 0->3: 1.0
//! ```
//!
//! * `nodes=N` — declares vertices `0..N` (2 ≤ N ≤ 1,000,000); must come
//!   first;
//! * `A->B: EXPR` — a directed edge with a latency expression (parallel
//!   edges allowed, self-loops rejected). A trailing `[priceable]` marker
//!   (`0->1: x [priceable]`) nominates the edge for the Stackelberg
//!   pricing task (`--task pricing`);
//! * `demand A->B: R` — routes rate `R` from `A` to `B`. One demand makes
//!   a single-commodity instance; several make a multicommodity one.
//!
//! [`format_latency`]/[`format_links`] invert the parsers for every
//! expressible latency family, so specs round-trip exactly.
//!
//! All errors are [`SoptError::Parse`] values naming the offending token.

use sopt_latency::LatencyFn;
use sopt_network::graph::{DiGraph, NodeId, MAX_PARSED_NODES};
use sopt_network::instance::Commodity;

use crate::api::SoptError;

fn perr(token: impl Into<String>, reason: impl Into<String>) -> SoptError {
    SoptError::Parse {
        token: token.into(),
        reason: reason.into(),
    }
}

/// Parse a numeric parameter, rejecting the non-finite spellings Rust's
/// f64 parser accepts (`inf`, `nan`, …) — the latency constructors panic
/// on them, and the session API promises typed errors instead.
fn parse_finite(token: &str, what: &str, whole: &str) -> Result<f64, SoptError> {
    let v: f64 = token
        .parse()
        .map_err(|e| perr(whole, format!("{what} '{token}': {e}")))?;
    if !v.is_finite() {
        return Err(perr(whole, format!("{what} '{token}' must be finite")));
    }
    Ok(v)
}

/// Parse a single latency expression. Errors name the offending token.
pub fn parse_latency(s: &str) -> Result<LatencyFn, SoptError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(perr(s, "empty latency expression"));
    }
    if let Some(rest) = s.strip_prefix("mm1:") {
        let c = parse_finite(rest.trim(), "mm1 capacity", s)?;
        if c <= 0.0 {
            return Err(perr(s, format!("mm1 capacity must be positive, got {c}")));
        }
        return Ok(LatencyFn::mm1(c));
    }
    if let Some(rest) = s.strip_prefix("bpr:") {
        let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
        if parts.len() != 4 {
            return Err(perr(
                s,
                format!("bpr needs t0,b,c,p — got {} fields", parts.len()),
            ));
        }
        let t0 = parse_finite(parts[0], "bpr t0", s)?;
        let b = parse_finite(parts[1], "bpr b", s)?;
        let c = parse_finite(parts[2], "bpr c", s)?;
        if t0 <= 0.0 || b < 0.0 || c <= 0.0 {
            return Err(perr(
                s,
                format!("bpr needs t0 > 0, b ≥ 0, c > 0 — got {t0}, {b}, {c}"),
            ));
        }
        let p: u32 = parts[3]
            .parse()
            .map_err(|e| perr(s, format!("bpr p '{}': {e}", parts[3])))?;
        if p == 0 {
            return Err(perr(s, "bpr power p must be ≥ 1"));
        }
        return Ok(LatencyFn::bpr(t0, b, c, p));
    }
    // Affine / monomial / constant: [coef]x[^k][+b] | const
    if let Some(xpos) = s.find('x') {
        let coef_str = &s[..xpos];
        if coef_str.chars().any(char::is_whitespace) {
            return Err(perr(
                s,
                format!(
                    "interior whitespace in coefficient '{coef_str}x' (write '{}x')",
                    coef_str.trim()
                ),
            ));
        }
        let coef: f64 = if coef_str.is_empty() {
            1.0
        } else {
            parse_finite(coef_str, "coefficient", s)?
        };
        if coef < 0.0 {
            return Err(perr(s, format!("negative coefficient {coef}")));
        }
        let rest_raw = &s[xpos + 1..];
        let rest = rest_raw.trim();
        if rest.is_empty() {
            return Ok(LatencyFn::affine(coef, 0.0));
        }
        if let Some(exp) = rest.strip_prefix('^') {
            if !rest_raw.starts_with('^') {
                return Err(perr(
                    s,
                    "interior whitespace between 'x' and '^' (write 'x^k')",
                ));
            }
            if exp.starts_with(char::is_whitespace) {
                return Err(perr(s, "interior whitespace after '^' (write 'x^k')"));
            }
            // Monomial with optional offset: "x^3", "x^3+0.5". A minus is
            // rejected exactly like on the affine path below.
            let (kstr, b) = match exp.find(['+', '-']) {
                // A leading '-' belongs to the exponent, not an offset.
                Some(0) if exp.starts_with('-') => {
                    return Err(perr(
                        s,
                        format!("negative exponent '{exp}' (exponents must be ≥ 1)"),
                    ));
                }
                Some(pos) if exp.as_bytes()[pos] == b'-' => {
                    return Err(perr(
                        s,
                        format!(
                            "negative offset '{}' (offsets must be ≥ 0)",
                            exp[pos..].trim()
                        ),
                    ));
                }
                Some(plus) => (&exp[..plus], Some(exp[plus + 1..].trim())),
                None => (exp, None),
            };
            let k: u32 = kstr
                .trim()
                .parse()
                .map_err(|e| perr(s, format!("exponent '{}': {e}", kstr.trim())))?;
            if k == 0 {
                return Err(perr(s, "exponent must be ≥ 1 (use a constant instead)"));
            }
            // Monomial requires a strictly positive coefficient; 0·x^k is
            // the all-zero affine function.
            let base = if k == 1 || coef == 0.0 {
                LatencyFn::affine(coef, 0.0)
            } else {
                LatencyFn::monomial(coef, k)
            };
            return match b {
                None => Ok(base),
                Some(bs) => {
                    let b = parse_finite(bs, "intercept", s)?;
                    if b < 0.0 {
                        return Err(perr(s, format!("negative intercept {b}")));
                    }
                    Ok(base.tolled(b))
                }
            };
        }
        if let Some(stripped) = rest.strip_prefix('-') {
            return Err(perr(
                s,
                format!(
                    "negative intercept '-{}' (intercepts must be ≥ 0)",
                    stripped.trim()
                ),
            ));
        }
        if let Some(bs) = rest.strip_prefix('+') {
            let b = parse_finite(bs.trim(), "intercept", s)?;
            if b < 0.0 {
                return Err(perr(s, format!("negative intercept {b}")));
            }
            return Ok(LatencyFn::affine(coef, b));
        }
        return Err(perr(s, format!("unexpected '{rest}' after the x")));
    }
    // No 'x': a constant.
    let c = parse_finite(s, "constant", s)?;
    if c < 0.0 {
        return Err(perr(s, format!("negative constant {c}")));
    }
    Ok(LatencyFn::constant(c))
}

/// Parse a comma-separated links spec into latency functions.
pub fn parse_links(spec: &str) -> Result<Vec<LatencyFn>, SoptError> {
    if spec.trim().is_empty() {
        return Err(SoptError::EmptyScenario);
    }
    split_top_level(spec)
        .iter()
        .enumerate()
        .map(|(i, s)| {
            parse_latency(s).map_err(|e| match e {
                // An empty list item has no token of its own; name the
                // position in the list instead.
                SoptError::Parse { token, reason } if token.is_empty() => perr(
                    spec.trim(),
                    format!("link {}: {reason} (check commas)", i + 1),
                ),
                other => other,
            })
        })
        .collect()
}

/// Parse a full parallel-links spec `"x, 1.0"` or `"x, 1.0 @ 2"`:
/// latencies plus the routed rate (default 1).
pub fn parse_parallel(spec: &str) -> Result<(Vec<LatencyFn>, f64), SoptError> {
    let mut parts = spec.splitn(2, '@');
    let links_part = parts.next().unwrap_or_default();
    let rate = match parts.next() {
        None => 1.0,
        Some(r) => {
            let r = r.trim();
            let rate: f64 = r.parse().map_err(|e| perr(r, format!("rate '{r}': {e}")))?;
            if !(rate.is_finite() && rate > 0.0) {
                return Err(SoptError::InvalidParameter {
                    name: "rate",
                    value: rate,
                    reason: "must be finite and > 0",
                });
            }
            rate
        }
    };
    Ok((parse_links(links_part)?, rate))
}

/// Split on commas, but not inside `bpr:…` argument lists.
fn split_top_level(spec: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut bpr_args_left = 0usize;
    for part in spec.split(',') {
        if bpr_args_left > 0 {
            cur.push(',');
            cur.push_str(part);
            bpr_args_left -= 1;
            if bpr_args_left == 0 {
                out.push(std::mem::take(&mut cur));
            }
            continue;
        }
        if part.trim_start().starts_with("bpr:") {
            cur = part.to_string();
            bpr_args_left = 3; // t0 already captured; b, c, p follow
        } else {
            out.push(part.to_string());
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The raw parts of a parsed network spec (assembled into a
/// [`crate::api::Scenario`] by `Scenario::parse`).
#[derive(Clone, Debug)]
pub struct NetworkSpec {
    /// The directed multigraph.
    pub graph: DiGraph,
    /// One latency per edge, in edge order.
    pub latencies: Vec<LatencyFn>,
    /// The demands, in declaration order.
    pub commodities: Vec<Commodity>,
    /// Priceable-edge mask from `[priceable]` markers: empty when no edge
    /// carries one, else one flag per edge in edge order.
    pub priceable: Vec<bool>,
}

/// Does this spec use the network grammar (vs the parallel-links one)?
/// Any of the grammar's signature tokens routes to [`parse_network`] —
/// including malformed network specs (e.g. a missing `nodes=N`), so their
/// diagnostics come from the right parser.
pub fn is_network_spec(spec: &str) -> bool {
    spec.contains("->") || spec.contains(';') || spec.trim_start().starts_with("nodes")
}

/// Parse the general-network grammar (see the module docs):
/// `nodes=N; A->B: EXPR; …; demand A->B: R`.
pub fn parse_network(spec: &str) -> Result<NetworkSpec, SoptError> {
    let mut nodes: Option<usize> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut latencies: Vec<LatencyFn> = Vec::new();
    let mut commodities: Vec<Commodity> = Vec::new();
    let mut flags: Vec<bool> = Vec::new();

    for stmt in spec.split(';') {
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("nodes") {
            let rest = rest.trim_start();
            let Some(nstr) = rest.strip_prefix('=') else {
                return Err(perr(stmt, "expected 'nodes=N'"));
            };
            if nodes.is_some() {
                return Err(perr(stmt, "duplicate 'nodes=N' statement"));
            }
            let n: usize = nstr
                .trim()
                .parse()
                .map_err(|e| perr(stmt, format!("node count '{}': {e}", nstr.trim())))?;
            if n < 2 {
                return Err(perr(stmt, format!("need at least 2 nodes, got {n}")));
            }
            if n > MAX_PARSED_NODES {
                return Err(perr(
                    stmt,
                    format!("too many nodes: {n} > {MAX_PARSED_NODES}"),
                ));
            }
            nodes = Some(n);
            continue;
        }
        let n = nodes.ok_or_else(|| perr(stmt, "'nodes=N' must come before edges and demands"))?;
        if let Some(rest) = stmt.strip_prefix("demand") {
            if !rest.starts_with(char::is_whitespace) {
                return Err(perr(stmt, "expected 'demand A->B: R'"));
            }
            let (a, b, payload) = parse_arrow(rest.trim(), stmt, n)?;
            if a == b {
                return Err(perr(stmt, "demand source and sink must differ"));
            }
            let rate: f64 = payload
                .parse()
                .map_err(|e| perr(stmt, format!("demand rate '{payload}': {e}")))?;
            if !(rate.is_finite() && rate > 0.0) {
                return Err(perr(
                    stmt,
                    format!("demand rate must be finite and > 0, got {rate}"),
                ));
            }
            commodities.push(Commodity {
                source: NodeId(a),
                sink: NodeId(b),
                rate,
            });
            continue;
        }
        // Edge statement: A->B: EXPR [priceable].
        let (a, b, payload) = parse_arrow(stmt, stmt, n)?;
        if a == b {
            return Err(perr(stmt, "self-loops are not allowed (paper §4)"));
        }
        let (payload, priceable) = match payload.strip_suffix("[priceable]") {
            Some(expr) => (expr.trim_end(), true),
            None => {
                // A different bracketed suffix is a typo, not a latency.
                if payload.ends_with(']') {
                    return Err(perr(
                        stmt,
                        "unknown edge attribute (only '[priceable]' is supported)",
                    ));
                }
                (payload, false)
            }
        };
        edges.push((a, b));
        flags.push(priceable);
        // An empty payload would otherwise report token='' — name the
        // whole edge statement so the user can find it in a long spec.
        latencies.push(parse_latency(payload).map_err(|e| match e {
            SoptError::Parse { token, reason } if token.is_empty() => perr(stmt, reason),
            other => other,
        })?);
    }

    let Some(n) = nodes else {
        return Err(perr(spec.trim(), "missing 'nodes=N' statement"));
    };
    if edges.is_empty() {
        return Err(SoptError::EmptyScenario);
    }
    if commodities.is_empty() {
        return Err(perr(spec.trim(), "missing 'demand A->B: R' statement"));
    }

    let mut graph = DiGraph::with_nodes(n);
    for &(a, b) in &edges {
        graph.add_edge(NodeId(a), NodeId(b));
    }
    // Every demand's sink must be reachable, or no feasible flow exists.
    for (ci, com) in commodities.iter().enumerate() {
        if !reachable(&graph, com.source, com.sink) {
            return Err(SoptError::Unreachable { commodity: ci });
        }
    }
    Ok(NetworkSpec {
        graph,
        latencies,
        commodities,
        // Normalise all-false to empty: the mask is only set when at least
        // one edge is actually marked, so unmarked specs stay bit-identical
        // to their pre-pricing form everywhere downstream.
        priceable: if flags.contains(&true) {
            flags
        } else {
            Vec::new()
        },
    })
}

/// Parse `A->B: PAYLOAD`, validating the endpoints against `n` nodes.
/// Returns the payload with surrounding whitespace removed.
fn parse_arrow<'a>(s: &'a str, stmt: &str, n: usize) -> Result<(u32, u32, &'a str), SoptError> {
    let Some((a_str, rest)) = s.split_once("->") else {
        return Err(perr(stmt, "expected 'A->B: …'"));
    };
    let Some((b_str, payload)) = rest.split_once(':') else {
        return Err(perr(stmt, "expected ':' after the endpoint pair"));
    };
    let a: u32 = a_str
        .trim()
        .parse()
        .map_err(|e| perr(stmt, format!("node '{}': {e}", a_str.trim())))?;
    let b: u32 = b_str
        .trim()
        .parse()
        .map_err(|e| perr(stmt, format!("node '{}': {e}", b_str.trim())))?;
    for v in [a, b] {
        if v as usize >= n {
            return Err(perr(
                stmt,
                format!("node {v} out of range (declared nodes={n})"),
            ));
        }
    }
    Ok((a, b, payload.trim()))
}

/// BFS reachability on the directed graph.
fn reachable(g: &DiGraph, from: NodeId, to: NodeId) -> bool {
    let mut seen = vec![false; g.num_nodes()];
    let mut queue = std::collections::VecDeque::from([from]);
    seen[from.idx()] = true;
    while let Some(v) = queue.pop_front() {
        if v == to {
            return true;
        }
        for &e in g.out_edges(v) {
            let w = g.edge(e).to;
            if !seen[w.idx()] {
                seen[w.idx()] = true;
                queue.push_back(w);
            }
        }
    }
    false
}

/// Format a latency back into the spec language; `None` for families the
/// grammar cannot express (piecewise, general polynomials, shifted forms).
/// Inverse of [`parse_latency`] on its image: formatted strings reparse to
/// an equal function and reformat to the identical string.
pub fn format_latency(l: &LatencyFn) -> Option<String> {
    // The grammar only admits nonnegative parameters; Rust-built values
    // outside that domain are unrepresentable, not mis-formatted.
    fn nonneg(v: f64) -> bool {
        v.is_finite() && v >= 0.0
    }
    match l {
        LatencyFn::Affine(a) if !(nonneg(a.a) && nonneg(a.b)) => None,
        LatencyFn::Constant(c) if !nonneg(c.c) => None,
        LatencyFn::Monomial(m) if !nonneg(m.c) => None,
        LatencyFn::Affine(a) => Some(if a.a == 1.0 && a.b == 0.0 {
            "x".to_string()
        } else if a.b == 0.0 {
            format!("{}x", a.a)
        } else if a.a == 1.0 {
            format!("x+{}", a.b)
        } else {
            format!("{}x+{}", a.a, a.b)
        }),
        LatencyFn::Constant(c) => Some(format!("{}", c.c)),
        LatencyFn::Monomial(m) => Some(if m.c == 1.0 {
            format!("x^{}", m.k)
        } else {
            format!("{}x^{}", m.c, m.k)
        }),
        LatencyFn::MM1(q) => Some(format!("mm1:{}", q.c)),
        LatencyFn::Bpr(b) => Some(format!("bpr:{},{},{},{}", b.t0, b.b, b.c, b.p)),
        // `x^k+b` parses to the polynomial b + c·x^k — recognise exactly
        // that sparsity pattern (plus the dense-affine degenerate cases).
        LatencyFn::Polynomial(p) => {
            let coeffs = p.coeffs();
            let nonzero: Vec<usize> = (0..coeffs.len()).filter(|&i| coeffs[i] != 0.0).collect();
            match nonzero.as_slice() {
                [] => Some("0".to_string()),
                [0] => Some(format!("{}", coeffs[0])),
                [k] if *k >= 2 => Some(if coeffs[*k] == 1.0 {
                    format!("x^{k}")
                } else {
                    format!("{}x^{k}", coeffs[*k])
                }),
                [0, k] if *k >= 2 => Some(if coeffs[*k] == 1.0 {
                    format!("x^{}+{}", k, coeffs[0])
                } else {
                    format!("{}x^{}+{}", coeffs[*k], k, coeffs[0])
                }),
                [1] => Some(format!("{}x", coeffs[1])),
                [0, 1] => Some(format!("{}x+{}", coeffs[1], coeffs[0])),
                _ => None,
            }
        }
        LatencyFn::Offset(off) => {
            // Only monomial+offset is expressible; other offset carriers
            // (mm1, bpr) have no `+b` form in the grammar.
            if let LatencyFn::Monomial(m) = &off.inner {
                Some(if m.c == 1.0 {
                    format!("x^{}+{}", m.k, off.offset)
                } else {
                    format!("{}x^{}+{}", m.c, m.k, off.offset)
                })
            } else {
                None
            }
        }
        LatencyFn::Piecewise(_) | LatencyFn::Shifted(_) => None,
    }
}

/// Format a list of latencies as a comma-separated links spec.
pub fn format_links(lats: &[LatencyFn]) -> Option<String> {
    let parts: Option<Vec<String>> = lats.iter().map(format_latency).collect();
    Some(parts?.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::Latency;

    #[test]
    fn parses_pigou() {
        let lats = parse_links("x, 1.0").unwrap();
        assert_eq!(lats.len(), 2);
        assert_eq!(lats[0], LatencyFn::identity());
        assert_eq!(lats[1], LatencyFn::constant(1.0));
    }

    #[test]
    fn parses_affine_forms() {
        assert_eq!(
            parse_latency("2x+0.3").unwrap(),
            LatencyFn::affine(2.0, 0.3)
        );
        assert_eq!(parse_latency("2.5x").unwrap(), LatencyFn::affine(2.5, 0.0));
        assert_eq!(
            parse_latency(" x + 1 ").unwrap(),
            LatencyFn::affine(1.0, 1.0)
        );
    }

    #[test]
    fn parses_monomials() {
        assert_eq!(parse_latency("x^3").unwrap(), LatencyFn::monomial(1.0, 3));
        assert_eq!(parse_latency("2x^4").unwrap(), LatencyFn::monomial(2.0, 4));
        // x^1 normalises to affine.
        assert_eq!(parse_latency("3x^1").unwrap(), LatencyFn::affine(3.0, 0.0));
        // Monomial plus intercept evaluates correctly.
        let l = parse_latency("x^2+1").unwrap();
        assert!((l.value(2.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn parses_queueing_and_bpr() {
        assert_eq!(parse_latency("mm1:2.0").unwrap(), LatencyFn::mm1(2.0));
        assert_eq!(
            parse_latency("bpr:1,0.15,10,4").unwrap(),
            LatencyFn::bpr(1.0, 0.15, 10.0, 4)
        );
        // bpr embedded in a list.
        let lats = parse_links("x, bpr:1,0.15,10,4, 0.7").unwrap();
        assert_eq!(lats.len(), 3);
        assert_eq!(lats[1], LatencyFn::bpr(1.0, 0.15, 10.0, 4));
    }

    #[test]
    fn parses_constants() {
        assert_eq!(parse_latency("0.7").unwrap(), LatencyFn::constant(0.7));
        assert_eq!(parse_latency(" 0 ").unwrap(), LatencyFn::constant(0.0));
        assert_eq!(parse_latency("3").unwrap(), LatencyFn::constant(3.0));
    }

    #[test]
    fn parses_bare_and_spaced_identity() {
        assert_eq!(parse_latency("x").unwrap(), LatencyFn::identity());
        assert_eq!(parse_latency("  x  ").unwrap(), LatencyFn::identity());
        assert_eq!(parse_latency("0.5x").unwrap(), LatencyFn::affine(0.5, 0.0));
    }

    #[test]
    fn monomial_intercept_has_shifted_integral() {
        // `x^3+0.5` must behave as ℓ(x) = x³ + 0.5 for the Beckmann
        // integral too, not only pointwise.
        let l = parse_latency("x^3+0.5").unwrap();
        assert!((l.value(1.0) - 1.5).abs() < 1e-12);
        assert!((l.integral(2.0) - (2.0f64.powi(4) / 4.0 + 0.5 * 2.0)).abs() < 1e-9);
    }

    #[test]
    fn multi_link_specs_preserve_order_and_count() {
        let lats = parse_links("x, 2x+0.3, x^3, mm1:2.0, 0.7").unwrap();
        assert_eq!(lats.len(), 5);
        assert_eq!(lats[0], LatencyFn::identity());
        assert_eq!(lats[1], LatencyFn::affine(2.0, 0.3));
        assert_eq!(lats[2], LatencyFn::monomial(1.0, 3));
        assert_eq!(lats[3], LatencyFn::mm1(2.0));
        assert_eq!(lats[4], LatencyFn::constant(0.7));
        // Two bpr specs in one list must each absorb exactly their own args.
        let two = parse_links("bpr:1,0.15,10,4, bpr:2,0.3,5,2").unwrap();
        assert_eq!(two.len(), 2);
        assert_eq!(two[0], LatencyFn::bpr(1.0, 0.15, 10.0, 4));
        assert_eq!(two[1], LatencyFn::bpr(2.0, 0.3, 5.0, 2));
    }

    #[test]
    fn parses_rate_suffix() {
        let (lats, rate) = parse_parallel("x, 1.0 @ 2.5").unwrap();
        assert_eq!(lats.len(), 2);
        assert_eq!(rate, 2.5);
        let (_, rate) = parse_parallel("x, 1.0").unwrap();
        assert_eq!(rate, 1.0);
        assert!(parse_parallel("x @ -1").is_err());
        assert!(parse_parallel("x @ fast").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_latency("").is_err());
        assert!(parse_latency("-1").is_err());
        assert!(parse_latency("x^0").is_err());
        assert!(parse_latency("2x-1").is_err());
        assert!(parse_latency("mm1:-3").is_err());
        assert!(parse_latency("bpr:1,2").is_err());
        assert!(parse_links("").is_err());
    }

    #[test]
    fn rejects_malformed_numbers_with_reason() {
        // Every error names the offending token in its message.
        let msg = |s: &str| parse_latency(s).unwrap_err().to_string();
        assert!(msg("mm1:fast").contains("mm1 capacity"));
        assert!(msg("mm1:fast").contains("fast"));
        assert!(msg("mm1:0").contains("positive"));
        assert!(msg("bpr:a,0.15,10,4").contains("bpr t0"));
        assert!(msg("bpr:1,0.15,10,4.5").contains("bpr p"));
        assert!(msg("bpr:1,0.15,10,4,9").contains("fields"));
        assert!(msg("yx").contains("coefficient"));
        assert!(msg("yx").contains("yx"));
        assert!(msg("x^two").contains("exponent"));
        assert!(msg("x^two").contains("two"));
        assert!(msg("x^2+oops").contains("intercept"));
        assert!(msg("x^2+oops").contains("oops"));
        assert!(msg("x+oops").contains("intercept"));
        assert!(msg("hello").contains("constant"));
        assert!(msg("hello").contains("hello"));
    }

    #[test]
    fn rejects_negative_parameters() {
        assert!(parse_latency("-2x").is_err());
        assert!(parse_latency("x+-1").is_err());
        assert!(parse_latency("x^2+-1").is_err());
        assert!(parse_latency("-0.5").is_err());
    }

    #[test]
    fn negative_offsets_rejected_consistently() {
        // The monomial path rejects `-b` exactly like the affine path,
        // naming the offending token.
        let affine = parse_latency("2x-1").unwrap_err().to_string();
        let mono = parse_latency("x^3-1").unwrap_err().to_string();
        assert!(affine.contains("negative intercept"), "{affine}");
        assert!(mono.contains("negative offset"), "{mono}");
        assert!(mono.contains("x^3-1"), "{mono}");
        // A leading minus is a bad *exponent*, not an offset.
        let exp = parse_latency("x^-2").unwrap_err().to_string();
        assert!(exp.contains("negative exponent"), "{exp}");
    }

    #[test]
    fn rejects_interior_whitespace() {
        for bad in ["2 x", "2.5 x", "x ^2", "x^ 2", "2 x+1"] {
            let err = parse_latency(bad).unwrap_err().to_string();
            assert!(err.contains("whitespace"), "'{bad}': {err}");
        }
        // …but whitespace around '+' stays legal.
        assert!(parse_latency("x + 1").is_ok());
        assert!(parse_latency("x^2 + 1").is_ok());
    }

    #[test]
    fn rejects_non_finite_parameters_with_typed_errors() {
        // Rust's f64 parser accepts these spellings; the constructors
        // would panic, so the parser must reject them first.
        for bad in [
            "inf",
            "nan",
            "-inf",
            "infx",
            "nanx",
            "x+inf",
            "x^2+nan",
            "mm1:inf",
            "bpr:inf,0.15,10,4",
            "bpr:1,nan,10,4",
            "bpr:1,0.15,inf,4",
        ] {
            let err = parse_latency(bad);
            assert!(err.is_err(), "'{bad}' must be rejected, not panic");
        }
        assert!(parse_latency("inf")
            .unwrap_err()
            .to_string()
            .contains("finite"));
        // Degenerate-but-legal domains route to safe constructors or errors.
        assert_eq!(parse_latency("0x^3").unwrap(), LatencyFn::affine(0.0, 0.0));
        assert!(parse_latency("bpr:0,0.15,10,4").is_err());
        assert!(parse_latency("bpr:1,0.15,10,0").is_err());
    }

    #[test]
    fn network_specs_route_to_the_network_parser() {
        // A network spec missing `nodes=N` must get parse_network's
        // diagnostic, not a confusing parallel-links coefficient error.
        assert!(is_network_spec("0->1: x; demand 0->1: 1"));
        assert!(is_network_spec("nodes=2"));
        assert!(!is_network_spec("x, 1.0 @ 2"));
        let err = parse_network("0->1: x; demand 0->1: 1").unwrap_err();
        assert!(err.to_string().contains("nodes=N"), "{err}");
    }

    #[test]
    fn rejects_trailing_junk_after_x() {
        assert!(parse_latency("x2").is_err());
        assert!(parse_latency("x*3").is_err());
        assert!(parse_latency("xx").is_err());
    }

    #[test]
    fn empty_list_items_are_rejected() {
        assert!(parse_links("x,,1.0")
            .unwrap_err()
            .to_string()
            .contains("empty"));
        assert!(parse_links(",x").is_err());
        assert_eq!(parse_links("").unwrap_err(), SoptError::EmptyScenario);
    }

    #[test]
    fn parses_network_grammar() {
        let spec = "nodes=4; 0->1: x; 0->2: 1.0; 1->3: 1.0; 2->3: x; demand 0->3: 1.0";
        let net = parse_network(spec).unwrap();
        assert_eq!(net.graph.num_nodes(), 4);
        assert_eq!(net.graph.num_edges(), 4);
        assert_eq!(net.commodities.len(), 1);
        assert_eq!(net.commodities[0].rate, 1.0);
        assert_eq!(net.latencies[0], LatencyFn::identity());
        assert_eq!(net.latencies[1], LatencyFn::constant(1.0));
    }

    #[test]
    fn parses_priceable_markers() {
        let spec = "nodes=3; 0->1: x [priceable]; 1->2: 2x+0.3; demand 0->2: 1.0";
        let net = parse_network(spec).unwrap();
        assert_eq!(net.priceable, vec![true, false]);
        assert_eq!(net.latencies[0], LatencyFn::identity());
        // No marker anywhere ⇒ the mask stays empty, not all-false.
        let plain = parse_network("nodes=2; 0->1: x; demand 0->1: 1.0").unwrap();
        assert!(plain.priceable.is_empty());
        // Unknown bracketed attributes are named, not parsed as latencies.
        let err = parse_network("nodes=2; 0->1: x [tolled]; demand 0->1: 1.0").unwrap_err();
        assert!(err.to_string().contains("priceable"), "{err}");
    }

    #[test]
    fn parses_multicommodity_grammar() {
        let spec = "nodes=4; 0->1: x; 0->1: 1.0; 2->3: x; 2->3: 1.0; \
                    demand 0->1: 1.0; demand 2->3: 1.0";
        let net = parse_network(spec).unwrap();
        assert_eq!(net.commodities.len(), 2);
        assert_eq!(net.commodities[1].source, NodeId(2));
    }

    #[test]
    fn network_grammar_rejections_name_the_statement() {
        let msg = |s: &str| parse_network(s).unwrap_err().to_string();
        assert!(msg("0->1: x; demand 0->1: 1").contains("nodes=N"));
        assert!(msg("nodes=2; 0->5: x; demand 0->1: 1").contains("out of range"));
        assert!(msg("nodes=2; 0->0: x; demand 0->1: 1").contains("self-loop"));
        assert!(msg("nodes=2; 0->1: x").contains("demand"));
        assert!(msg("nodes=2; 0->1: x; demand 0->1: -1").contains("rate"));
        assert!(msg("nodes=2; 0->1: 2 x; demand 0->1: 1").contains("whitespace"));
        assert!(msg("nodes=1; 0->1: x; demand 0->1: 1").contains("at least 2"));
        assert!(msg("nodes=100000000000; 0->1: x; demand 0->1: 1").contains("too many nodes"));
        assert_eq!(
            parse_network("nodes=3; 0->1: x; demand 0->2: 1").unwrap_err(),
            SoptError::Unreachable { commodity: 0 }
        );
    }

    #[test]
    fn latencies_round_trip_through_format() {
        let specs = [
            "x",
            "2.5x",
            "2x+0.3",
            "x+1",
            "0.7",
            "0",
            "x^3",
            "2x^4",
            "x^3+0.5",
            "2x^3+0.25",
            "mm1:2",
            "bpr:1,0.15,10,4",
        ];
        for s in specs {
            let l = parse_latency(s).unwrap();
            let formatted = format_latency(&l).unwrap_or_else(|| panic!("'{s}' unformattable"));
            let reparsed = parse_latency(&formatted).unwrap();
            assert_eq!(
                format_latency(&reparsed).unwrap(),
                formatted,
                "'{s}' → '{formatted}' does not round-trip"
            );
            // The reparse is also pointwise identical.
            for x in [0.0, 0.3, 1.0, 1.7] {
                assert!(
                    (l.value(x) - reparsed.value(x)).abs() < 1e-12,
                    "'{s}' at {x}"
                );
            }
        }
    }

    #[test]
    fn inexpressible_families_format_to_none() {
        assert!(format_latency(&LatencyFn::piecewise(0.1, &[(0.0, 1.0)])).is_none());
        assert!(format_latency(&LatencyFn::polynomial(vec![1.0, 2.0, 3.0])).is_none());
        assert!(format_latency(&LatencyFn::mm1(2.0).preloaded(0.5)).is_some()); // mm1 shifts stay mm1
        assert!(format_latency(&LatencyFn::bpr(1.0, 0.15, 10.0, 4).preloaded(0.5)).is_none());
    }
}
