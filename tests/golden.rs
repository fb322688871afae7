//! Golden report bytes: the JSON of a fixed set of `Solve` sessions, pinned
//! so that a refactor of the solver or model layers cannot silently change
//! what a user sees. Small reports are stored verbatim, large ones as their
//! length and FNV-1a-64 digest. On a mismatch the test prints the JSON.

use stackopt::api::Scenario;
use stackopt::core::curve::CurveStrategy;
use stackopt::instances::{try_grid_city, try_grid_city_multi};

/// What a case's JSON must be.
enum Expect {
    Verbatim(&'static str),
    /// `(byte length, FNV-1a-64 of the bytes)`.
    Digest(usize, u64),
}
use Expect::{Digest, Verbatim};

const PIGOU_NET: &str = "nodes=2; 0->1: x; 0->1: 1; demand 0->1: 1";
const BRAESS: &str = "nodes=4; 0->1: x; 0->2: 1.0; 1->2: 0; 1->3: 1.0; 2->3: x; demand 0->3: 1.0";
const PRICED: &str = "nodes=3; 0->1: x [priceable]; 0->1: 2; 1->2: x; demand 0->2: 1";
const TWO_COMMODITY: &str =
    "nodes=4; 0->1: x; 0->1: 1.0; 2->3: x; 2->3: 1.0; demand 0->1: 1.0; demand 2->3: 2.0";

/// `(scenario, task, expected JSON)`. A scenario is a spec, or `city` /
/// `city-multi` for a generated grid; a task may name the curve strategy
/// after it. City curves sample four steps, all others the default ten.
#[rustfmt::skip]
const CASES: &[(&str, &str, Expect)] = &[
    (PIGOU_NET, "beta", Verbatim(r#"{"scenario": {"class": "network", "size": 2, "nodes": 2, "rate": 1}, "task": "beta", "beta": 0.5, "nash_cost": 1, "optimum_cost": 0.75, "induced_cost": 0.75, "strategy": [0, 0.5], "optimum": [0.5, 0.5]}"#)),
    (PIGOU_NET, "curve", Digest(960, 0x56ad_dbdc_9660_3258)),
    (PIGOU_NET, "curve weak", Digest(958, 0xc05a_8143_2032_570f)),
    (PIGOU_NET, "tolls", Verbatim(r#"{"scenario": {"class": "network", "size": 2, "nodes": 2, "rate": 1}, "task": "tolls", "tolls": [0.5, 0], "optimum": [0.5, 0.5], "tolled_nash": [0.5, 0.5], "tolled_cost": 0.75, "revenue": 0.25}"#)),
    (PIGOU_NET, "equilib", Verbatim(r#"{"scenario": {"class": "network", "size": 2, "nodes": 2, "rate": 1}, "task": "equilib", "nash_flows": [1, 0], "nash_cost": 1, "optimum_flows": [0.5, 0.5], "optimum_cost": 0.75}"#)),
    (BRAESS, "beta", Verbatim(r#"{"scenario": {"class": "network", "size": 5, "nodes": 4, "rate": 1}, "task": "beta", "beta": 1, "nash_cost": 2, "optimum_cost": 1.5, "induced_cost": 1.5, "strategy": [0.5, 0.5, 0, 0.5, 0.5], "optimum": [0.5, 0.5, 0, 0.5, 0.5]}"#)),
    (BRAESS, "curve", Digest(1088, 0xa632_20e9_ea56_f558)),
    (BRAESS, "curve weak", Digest(1086, 0x85c5_d702_d5dd_0bc7)),
    (BRAESS, "tolls", Verbatim(r#"{"scenario": {"class": "network", "size": 5, "nodes": 4, "rate": 1}, "task": "tolls", "tolls": [0.5, 0, 0, 0, 0.5], "optimum": [0.5, 0.5, 0, 0.5, 0.5], "tolled_nash": [0.5, 0.5, 0, 0.5, 0.5], "tolled_cost": 1.5, "revenue": 0.5}"#)),
    (BRAESS, "equilib", Verbatim(r#"{"scenario": {"class": "network", "size": 5, "nodes": 4, "rate": 1}, "task": "equilib", "nash_flows": [1, 0, 1, 0, 1], "nash_cost": 2, "optimum_flows": [0.5, 0.5, 0, 0.5, 0.5], "optimum_cost": 1.5}"#)),
    (TWO_COMMODITY, "beta", Verbatim(r#"{"scenario": {"class": "multicommodity", "size": 4, "nodes": 4, "rate": 3}, "task": "beta", "beta": 0.666666666667, "nash_cost": 3, "optimum_cost": 2.5, "induced_cost": 2.5, "strategy": [0, 0.5, 0, 1.5], "optimum": [0.5, 0.5, 0.5, 1.5], "commodity_alphas": [0.5, 0.75]}"#)),
    (TWO_COMMODITY, "curve", Digest(1052, 0xc1d3_f65c_30b0_5196)),
    (
        TWO_COMMODITY,
        "curve weak",
        Digest(1015, 0xf7a8_cd4b_da6f_c075),
    ),
    (TWO_COMMODITY, "tolls", Verbatim(r#"{"scenario": {"class": "multicommodity", "size": 4, "nodes": 4, "rate": 3}, "task": "tolls", "tolls": [0.5, 0, 0.5, 0], "optimum": [0.5, 0.5, 0.5, 1.5], "tolled_nash": [0.5, 0.5, 0.5, 1.5], "tolled_cost": 2.5, "revenue": 0.5}"#)),
    (TWO_COMMODITY, "equilib", Verbatim(r#"{"scenario": {"class": "multicommodity", "size": 4, "nodes": 4, "rate": 3}, "task": "equilib", "nash_flows": [1, 0, 1, 1], "nash_cost": 3, "optimum_flows": [0.5, 0.5, 0.5, 1.5], "optimum_cost": 2.5}"#)),
    (PRICED, "pricing", Verbatim(r#"{"scenario": {"class": "network", "size": 3, "nodes": 3, "rate": 1}, "task": "pricing", "method": "single-price-auction", "prices": [1, 0, 0], "flows": [1, 0, 1], "revenue": 1, "sweep": [{"beta": 0, "revenue": 0}, {"beta": 0.2, "revenue": 0.2}, {"beta": 0.4, "revenue": 0.4}, {"beta": 0.6, "revenue": 0.6}, {"beta": 0.8, "revenue": 0.8}, {"beta": 1, "revenue": 1}, {"beta": 1.2, "revenue": 0.96}, {"beta": 1.4, "revenue": 0.84}, {"beta": 1.6, "revenue": 0.64}, {"beta": 1.8, "revenue": 0.36}, {"beta": 2, "revenue": 0}]}"#)),
    ("city", "beta", Digest(5361, 0xa3d7_dfac_b88f_b1c7)),
    ("city", "curve", Digest(637, 0xaa7f_d067_bc0e_989a)),
    ("city", "tolls", Digest(8035, 0xb3fa_048e_0826_dfdc)),
    ("city-multi", "equilib", Digest(2542, 0x8d61_3063_ec7b_71b5)),
    (
        "x, 1",
        "beta",
        Verbatim(
            r#"{"scenario": {"class": "parallel-links", "size": 2, "nodes": 2, "rate": 1}, "task": "beta", "beta": 0.5, "nash_cost": 1, "optimum_cost": 0.75, "induced_cost": 0.75, "strategy": [0, 0.5], "optimum": [0.5, 0.5]}"#,
        ),
    ),
];

fn scenario(key: &str) -> Scenario {
    match key {
        "city" => try_grid_city(12, 1.0, 7).expect("grid city").into(),
        "city-multi" => try_grid_city_multi(8, 1.0, 8, 3).expect("grid city").into(),
        spec => Scenario::parse(spec).expect("golden spec parses"),
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn reports_match_their_golden_bytes() {
    let mut failed = Vec::new();
    for (key, task, expect) in CASES {
        let (task, strategy) = task.split_once(' ').unwrap_or((task, "strong"));
        let json = scenario(key)
            .solve()
            .task(task.parse().expect("golden task"))
            .strategy(CurveStrategy::from_name(strategy).expect("golden strategy"))
            .steps(if *key == "city" { 4 } else { 10 })
            .run()
            .unwrap_or_else(|e| panic!("{key} {task}: solve failed: {e}"))
            .to_json();
        let ok = match *expect {
            Verbatim(want) => json == want,
            Digest(len, hash) => json.len() == len && fnv1a64(json.as_bytes()) == hash,
        };
        if !ok {
            eprintln!(
                "{key} {task} {strategy}: got {} bytes, FNV-1a-64 {:#018x}\n{json}\n",
                json.len(),
                fnv1a64(json.as_bytes())
            );
            failed.push(format!("{key} {task} {strategy}"));
        }
    }
    assert!(failed.is_empty(), "golden mismatch: {failed:?}");
}
