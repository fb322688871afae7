//! E9 — the paper's §2 claim on M/M/1 systems: small appealing groups and
//! large identical groups make the price of optimum significantly small.

use sopt_core::optop::try_optop;
use sopt_equilibrium::parallel::ParallelLinks;
use sopt_instances::mm1_families::{appealing_group, identical_links, spread_links};

use crate::table::{f, Table};

/// E9: β_M across M/M/1 families.
pub fn e9_mm1_beta() {
    println!("\n=== E9: β_M on M/M/1 systems (paper §2, after [20]) ===");
    let families: Vec<(String, ParallelLinks)> = vec![
        (
            "identical ×4 (cap 2, r 3)".into(),
            identical_links(4, 2.0, 3.0),
        ),
        (
            "identical ×16 (cap 2, r 12)".into(),
            identical_links(16, 2.0, 12.0),
        ),
        (
            "identical ×64 (cap 2, r 48)".into(),
            identical_links(64, 2.0, 48.0),
        ),
        (
            "appealing 2×20 vs 4×1 (r 2)".into(),
            appealing_group(2, 20.0, 4, 1.0, 2.0),
        ),
        (
            "appealing 2×20 vs 4×1 (r 8)".into(),
            appealing_group(2, 20.0, 4, 1.0, 8.0),
        ),
        (
            "appealing 1×50 vs 8×1 (r 5)".into(),
            appealing_group(1, 50.0, 8, 1.0, 5.0),
        ),
        (
            "spread ×6 ratio 1.3 (r 8)".into(),
            spread_links(6, 1.0, 1.3, 8.0),
        ),
        (
            "spread ×8 ratio 1.2 (r 12)".into(),
            spread_links(8, 1.0, 1.2, 12.0),
        ),
    ];
    let mut t = Table::new(["family", "m", "β_M", "C(N)/C(O)", "group structure"]);
    let mut identical_max = 0.0f64;
    let mut appealing_max = 0.0f64;
    let mut spread_min = f64::INFINITY;
    for (name, links) in &families {
        let r = try_optop(links).unwrap();
        let kind = if name.starts_with("identical") {
            identical_max = identical_max.max(r.beta);
            "identical group"
        } else if name.starts_with("appealing") {
            appealing_max = appealing_max.max(r.beta);
            "small appealing group"
        } else {
            spread_min = spread_min.min(r.beta);
            "no dominant group"
        };
        t.row([
            name.clone(),
            links.m().to_string(),
            f(r.beta),
            f(r.nash_cost / r.optimum_cost),
            kind.to_string(),
        ]);
    }
    t.print();
    println!(
        "max β (identical) = {}  max β (appealing) = {}  min β (spread) = {}",
        f(identical_max),
        f(appealing_max),
        f(spread_min)
    );
    assert!(identical_max < 1e-6, "identical groups must have β ≈ 0");
    assert!(
        appealing_max < spread_min,
        "appealing-group β must undercut the spread family"
    );
}
