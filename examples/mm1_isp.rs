//! An ISP scenario with M/M/1 queueing links (the Korilis–Lazar–Orda
//! setting the paper cites in §2): when is the price of optimum small?
//!
//! ```text
//! cargo run --example mm1_isp
//! ```
//!
//! Reproduces the §2 claim: systems with a small group of highly appealing
//! links, or large groups of identical links, have significantly small β_M;
//! a mild capacity spread at high utilisation does not. The whole family
//! sweep runs as one `api::batch` fleet — the batch runner keeps results
//! in input order, so the table rows match the scenario list.

use stackopt::core::llf::llf;
use stackopt::core::optop::try_optop;
use stackopt::core::scale::scale;
use stackopt::instances::mm1_families::{appealing_group, identical_links, spread_links};
use stackopt::prelude::*;

fn main() -> Result<(), SoptError> {
    println!("== The price of optimum across M/M/1 families (paper §2) ==\n");
    let families: Vec<(&str, ParallelLinks)> = vec![
        ("identical ×4 (cap 2)", identical_links(4, 2.0, 3.0)),
        ("identical ×16 (cap 2)", identical_links(16, 2.0, 12.0)),
        (
            "appealing pair (20 vs 1×4)",
            appealing_group(2, 20.0, 4, 1.0, 2.0),
        ),
        (
            "appealing pair, higher load",
            appealing_group(2, 20.0, 4, 1.0, 8.0),
        ),
        (
            "mild spread ×6 (ratio 1.3), 63% util",
            spread_links(6, 1.0, 1.3, 8.0),
        ),
        (
            "mild spread ×8 (ratio 1.2), 70% util",
            spread_links(8, 1.0, 1.2, 12.0),
        ),
    ];

    let scenarios: Vec<Scenario> = families
        .iter()
        .map(|(_, links)| Scenario::from(links.clone()))
        .collect();
    let reports = Batch::new(scenarios).task(Task::Beta).run();
    for ((name, _), report) in families.iter().zip(&reports) {
        let report = report.as_ref().map_err(|e| e.clone())?;
        let b = report.data.as_beta().unwrap();
        println!(
            "{name:<34} m={:<3} r={:<5.1} β_M={:<8.4} C(N)={:<9.4} C(O)={:<9.4} C(S+T)={:<9.4}",
            report.scenario.size,
            report.scenario.rate,
            b.beta,
            b.nash_cost,
            b.optimum_cost,
            b.induced_cost,
        );
    }

    // Strategy comparison on the interesting (spread) instance.
    let links = spread_links(6, 1.0, 1.3, 8.0);
    let r = try_optop(&links)?;
    println!("\n== Strategy comparison on the spread instance ==");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "α", "LLF", "SCALE", "bound 1/α"
    );
    let c_opt = r.optimum_cost;
    for i in 1..=10 {
        let alpha = i as f64 / 10.0;
        let (_, c_llf) = llf(&links, alpha)?;
        let (_, c_scale) = scale(&links, alpha)?;
        println!(
            "{alpha:>6.2} {:>12.4} {:>12.4} {:>12.4}",
            c_llf / c_opt,
            c_scale / c_opt,
            1.0 / alpha
        );
    }
    println!(
        "\nβ_M = {:.4}: from that portion upward the OpTop strategy pins the ratio to exactly 1.",
        r.beta
    );
    Ok(())
}
