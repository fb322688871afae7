//! Comparing every intervention the paper's introduction lists, on one
//! instance: do nothing, LLF, SCALE, the exact OpTop strategy, and
//! marginal-cost tolls.
//!
//! ```text
//! cargo run --example interventions
//! ```
//!
//! Drives everything through the session API: one `Scenario`, three tasks
//! (`curve`, `llf`, `tolls`). Prints the full anarchy-value curve
//! `α ↦ ϱ(M, r, α)` (Expression (2)) with the Corollary 2.2 crossover at
//! `β_M`, then the E15-style comparison of the two optimum-restoring
//! mechanisms.

use stackopt::core::scale::scale;
use stackopt::instances::fig4::fig4_links;
use stackopt::prelude::*;

fn main() -> Result<(), SoptError> {
    let links = fig4_links();
    let scenario = Scenario::from(links.clone());

    let curve = scenario.clone().solve().task(Task::Curve).steps(10).run()?;
    let c = curve.data.as_curve().unwrap();
    println!("instance: the paper's Fig. 4 five-link system, r = 1");
    println!(
        "C(N) = {:.4}   C(O) = {:.4}   coordination ratio = {:.4}   β_M = {:.4}\n",
        c.nash_cost,
        c.optimum_cost,
        c.nash_cost / c.optimum_cost,
        c.beta
    );

    println!("anarchy-value curve (oracle per point; exact from β on — Corollary 2.2):");
    println!(
        "{:>6} {:>10} {:>12} {:>12}  {:<22}",
        "α", "best", "LLF", "SCALE", "oracle"
    );
    for p in &c.points {
        // The LLF task reports the baseline at the same α; SCALE stays on
        // the algorithm surface (it has no session task yet).
        let llf = scenario
            .clone()
            .solve()
            .task(Task::Llf)
            .alpha(p.alpha)
            .run()?;
        let c_llf = llf.data.as_llf().unwrap().cost;
        let (_, c_scale) = scale(&links, p.alpha)?;
        println!(
            "{:>6.2} {:>10.6} {:>12.6} {:>12.6}  {:<22}",
            p.alpha,
            p.ratio,
            c_llf / c.optimum_cost,
            c_scale / c.optimum_cost,
            p.oracle,
        );
    }

    let tolls = scenario.clone().solve().task(Task::Tolls).run()?;
    let t = tolls.data.as_tolls().unwrap();
    println!("\nmarginal-cost tolls τ = o·ℓ'(o): {:?}", t.tolls);
    println!(
        "tolled Nash latency-cost = {:.6} (= C(O)); revenue collected = {:.4}",
        t.tolled_cost, t.revenue
    );
    println!(
        "\nsummary: the Leader buys the optimum with control over β = {:.3} of the flow;\n\
         the toll designer buys it with {:.3} revenue extracted from the users.",
        c.beta, t.revenue
    );
    Ok(())
}
