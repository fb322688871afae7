//! Quickstart: the paper's Pigou example (Figs. 1–3) end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks the session API on the smallest interesting instance — parse a
//! scenario, solve the equilibria and the price of optimum, serialize the
//! report — then drops one level down to the algorithm surface the session
//! dispatches to (OpTop, the baselines).

use stackopt::core::llf::llf;
use stackopt::core::optop::try_optop;
use stackopt::core::scale::scale;
use stackopt::equilibrium::cost::coordination_ratio;
use stackopt::prelude::*;

fn main() -> Result<(), SoptError> {
    // Pigou's network: a fast link ℓ₁(x) = x and a constant link ℓ₂ ≡ 1,
    // shared by a unit of infinitely divisible selfish traffic. The spec
    // language gives it in five characters.
    let scenario = Scenario::parse("x, 1.0")?;

    // Selfish play floods the fast link (Fig. 1-down); the optimum
    // balances both (Fig. 1-up).
    let equilib = scenario.clone().solve().task(Task::Equilib).run()?;
    print!("{equilib}");
    let e = equilib.data.as_equilib().unwrap();
    println!(
        "coordination ratio  = {:.4}  (the worst case 4/3 for linear latencies)",
        coordination_ratio(e.nash_cost, e.optimum_cost)
    );

    // The price of optimum: how much flow must a Leader control to
    // *enforce* C(O)? β = 1/2 with strategy S = ⟨0, 1/2⟩ (Fig. 2), and the
    // induced equilibrium S+T is exactly the optimum (Fig. 3).
    let beta = scenario.clone().solve().task(Task::Beta).run()?;
    println!("\nOpTop via the session API:");
    print!("{beta}");

    // Reports serialize without serde — this JSON is what
    // `sopt solve --format json` emits.
    println!("\nas JSON: {}", beta.to_json());

    // Under the hood: the same numbers from the algorithm surface.
    let links = ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
    let result = try_optop(&links)?;
    let (_, llf_cost) = llf(&links, result.beta)?;
    let (_, scale_cost) = scale(&links, result.beta)?;
    println!("\nBaselines at α = β = {:.2}:", result.beta);
    println!("  LLF   cost = {llf_cost:.4}");
    println!("  SCALE cost = {scale_cost:.4}");
    println!(
        "  OpTop cost = {:.4}  <- approximation guarantee exactly 1",
        result.optimum_cost
    );
    Ok(())
}
