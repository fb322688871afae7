//! End-to-end and per-layer benchmark of the solver.
//!
//! ```text
//! perfbench --workload city-beta|od-fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives the library through the entry points the CLI
//! uses (`Server::handle` for `sopt solve`, a buffered engine batch for
//! `sopt batch`; the traced pass also streams the fleet through
//! `Server::serve` over a socket, as `sopt batch --stream` and `sopt serve`
//! do), checks every answer, and prints one JSON object as its last line
//! of output:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced pass with `--trace 1`. Inputs are generated from the
//! seed; the program only sees the generated inputs.

mod city;
mod fleet;
mod layers;
mod serve;
mod util;

use util::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload city-beta|od-fleet \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let result = match (args.workload.as_str(), args.trace) {
        ("city-beta", false) => city::run(args.seed, args.seconds, &mut out),
        ("city-beta", true) => city::trace(args.seed, &mut out),
        ("od-fleet", false) => fleet::run(args.seed, args.seconds, &mut out),
        ("od-fleet", true) => fleet::trace(args.seed, &mut out),
        (other, _) => Err(format!("unknown workload '{other}'")),
    };
    if let Err(e) = result.and_then(|()| {
        if out.attempted == 0 {
            Err("the run completed no operation".into())
        } else {
            Ok(())
        }
    }) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    println!("{}", out.to_json());
}
