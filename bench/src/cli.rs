//! Command-line parsing and dispatch.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::catalog;
use crate::child::{self, ChildArgs};
use crate::driver::{self, Spawner};

const USAGE: &str = "\
bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
        One contract run (what BENCHMARK.json's command is given): repeats
        the workload in fresh child processes for about <s> seconds and
        prints, as its last line, one JSON object with the end-to-end
        metrics (--trace 0) or the per-layer metrics (--trace 1).
bench run [--seed S] [--repeats N]
        The whole ledger: 1 untimed warm-up round, N (default 5) timed
        rounds and 1 traced round over all five workloads; prints every
        metric by name with its unit, writes bench/out/results.json and
        bench/out/trace-<workload>.jsonl; exits non-zero if an operation
        failed.
bench aa [--seed S] [--repeats N]
        Measures the same code twice and compares the two sets of medians
        with the benchmark's own bounds; exits non-zero if they disagree.
bench glossary
        Prints the metric glossary as markdown (bench/README.md embeds it).
Common: --quick divides every horizon by 20 (smoke runs only);
        --out DIR writes results and traces there (default bench/out).
Workloads: matrix48 chain_sweep fleet64_seq fleet64_shard2 flows1m";

/// The flags every mode shares, as given.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    repeats: Option<usize>,
    quick: bool,
    unsliced: bool,
    out: Option<PathBuf>,
    trace_out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--quick" {
            flags.quick = true;
            continue;
        }
        if flag == "--unsliced" {
            flags.unsliced = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read `{value}`");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--repeats" => {
                let repeats: usize = value.parse().map_err(|_| bad())?;
                if repeats == 0 {
                    return Err(bad());
                }
                flags.repeats = Some(repeats);
            }
            "--out" => flags.out = Some(PathBuf::from(value)),
            "--trace-out" => flags.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(flags)
}

fn dispatch(started: Instant, args: &[String]) -> Result<bool, String> {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(mode @ ("run" | "aa" | "child" | "glossary")) => (mode, &args[1..]),
        Some("help" | "--help" | "-h") | None => {
            println!("{USAGE}");
            return Ok(true);
        }
        _ => ("contract", args),
    };
    let flags = parse_flags(rest)?;
    let seed = flags.seed.unwrap_or(2018);
    let spawner = || -> Result<Spawner, String> {
        Ok(Spawner {
            exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
            quick: flags.quick,
            out_dir: flags
                .out
                .clone()
                .unwrap_or_else(|| PathBuf::from("bench/out")),
        })
    };
    match mode {
        "glossary" => {
            print!("{}", catalog::glossary());
            Ok(true)
        }
        "child" => {
            let args = ChildArgs {
                workload: flags.workload.ok_or("child: --workload is required")?,
                seed,
                traced: flags.trace.unwrap_or(false),
                unsliced: flags.unsliced,
                quick: flags.quick,
                trace_out: flags.trace_out,
            };
            let result = child::iterate(&args, started)?;
            println!(
                "{}",
                serde_json::to_string(&result).map_err(|e| e.to_string())?
            );
            Ok(true)
        }
        "run" => driver::run(&spawner()?, seed, flags.repeats.unwrap_or(5)),
        "aa" => driver::aa(&spawner()?, seed, flags.repeats.unwrap_or(5)),
        _ => driver::contract(
            &spawner()?,
            &flags.workload.ok_or("--workload is required")?,
            flags.seed.ok_or("--seed is required")?,
            flags.seconds.ok_or("--seconds is required")?,
            flags.trace.ok_or("--trace is required")?,
        ),
    }
}

/// Runs the command line; exit code 0 only if every operation succeeded.
pub fn main(started: Instant, args: Vec<String>) -> ExitCode {
    match dispatch(started, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("bench: {error}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
