//! `bench`: the command `BENCHMARK.json` names. See `bench/README.md`.

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    // Set-up time is counted from here.
    let started = Instant::now();
    pam_perf_ledger::cli::main(started, std::env::args().skip(1).collect())
}
