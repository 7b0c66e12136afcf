//! What the host is: the run header, and the process's peak memory.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The value of the first `key: value` line of a `/proc` file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        (name.trim() == key).then(|| value.trim().to_string())
    })
}

/// The process's peak resident set (`VmHWM`), KiB; 0 where `/proc` has none.
pub fn peak_rss_kib() -> u64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|value| value.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Seconds since boot during which the hypervisor ran something else on this
/// machine's CPUs (`steal` in `/proc/stat`, summed over CPUs, in ticks of
/// 10 ms); 0 where `/proc` has none.
pub fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let mut fields = text.lines().next()?.split_whitespace();
            (fields.next()? == "cpu").then_some(())?;
            fields.nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// First line a command prints, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A fixed integer loop, scored in steps per microsecond: rows measured on
/// different machines are normalised by it. Not a metric, never compared.
pub fn calibration_score() -> u64 {
    const STEPS: u64 = 50_000_000;
    let clock = Instant::now();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..STEPS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
    }
    black_box(state);
    let micros = clock.elapsed().as_micros().max(1) as u64;
    STEPS / micros
}

/// The run header: where and on what these rows were measured.
pub fn header(seed: u64, repeats: usize) -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        (
            "cpu",
            proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string()),
        ),
        ("rustc", first_line("rustc", &["-V"])),
        (
            "commit",
            first_line("git", &["rev-parse", "--short", "HEAD"]),
        ),
        ("seed", seed.to_string()),
        ("repeats", repeats.to_string()),
        ("calibration_steps_per_us", calibration_score().to_string()),
    ]
}
