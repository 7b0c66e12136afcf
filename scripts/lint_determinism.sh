#!/usr/bin/env bash
# Determinism / unsafe lint wall.
#
# The whole point of the model-checked protocol work is that what we prove
# about the machine transfers to the code that drives it. That transfer
# breaks if production code smuggles in nondeterminism or unsafety, so CI
# rejects, in every non-test source file of the workspace:
#
#   1. a crate root (lib or bin) missing `#![forbid(unsafe_code)]`,
#   2. any use of the `unsafe` keyword (comments excluded),
#   3. std HashMap/HashSet — their iteration order is randomized per
#      process, which is exactly the nondeterminism that would make the
#      byte-identical benchmark gate and the model checker's replayable
#      counterexamples meaningless. Use BTreeMap/BTreeSet or the fixed-key
#      FastMap in pam-nf instead. Test modules (`#[cfg(test)]` and files
#      under tests/) may use whatever they like.
#   4. `std::thread::spawn` anywhere, and scoped threads
#      (`thread::scope` / `.spawn`) outside the two window-parallel runners
#      (the sharded fleet runner and the benchmark matrix runner). Both
#      merge worker results through order-independent reductions; ad-hoc
#      threads elsewhere would race results into the gated output.
#   5. wall-clock (`Instant` / `SystemTime`) anywhere but pam-bench.
#      Simulated time is `SimTime`; reading the host clock inside the
#      simulation is how "deterministic" runs drift. The experiment harness
#      (pam-experiments) reads no clock either: the simulator's host cost is
#      measured by the perf ledger in `bench/` (its own workspace, outside
#      this scan). The exemptions are pam-bench, whose criterion targets
#      time code paths the ledger does not cover yet, and the sharded
#      runner's per-lane busy/wait accounting, a side channel the ledger
#      reads and the gated report never contains.
#
# Run from the repo root: scripts/lint_determinism.sh
set -u

cd "$(dirname "$0")/.."
fail=0

say() { printf '%s\n' "$*"; }

# ---- 1. every crate root forbids unsafe code -------------------------------
roots=$(ls src/lib.rs crates/*/src/lib.rs crates/*/src/bin/*.rs 2>/dev/null)
for root in $roots; do
    if ! grep -q '#!\[forbid(unsafe_code)\]' "$root"; then
        say "FAIL: $root is a crate root without #![forbid(unsafe_code)]"
        fail=1
    fi
done

# Files allowed to use scoped threads: the two window-parallel runners.
scoped_thread_allow="crates/pam-fleet/src/shard.rs crates/pam-experiments/src/fleet.rs"
# The one file outside pam-bench allowed to read the wall clock: the sharded
# runner's per-lane busy/wait accounting (a side channel, never in the gated
# report).
wallclock_allow="crates/pam-fleet/src/shard.rs"

allowed() { # allowed <file> <list>
    case " $2 " in *" $1 "*) return 0 ;; *) return 1 ;; esac
}

# ---- 2-5. scan non-test production source ----------------------------------
# For each source file, strip everything from the first `#[cfg(test)]` line
# to EOF (the test-module tail), drop comment lines, then grep what remains.
srcs=$(find src crates/*/src -name '*.rs' 2>/dev/null)

# Sanity: files whose determinism the byte-identical gates lean on hardest
# must actually be in the scan set — if one of these ever moves out of the
# scanned tree, fail loudly instead of silently shrinking the wall. The
# fair-share link engine is listed explicitly: its f64 bookkeeping is only
# deterministic because it never touches the host (no clocks, no randomized
# containers), which is exactly what this script checks.
required_srcs="crates/pam-sim/src/sharing.rs crates/pam-sim/src/link.rs crates/pam-sim/src/events.rs crates/pam-fleet/src/sketch.rs crates/pam-fleet/src/estimator.rs crates/pam-sim/src/fault.rs crates/pam-fleet/src/health.rs"
for req in $required_srcs; do
    if ! printf '%s\n' "$srcs" | grep -qx "$req"; then
        say "FAIL: $req is not in the determinism scan set (moved or deleted?)"
        fail=1
    fi
done
for f in $srcs; do
    stripped=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$f" |
        grep -vE '^[[:space:]]*//')

    hits=$(printf '%s\n' "$stripped" | grep -nE '\bunsafe\b' |
        grep -v 'forbid(unsafe_code)' || true)
    if [ -n "$hits" ]; then
        say "FAIL: $f uses the unsafe keyword outside a test module:"
        say "$hits"
        fail=1
    fi

    hits=$(printf '%s\n' "$stripped" |
        grep -nE '\b(HashMap|HashSet)\b' || true)
    if [ -n "$hits" ]; then
        say "FAIL: $f uses std HashMap/HashSet outside a test module"
        say "      (randomized iteration order breaks determinism;"
        say "       use BTreeMap/BTreeSet or pam-nf's FastMap):"
        say "$hits"
        fail=1
    fi

    # 4a. detached threads are banned everywhere in production code.
    hits=$(printf '%s\n' "$stripped" | grep -nE 'thread::spawn' || true)
    if [ -n "$hits" ]; then
        say "FAIL: $f uses std::thread::spawn (detached threads race results;"
        say "      use std::thread::scope inside an allowlisted runner):"
        say "$hits"
        fail=1
    fi

    # 4b. scoped threads only inside the window-parallel runners.
    if ! allowed "$f" "$scoped_thread_allow"; then
        hits=$(printf '%s\n' "$stripped" |
            grep -nE 'thread::scope|\.spawn\(' || true)
        if [ -n "$hits" ]; then
            say "FAIL: $f spawns threads outside the allowlisted runners"
            say "      ($scoped_thread_allow):"
            say "$hits"
            fail=1
        fi
    fi

    # 5. wall-clock stays out of everything but pam-bench.
    case "$f" in
    crates/pam-bench/*) ;; # criterion stand-ins: exempt
    *)
        if ! allowed "$f" "$wallclock_allow"; then
            hits=$(printf '%s\n' "$stripped" |
                grep -nE '\b(Instant|SystemTime)\b' || true)
            if [ -n "$hits" ]; then
                say "FAIL: $f reads the wall clock outside pam-bench"
                say "      (use SimTime; only the sharded runner's lane"
                say "       accounting may touch Instant — host timing of"
                say "       the simulator belongs in the bench/ perf ledger):"
                say "$hits"
                fail=1
            fi
        fi
        ;;
    esac
done

if [ "$fail" -ne 0 ]; then
    say "determinism lint: FAILED"
    exit 1
fi
say "determinism lint: OK ($(printf '%s\n' "$roots" | wc -l | tr -d ' ') crate roots, $(printf '%s\n' "$srcs" | wc -l | tr -d ' ') source files)"
