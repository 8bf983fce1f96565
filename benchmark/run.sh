#!/usr/bin/env bash
# One command for the whole benchmark. Builds the self-contained package in
# this directory (offline, stock release profile) and runs it.
#
#   benchmark/run.sh --seed N                 full run: six workloads, three
#                                             interleaved passes, traced pass
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                             one driver run (BENCHMARK.json)
#   benchmark/run.sh --smoke                  every workload and check, <= 15 s
#   benchmark/run.sh --aa N [--workload W]    two interleaved sets of N runs
#   benchmark/run.sh --manifest               print BENCHMARK.json
#
# Exits non-zero when the build fails, an output check fails, or (--aa) a
# metric leaves its bound. Everything it writes goes under benchmark/out/
# and the cargo target directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cd "$root"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# glibc malloc keeps what the kernel has given it: no trimming the heap top,
# no mmap per large block, 64 MiB asked for at a time. A steady-state slice
# then takes no page faults and makes no brk/mmap calls of the allocator's.
# On the host this was sized on, page faults and system calls slow down by
# a quarter for minutes at a time while arithmetic slows by a twentieth
# (README, "Estimator"); with the allocator's defaults that is what
# timer_storm, rebind_churn and control_plane mostly measured.
export MALLOC_TRIM_THRESHOLD_=1073741824
export MALLOC_TOP_PAD_=67108864
export MALLOC_MMAP_THRESHOLD_=33554432

rustc_version="$(rustc --version 2>/dev/null || echo unknown)"
git_rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)"

exec "$target/release/pdo-benchmark" \
  --out "$here/out" --rustc "$rustc_version" --git-rev "$git_rev" "$@"
