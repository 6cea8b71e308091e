#!/usr/bin/env bash
# Builds the PAQOC benchmark from source and runs it. Run from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload sweep_analytical --seed 1 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build cache, CPU profiles) stays under
# .bench_build/ in the checkout. Without the repository's go.mod and
# internal/ packages next to perfbench/ the build fails and the script exits
# non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Temporary files of the go command and of the benchmark stay inside too.
export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
# The go command keeps its telemetry counters under the user config dir;
# point it inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export PPROF_TMPDIR="$out/pprof"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=unknown
if command -v git >/dev/null 2>&1; then
	# Stop at the checkout root: a parent directory's repository is not ours.
	commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT="$commit"

exec "$out/perfbench" "$@"
