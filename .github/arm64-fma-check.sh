#!/usr/bin/env bash
# Fails when the arm64 compiler fuses a multiply with an add or subtract
# anywhere in the GRAPE path's packages except on a source line that calls
# math.FMA. Go may contract x*y + z into one FMADDD/FMSUBD/FNMADDD/FNMSUBD
# on arm64 (never on amd64), which rounds once where amd64 rounds twice;
# the product's fused chains are the one place that contract is wanted
# (DESIGN.md, "Destination-passing kernels"). Run from the repository root:
#
#   bash .github/arm64-fma-check.sh
set -euo pipefail

pkgs=(./internal/linalg/ ./internal/hamiltonian/ ./internal/grape/)
# The compiler's listing names each instruction's source line, inlined
# code under the line it was written on.
listing=$(GOARCH=arm64 go build -gcflags=-S "${pkgs[@]}" 2>&1)
fused=$(sed -nE 's/.*\(([^()]+\.go):([0-9]+)\)[[:space:]]+(FN?M(ADD|SUB)D)[[:space:]].*/\1 \2 \3/p' <<<"$listing" | sort -u)

bad=0
allowed=0
while read -r file line insn; do
	[ -n "$file" ] || continue
	src=$(sed -n "${line}p" "$file")
	if [[ $src == *"math.FMA("* ]]; then
		allowed=$((allowed + 1))
		continue
	fi
	echo "$file:$line: $insn fused outside math.FMA:${src}"
	bad=1
done <<<"$fused"

if [ "$allowed" -eq 0 ]; then
	echo "no math.FMA instruction in the listing: the check saw no code" >&2
	exit 1
fi
if [ "$bad" -ne 0 ]; then
	echo "round each product with float64(...) or linalg.CMul so arm64 keeps amd64's bits" >&2
	exit 1
fi
echo "arm64: fused instructions only at math.FMA calls ($allowed source lines)"
