#!/bin/sh
# bce_check: gate bounds-check elimination in the hot micro-kernel files.
#
# Builds the kernel packages with the compiler's bounds-check report
# (-d=ssa/check_bce) and fails if any IsInBounds/IsSliceInBounds survives
# in a PROTECTED file — the files whose loops run O(M·N·K) times per GEMM
# or once per streamed element, where a single reintroduced bounds check
# costs double-digit percent throughput:
#
#   internal/gemm/microkernel.go      microDot8, dotRows8/4, axpyAcc, strips
#   internal/stencil/kernels.go       saxpy1-4, gatherDot, scatterAxpy
#   internal/blockedconv/kernels.go   accRow, zeroRow (NCHW8 direct FP)
#   internal/spweight/kernels.go      axpyRow(Stride), zeroBuf (CSR FP)
#   internal/spkernel/kernels.go      axpyRows (CT-CSR pointer-shifting BP)
#
# (blockedconv/forward.go, spweight/forward.go and spkernel/spkernel.go are
# the drivers feeding those loops — per-row slicing, excluded like the GEMM
# drivers.)
#
# Pack/driver code (packed.go, gemm.go, ...) is deliberately NOT protected:
# its checks execute O(M·N/8) times, not in the inner loops.
#
# Usage: scripts/bce_check.sh
set -eu

cd "$(dirname "$0")/.."

protected="internal/gemm/microkernel.go
internal/stencil/kernels.go
internal/blockedconv/kernels.go
internal/spweight/kernels.go
internal/spkernel/kernels.go"

pkgs="./internal/gemm/ ./internal/stencil/ ./internal/unfoldgemm/ ./internal/unfold/ ./internal/spkernel/ ./internal/par/ ./internal/blockedconv/ ./internal/spweight/"

out="$(go build -gcflags='-d=ssa/check_bce' $pkgs 2>&1)" || {
	echo "$out"
	echo "bce_check: go build failed" >&2
	exit 1
}

fail=0
for f in $protected; do
	hits="$(printf '%s\n' "$out" | grep -F "$f:" || true)"
	if [ -n "$hits" ]; then
		echo "bce_check: bounds checks regressed in protected file $f:" >&2
		printf '%s\n' "$hits" >&2
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	echo "bce_check: FAILED — restore the streaming-slice/guard idioms (see the file headers)" >&2
	exit 1
fi
echo "bce_check: protected micro-kernel files are bounds-check free"
