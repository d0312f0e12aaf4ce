#!/bin/sh
# bce_check: gate bounds-check elimination in the hot micro-kernel files.
#
# Builds the kernel packages with the compiler's bounds-check report
# (-d=ssa/check_bce) and fails if any IsInBounds/IsSliceInBounds survives
# in a PROTECTED file — the files whose loops run O(M·N·K) times per GEMM
# or once per streamed element, where a single reintroduced bounds check
# costs double-digit percent throughput:
#
#   internal/kern/kern.go             Axpy, AxpyRuns, NonZeros, Block.Axpy,
#                                     Dot8, Dot8x4, Dot8x4Seg, Gather8
#                                     (the inner-loop layer every engine
#                                     shares: the dispatch wrappers and the
#                                     scalar bodies; the AVX2 bodies are
#                                     assembly, kern_amd64.s)
#   internal/kern/glue.go             Epilogue, MaxPool (the conv epilogue's
#                                     bias + ReLU pass and the max-pool's
#                                     scalar twin; its AVX2 body is in
#                                     kern_amd64.s)
#   internal/gemm/microkernel.go      copyStrip8 (the GEMM panel pack)
#   internal/unfoldgemm/kernels.go    copyTaps8, copyTaps4x2, foldTaps8,
#                                     foldTaps4 (implicit-unfold panel
#                                     build and fold)
#   internal/stencil/body.go          forwardRows, block (the one
#                                     register-tiled stencil body)
#   internal/blockedconv/kernels.go   accRow (NCHW8 direct FP)
#   internal/spweight/kernels.go      axpyRowStride (strided CSR FP)
#   internal/nn/kernels.go            reluRow, reluGradRow (glue)
#
# (unfoldgemm/unfoldgemm.go, blockedconv/forward.go, spweight/forward.go,
# spkernel/spkernel.go, sparse/ctcsr.go and nn/activations.go, nn/pool.go,
# nn/conv.go are the drivers feeding those loops — per-panel offsets,
# ragged/strided panel fallbacks, per-row and per-plane slicing, the
# non-zero lists' data-indexed reads and the pool's argmax scatter, excluded
# like the GEMM drivers.)
#
# Pack/driver code (packed.go, gemm.go, ...) is deliberately NOT protected:
# its checks execute O(M·N/8) times, not in the inner loops.
#
# Usage: scripts/bce_check.sh
set -eu

cd "$(dirname "$0")/.."

protected="internal/kern/kern.go
internal/kern/glue.go
internal/gemm/microkernel.go
internal/unfoldgemm/kernels.go
internal/stencil/body.go
internal/blockedconv/kernels.go
internal/spweight/kernels.go
internal/nn/kernels.go"

pkgs="./internal/kern/ ./internal/gemm/ ./internal/stencil/ ./internal/unfoldgemm/ ./internal/unfold/ ./internal/spkernel/ ./internal/par/ ./internal/blockedconv/ ./internal/spweight/ ./internal/nn/"

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
