#!/bin/sh
# CI gate: formatting, vet, build, the nested benchmark module's vet and
# tests (it is outside `go build ./...`, so a deleted symbol its adapter
# freezes would otherwise break nothing until the benchmark driver runs),
# the race-instrumented short test suite,
# the bounds-check-elimination gate on the hot micro-kernel files, the
# quick-scale benchmark baseline check, the plan-cache round-trip check
# (warm starts must deploy cached strategy verdicts with zero measurement
# passes), the execution-trace capture/attribution check (2-replica
# capture must validate and attribute stragglers and waste), the
# serving check (train -> serve -> load -> validate metrics and drain),
# the design-space explorer golden check (spg-plan -explore over the
# workload zoo must match its committed report byte-for-byte), and the
# drift-observatory check (an injected synthetic slowdown must fire a
# drift event and re-tune; the control run must stay silent), and the
# data-parallel check (ring allreduce bit-identity, straggler mitigation
# engaging under an injected slow replica, scale-out baseline match).
# Run from the repository root.
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
(cd benchmark && go vet . && go test .)
go test -race -short ./...
scripts/bce_check.sh
scripts/bench_check.sh
scripts/plan_check.sh
scripts/trace_check.sh
scripts/serve_check.sh
scripts/explore_check.sh
scripts/drift_check.sh
scripts/dp_check.sh
