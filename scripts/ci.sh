#!/bin/sh
# CI gate: formatting, vet, build, the nested benchmark module's vet and
# tests (it is outside `go build ./...`, so a deleted symbol its adapter
# freezes would otherwise break nothing until the benchmark driver runs),
# the full test suite once (the command tests there are the end-to-end
# gates: plan-cache warm start, drift injection, traced and mitigated
# data-parallel runs, serve + load, committed baselines and goldens), the
# race-instrumented short suite, and the bounds-check-elimination gate on
# the hot micro-kernel files. Run from the repository root.
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
(cd benchmark && go vet . && go test .)
go test ./...
go test -race -short ./...
scripts/bce_check.sh
