#!/bin/sh
# CI gate: formatting, vet, build, the nested benchmark module's vet and
# tests (it is outside `go build ./...`, so a deleted symbol its adapter
# freezes would otherwise break nothing until the benchmark driver runs),
# the full test suite once (the command tests there are the end-to-end
# gates: plan-cache warm start, drift on a scripted clock, traced and mitigated
# data-parallel runs, serve + load, committed baselines and goldens), the
# race-instrumented short suite, a determinism gate (the drift tests and
# the planner's fake-strategy tests run on scripted clocks, so twenty
# race-instrumented repeats must all pass), the bounds-check-elimination
# gate on the hot micro-kernel files, and an arm64 vet and cross-build,
# which keep the scalar bodies of internal/kern (the build off amd64)
# compiling. go vet's asmdecl check covers the amd64 assembly frames. Run
# from the repository root.
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
(cd benchmark && go vet . && go test .)
go test ./...
go test -race -short ./...
go test -race -count=20 -run 'TestDriftRetuneLoop|TestDriftInjectionAndControl' ./internal/obs ./cmd/spg-train
go test -race -count=20 -skip 'TestPlannerSelectsSparseWeightForPrunedLayer|TestPlannerDeploysSparseWhereThePaperSays' ./internal/plan
scripts/bce_check.sh
GOARCH=arm64 go vet ./internal/kern/
GOARCH=arm64 go build ./...
