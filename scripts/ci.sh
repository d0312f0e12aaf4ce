#!/bin/sh
# CI gate: formatting, vet, build, the nested benchmark module's vet and
# tests (it is outside `go build ./...`, so a deleted symbol its adapter
# freezes would otherwise break nothing until the benchmark driver runs),
# the full test suite once (the command tests there are the end-to-end
# gates: plan-cache warm start, drift on a scripted clock, a traced
# data-parallel run, serve + load, committed baselines and goldens), the
# race-instrumented short suite, 15 s each of fuzzing the /v1/infer body
# decoder, the netdef parser, Parse+Build, the plan-cache decoder
# (FuzzPlannerLoad), the two decoders spg-doctor reads: trace captures
# (FuzzReadCapture) and drift reports (FuzzReadReport), and the gob
# checkpoint decoder (FuzzNetworkLoad) (tier-1 replays their committed
# corpora; each step minimises a new input for at most 3 s, so the 15 s go
# to fuzzing rather than to go test's 60 s default), a determinism gate
# (the drift tests and the planner's fake-strategy tests run on scripted
# clocks, and spg-train's checkpoint must equal the plain trainer's byte
# for byte, so twenty race-instrumented repeats must all pass), a flake
# guard (ten repeats of the two measured-ordering tests, whose verdicts
# rest on exec.Ctx.Measure's interleaved rounds), the
# bounds-check-elimination gate on the hot micro-kernel files, and an
# arm64 vet and cross-build, which keep the scalar bodies of internal/kern
# (the build off amd64) compiling. go vet's asmdecl check covers the amd64
# assembly frames. Run from the repository root.
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
(cd benchmark && go vet . && go test .)
go test ./...
go test -race -short ./...
go test -run '^$' -fuzz '^FuzzInferBody$' -fuzztime 15s -fuzzminimizetime 3s ./internal/serve
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 15s -fuzzminimizetime 3s ./internal/netdef
go test -run '^$' -fuzz '^FuzzBuild$' -fuzztime 15s -fuzzminimizetime 3s ./internal/netdef
go test -run '^$' -fuzz '^FuzzPlannerLoad$' -fuzztime 15s -fuzzminimizetime 3s ./internal/plan
go test -run '^$' -fuzz '^FuzzReadCapture$' -fuzztime 15s -fuzzminimizetime 3s ./internal/trace
go test -run '^$' -fuzz '^FuzzReadReport$' -fuzztime 15s -fuzzminimizetime 3s ./internal/obs
go test -run '^$' -fuzz '^FuzzNetworkLoad$' -fuzztime 15s -fuzzminimizetime 3s ./internal/nn
go test -race -count=20 -run 'TestDriftRetuneLoop|TestDriftInjectionAndControl|TestTrainsAsThePlainTrainer' ./internal/obs ./cmd/spg-train
go test -race -count=20 -skip 'TestPlannerSelectsSparseWeightForPrunedLayer|TestPlannerDeploysSparseWhereThePaperSays' ./internal/plan
go test -count=10 -run 'TestAblationSpatialSmoke|TestPlannerDeploysSparseWhereThePaperSays' ./internal/bench ./internal/plan
scripts/bce_check.sh
GOARCH=arm64 go vet ./internal/kern/
GOARCH=arm64 go build ./...
