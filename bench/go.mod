// The benchmark is a module of its own so that the repo's tier-1
// `go build ./... && go test ./...` never compiles it: a later change to an
// internal signature can break one probe here without breaking the tree.
// The module path sits under repro/ so probes may import repro/internal/...
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
