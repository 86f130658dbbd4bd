// The benchmark harness is a module of its own so that it builds with its
// own build file and the root module's `go build ./... && go test ./...`
// never sees it. The module path sits under cachepirate/ so the harness may
// import cachepirate/internal/...; the replace points at the checkout.
module cachepirate/bench

go 1.22

require cachepirate v0.0.0

replace cachepirate => ../
