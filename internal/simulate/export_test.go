package simulate

// GoldenStore hands the golden replay's trace to the e2e test (package
// simulate_test: it opens a node, and internal/node imports this package).
var GoldenStore = goldenStore
