package wal

// The crash suite (package wal_test) commits and snapshots through the
// same helpers as the package's own tests.
var (
	CommitRecord    = commit
	PublishSnapshot = snapshot
)
