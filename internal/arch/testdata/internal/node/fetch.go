package node

import (
	"mcbound/internal/fetch"
	"mcbound/internal/store"
)

func backend(st *store.Store) fetch.Backend {
	cfg := fetch.DefaultResilienceConfig()                               // want fetch/resilient
	return fetch.NewResilientBackend(fetch.StoreBackend{Store: st}, cfg) // want fetch/resilient
}
