// Plants for the two wiring rules, in a binary.
package main

import (
	"mcbound/internal/admission"
	"mcbound/internal/election"
	"mcbound/internal/store"
)

func main() {
	open := store.OpenDurable // want wiring
	_, _ = open("", store.New(), store.DurableOptions{})
	_, _ = election.New(election.Config{})          // want wiring
	_ = admission.NewController(admission.Config{}) // want wiring/admission
}
