// Plants for the two wiring rules, in a binary, and negative controls
// for the rules a binary is outside of.
package main

import (
	"log"
	"net/http"
	"time"

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

// Negative control: a binary holds no Clock, so its client may carry
// its own timeout.
var client = &http.Client{Timeout: time.Minute}

// Negative control: a binary may log through package log.
func fail(err error) { log.Fatal(err) }
