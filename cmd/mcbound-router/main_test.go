package main

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"

	"mcbound/internal/resilience"
	"mcbound/internal/router"
)

// -h is pinned: testdata/help.golden is the binary's output below its
// "Usage of" line. A new flag, a changed default or help text fails here.
func TestHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("mcbound-router", flag.ContinueOnError)
	var got bytes.Buffer
	fs.SetOutput(&got)
	bindFlags(fs, new(router.Config))
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("-h changed:\n%s\nwant:\n%s", got.String(), want)
	}
}

// Every flag lands in its own field: each is given a value that is
// neither its default nor any other flag's.
func TestEveryFlagLandsInConfig(t *testing.T) {
	args := []string{
		"-port=9001", "-peers=n1=http://a:1", "-max-read-lag=2s", "-hedge-min=3ms",
		"-retry-budget=5.5", "-retry-budget-ratio=0.6", "-eject-threshold=7", "-eject-cooldown=8s",
		"-poll-every=10ms", "-max-body-bytes=12", "-drain-timeout=13s", "-seed=14",
	}
	fs := flag.NewFlagSet("mcbound-router", flag.ContinueOnError)
	var c router.Config
	l := bindFlags(fs, &c)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	declared := 0
	fs.VisitAll(func(*flag.Flag) { declared++ })
	if declared != len(args) {
		t.Fatalf("%d flags declared, %d set by this test", declared, len(args))
	}
	if want := (listen{port: 9001, peers: "n1=http://a:1", drainTimeout: 13 * time.Second}); *l != want {
		t.Fatalf("parsed %+v, want %+v", *l, want)
	}
	want := router.Config{
		MaxReadLag: 2 * time.Second, HedgeAfterMin: 3 * time.Millisecond,
		RetryBudget:    resilience.BudgetConfig{Tokens: 5.5, Ratio: 0.6},
		EjectThreshold: 7, EjectCooldown: 8 * time.Second,
		PollEvery: 10 * time.Millisecond, MaxBodyBytes: 12, Seed: 14,
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("parsed Config\n%+v\nwant\n%+v", c, want)
	}
}

// The front door bounds every phase of a connection, like the API server
// behind it: a client that stalls its request or never reads the answer
// cannot hold a router connection open.
func TestFrontDoorTimeoutsAreSet(t *testing.T) {
	srv := (&listen{port: 9001}).server(http.NotFoundHandler())
	if srv.Addr != ":9001" {
		t.Fatalf("Addr %q, want :9001", srv.Addr)
	}
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout, "ReadTimeout": srv.ReadTimeout,
		"WriteTimeout": srv.WriteTimeout, "IdleTimeout": srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want a bound", name, d)
		}
	}
}

// Every flag names who needs it: DESIGN.md §8's router flag table has
// the declared flags in its rows (a row may hold several), each once.
// The three flags router.Config has no field for name their listen
// field instead.
func TestEveryFlagHasASurfaceRow(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := bytes.Cut(doc, []byte("| Flag (`router.Config` field) |"))
	if !found {
		t.Fatal("DESIGN.md has no router flag table")
	}
	table, _, _ = bytes.Cut(table, []byte("\n\n"))
	var documented []string
	flagAndField := regexp.MustCompile("`-([a-z-]+)` \\(`[A-Za-z.]+`\\)")
	for _, row := range bytes.Split(table, []byte("\n")) {
		cell, _, _ := bytes.Cut(bytes.TrimPrefix(row, []byte("| ")), []byte(" | "))
		for _, m := range flagAndField.FindAllSubmatch(cell, -1) {
			documented = append(documented, string(m[1]))
		}
	}
	var declared []string
	fs := flag.NewFlagSet("mcbound-router", flag.ContinueOnError)
	bindFlags(fs, new(router.Config))
	fs.VisitAll(func(f *flag.Flag) { declared = append(declared, f.Name) })
	slices.Sort(documented)
	slices.Sort(declared)
	if !slices.Equal(documented, declared) {
		t.Errorf("DESIGN.md §8's router flag rows name\n  %q\nthe binary declares\n  %q", documented, declared)
	}
}
