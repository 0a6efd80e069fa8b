package main

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"

	"mcbound/internal/node"
)

// -h is pinned: testdata/help.golden is the binary's output below its
// "Usage of" line. A new flag, a changed default or help text fails here.
func TestHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("mcbound-server", flag.ContinueOnError)
	var got bytes.Buffer
	fs.SetOutput(&got)
	bindFlags(fs, new(node.Config))
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("-h changed:\n%s\nwant:\n%s", got.String(), want)
	}
}

// Every flag lands in its own Config field: each is given a value that
// is neither its default nor any other flag's, and the parsed Config
// must be exactly the literal below — 31 flags, 31 fields set.
func TestEveryFlagLandsInConfig(t *testing.T) {
	args := []string{
		"-trace=t.jsonl", "-seed=11", "-model=knn", "-index=on",
		"-alpha=30", "-beta=2", "-model-dir=/m", "-port=9001",
		"-max-body-bytes=4096", "-pprof", "-retrain-every=13h", "-shutdown-timeout=14s", "-encode-cache=15",
		"-max-concurrency=16", "-queue-depth=17",
		"-fetch-attempts=20", "-fetch-backoff=21ms",
		"-data-dir=/d", "-fsync=never", "-segment-bytes=27", "-snapshot-every=28",
		"-follow=http://leader:1", "-follow-poll=32ms", "-promote-on-start", "-retrain-jitter=0.34",
		"-node-id=n2", "-peers=n1=http://a:1,n2=http://b:1", "-lease-ttl=35s", "-heartbeat-every=36ms",
		"-election-timeout=37s", "-max-missed=38",
	}
	want := node.Config{
		Trace: "t.jsonl", Seed: 11, Model: "knn", Index: "on",
		Alpha: 30, Beta: 2, ModelDir: "/m", Port: 9001,
		MaxBody: 4096, Pprof: true, RetrainEvery: 13 * time.Hour, DrainTimeout: 14 * time.Second, EncodeCache: 15,
		MaxConcurrency: 16, QueueDepth: 17,
		FetchAttempts: 20, FetchBackoff: 21 * time.Millisecond,
		DataDir: "/d", Fsync: "never", SegmentBytes: 27, SnapshotEvery: 28,
		Follow: "http://leader:1", FollowPoll: 32 * time.Millisecond, PromoteOnStart: true, RetrainJitter: 0.34,
		NodeID: "n2", Peers: "n1=http://a:1,n2=http://b:1", LeaseTTL: 35 * time.Second, HeartbeatEvery: 36 * time.Millisecond,
		ElectionTimeout: 37 * time.Second, MaxMissed: 38,
	}
	fs := flag.NewFlagSet("mcbound-server", flag.ContinueOnError)
	var got node.Config
	bindFlags(fs, &got)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	declared, set := 0, 0
	fs.VisitAll(func(*flag.Flag) { declared++ })
	fs.Visit(func(*flag.Flag) { set++ })
	if declared != 31 || set != declared {
		t.Fatalf("%d flags declared, %d set by this test; want 31 and 31", declared, set)
	}
	if got != want {
		t.Fatalf("parsed Config\n%+v\nwant\n%+v", got, want)
	}
	// The literal above leaves no flag's field at its zero value, so a
	// flag bound to another flag's field would have failed the equality.
	filled := 0
	for v, i := reflect.ValueOf(got), 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			filled++
		}
	}
	if filled != declared {
		t.Fatalf("%d Config fields set by %d flags", filled, declared)
	}
}

// Every flag names who needs it: DESIGN.md §8's surface table has the
// declared flags in its flag rows (a row may hold several), each once.
func TestEveryFlagHasASurfaceRow(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := bytes.Cut(doc, []byte("| Flag (`node.Config` field) |"))
	if !found {
		t.Fatal("DESIGN.md has no flag table")
	}
	table, _, _ = bytes.Cut(table, []byte("\n\n"))
	var documented []string
	flagAndField := regexp.MustCompile("`-([a-z-]+)` \\(`[A-Za-z]+`\\)")
	for _, row := range bytes.Split(table, []byte("\n")) {
		cell, _, _ := bytes.Cut(bytes.TrimPrefix(row, []byte("| ")), []byte(" | "))
		for _, m := range flagAndField.FindAllSubmatch(cell, -1) {
			documented = append(documented, string(m[1]))
		}
	}
	var declared []string
	fs := flag.NewFlagSet("mcbound-server", flag.ContinueOnError)
	bindFlags(fs, new(node.Config))
	fs.VisitAll(func(f *flag.Flag) { declared = append(declared, f.Name) })
	slices.Sort(documented)
	slices.Sort(declared)
	if !slices.Equal(documented, declared) {
		t.Errorf("DESIGN.md §8's flag rows name\n  %q\nthe binary declares\n  %q", documented, declared)
	}
}
