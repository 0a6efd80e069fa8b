package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunPrintsTheTimeline replays two days of a small generated trace:
// one train and one infer line a day, in calendar order, and a summary
// line that adds the infer lines up.
func TestRunPrintsTheTimeline(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "", true, 0.005, 7, "rf", 15, 1, "2024-02-05", "2024-02-07"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{
		`^replaying rf deployment \(α=15 β=1\) over \[2024-02-05, 2024-02-07\)$`,
		`^$`,
		`^2024-02-05 train: window \[01-21, 02-05\) [1-9]\d* jobs, \S+$`,
		`^2024-02-05 infer: (\d+) jobs classified \(\d+ memory-bound, f1=[01]\.\d{3} over \d+\)$`,
		`^2024-02-06 train: window \[01-22, 02-06\) [1-9]\d* jobs, \S+$`,
		`^2024-02-06 infer: (\d+) jobs classified \(\d+ memory-bound, f1=[01]\.\d{3} over \d+\)$`,
		`^$`,
		`^timeline: 2 trainings, 2 inference triggers, (\d+) jobs classified$`,
	}
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	var counts []int
	for i, re := range want {
		m := regexp.MustCompile(re).FindStringSubmatch(lines[i])
		if m == nil {
			t.Fatalf("line %d is %q, want %s", i+1, lines[i], re)
		}
		if len(m) == 2 {
			n, _ := strconv.Atoi(m[1])
			counts = append(counts, n)
		}
	}
	if counts[0] == 0 || counts[1] == 0 || counts[0]+counts[1] != counts[2] {
		t.Errorf("windows of %d and %d jobs, summary says %d", counts[0], counts[1], counts[2])
	}
}

func TestRunReportsABadDate(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, "", true, 0.005, 7, "rf", 15, 1, "yesterday", "2024-02-07")
	if err == nil || !strings.Contains(err.Error(), "bad -from") {
		t.Fatalf("run returned %v, want a bad -from error", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before refusing the date", out.String())
	}
}
