// Package metrics implements the classification quality measures the
// paper evaluates with: per-class precision, recall and F1, and the
// F1-macro average (Sokolova et al.), plus the confusion matrix they
// derive from.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"mcbound/internal/job"
)

// Confusion is a confusion matrix over job labels. Cells count (actual,
// predicted) pairs.
type Confusion struct {
	cells map[job.Label]map[job.Label]int
	n     int
}

// NewConfusion returns an empty matrix.
func NewConfusion() *Confusion {
	return &Confusion{cells: make(map[job.Label]map[job.Label]int)}
}

// Add records one (actual, predicted) observation.
func (c *Confusion) Add(actual, predicted job.Label) {
	row, ok := c.cells[actual]
	if !ok {
		row = make(map[job.Label]int)
		c.cells[actual] = row
	}
	row[predicted]++
	c.n++
}

// AddAll records paired slices; it returns an error on length mismatch.
func (c *Confusion) AddAll(actual, predicted []job.Label) error {
	if len(actual) != len(predicted) {
		return fmt.Errorf("metrics: %d actual vs %d predicted labels", len(actual), len(predicted))
	}
	for i := range actual {
		c.Add(actual[i], predicted[i])
	}
	return nil
}

// Merge adds every observation of other (nil = none) into c, so the
// matrix of a period is the merge of its windows' matrices.
func (c *Confusion) Merge(other *Confusion) {
	if other == nil {
		return
	}
	for actual, row := range other.cells {
		dst, ok := c.cells[actual]
		if !ok {
			dst = make(map[job.Label]int)
			c.cells[actual] = dst
		}
		for predicted, n := range row {
			dst[predicted] += n
			c.n += n
		}
	}
}

// N returns the number of recorded observations.
func (c *Confusion) N() int { return c.n }

// Classes returns every label appearing as actual or predicted, sorted.
func (c *Confusion) Classes() []job.Label {
	seen := map[job.Label]bool{}
	for a, row := range c.cells {
		seen[a] = true
		for p := range row {
			seen[p] = true
		}
	}
	out := make([]job.Label, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// ClassScores holds the per-class quality measures.
type ClassScores struct {
	Class             job.Label
	TP, FP, FN        int
	Precision, Recall float64
	F1                float64
	Support           int
}

// Scores computes the per-class precision, recall and F1. A class with no
// predicted positives has precision 0; with no actual positives, recall
// 0; F1 is 0 whenever precision+recall is 0 (scikit-learn convention).
func (c *Confusion) Scores(class job.Label) ClassScores {
	s := ClassScores{Class: class}
	for a, row := range c.cells {
		for p, n := range row {
			switch {
			case a == class && p == class:
				s.TP += n
			case a != class && p == class:
				s.FP += n
			case a == class && p != class:
				s.FN += n
			}
		}
	}
	s.Support = s.TP + s.FN
	if s.TP+s.FP > 0 {
		s.Precision = float64(s.TP) / float64(s.TP+s.FP)
	}
	if s.Support > 0 {
		s.Recall = float64(s.TP) / float64(s.Support)
	}
	if s.Precision+s.Recall > 0 {
		s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
	}
	return s
}

// F1Macro returns the unweighted mean of the per-class F1 scores over all
// observed actual classes — the headline metric of the paper.
func (c *Confusion) F1Macro() float64 {
	var sum float64
	var k int
	for a := range c.cells {
		sum += c.Scores(a).F1
		k++
	}
	if k == 0 {
		return 0
	}
	return sum / float64(k)
}

// Accuracy returns the fraction of correct predictions.
func (c *Confusion) Accuracy() float64 {
	if c.n == 0 {
		return 0
	}
	correct := 0
	for a, row := range c.cells {
		correct += row[a]
	}
	return float64(correct) / float64(c.n)
}

// Report renders a scikit-learn-style classification report.
func (c *Confusion) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %9s %9s %9s %9s\n", "class", "precision", "recall", "f1", "support")
	for _, cl := range c.Classes() {
		s := c.Scores(cl)
		if s.Support == 0 && s.FP == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-16s %9.4f %9.4f %9.4f %9d\n", cl, s.Precision, s.Recall, s.F1, s.Support)
	}
	fmt.Fprintf(&b, "%-16s %9s %9s %9.4f %9d\n", "macro avg", "", "", c.F1Macro(), c.n)
	fmt.Fprintf(&b, "%-16s %9s %9s %9.4f %9d\n", "accuracy", "", "", c.Accuracy(), c.n)
	return b.String()
}

// F1MacroOf is a convenience wrapper computing F1-macro directly from
// paired label slices.
func F1MacroOf(actual, predicted []job.Label) (float64, error) {
	c := NewConfusion()
	if err := c.AddAll(actual, predicted); err != nil {
		return 0, err
	}
	return c.F1Macro(), nil
}
