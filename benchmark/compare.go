package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"mcbound/benchmark/stats"
)

// readRecords loads an -out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// medians groups a file's runs by workload and takes the median of each
// metric over the runs that report it (untraced runs report the
// end-to-end metrics, traced runs the per-layer ones).
func medians(recs []record) map[string]map[string]stats.Summary {
	values := map[string]map[string][]float64{}
	for _, r := range recs {
		key := r.Workload
		if values[key] == nil {
			values[key] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[key][name] = append(values[key][name], m.Value)
		}
	}
	out := map[string]map[string]stats.Summary{}
	for key, ms := range values {
		out[key] = map[string]stats.Summary{}
		for name, v := range ms {
			out[key][name] = stats.Summarize(v)
		}
	}
	return out
}

// compareFiles prints, per workload and metric, the medians of the two
// files and b's relative difference from a. It reports worse=true when
// an end-to-end metric of b is worse than a's by more than its bound,
// when a count that must repeat exactly does not, or when either file
// holds a failed or incorrect run.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	ra, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	for _, r := range append(append([]record(nil), ra...), rb...) {
		if !r.Correct || r.Failed != 0 {
			fmt.Fprintf(w, "FAILED RUN  %s seed %d: correct=%t failed=%d of %d\n", r.Workload, r.Seed, r.Correct, r.Failed, r.Attempted)
			worse = true
		}
	}
	a, b := medians(ra), medians(rb)
	var names []string
	for k := range a {
		if _, ok := b[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		fmt.Fprintf(w, "%s\n", wl)
		var ms []string
		for m := range a[wl] {
			if _, ok := b[wl][m]; ok {
				ms = append(ms, m)
			}
		}
		sort.Strings(ms)
		for _, m := range ms {
			va, vb := a[wl][m], b[wl][m]
			rel := 0.0
			if va.Median != 0 {
				rel = (vb.Median - va.Median) / va.Median
			}
			verdict := ""
			if spec, ok := findMetric(endToEnd, m); ok {
				loss := rel
				if spec.Better == "higher" {
					loss = -rel
				}
				verdict = fmt.Sprintf("bound %.0f%%", spec.Bound*100)
				if loss > spec.Bound {
					verdict += "  WORSE"
					worse = true
				}
			} else if spec, ok := findMetric(perLayer, m); ok && spec.Exact {
				verdict = "exact"
				if va.Median != vb.Median {
					verdict += "  CHANGED"
					worse = true
				}
			}
			fmt.Fprintf(w, "  %-40s %14.6g %14.6g %+8.2f%%  (n=%d,%d)  %s\n",
				m, va.Median, vb.Median, rel*100, va.N, vb.N, verdict)
		}
	}
	return worse, nil
}

// spreadFile prints, per workload and end-to-end metric, the median of
// a file's runs and their spread — the inter-quartile distance as a
// share of the median, the figure the benchmark contract bounds — and
// reports unsteady=true when a spread other than setup_s's exceeds its
// metric's bound. Run it over ten runs on ten seeds.
func spreadFile(w io.Writer, path string) (unsteady bool, err error) {
	recs, err := readRecords(path)
	if err != nil {
		return false, err
	}
	m := medians(recs)
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, wl := range names {
		fmt.Fprintf(w, "%s\n", wl)
		for _, spec := range endToEnd {
			v, ok := m[wl][spec.Name]
			if !ok {
				continue
			}
			verdict := "steady"
			switch sp := v.Spread(); {
			case sp > spec.Bound && spec.Name != "setup_s":
				verdict = "UNSTEADY"
				unsteady = true
			case sp > spec.Bound/3:
				verdict = "within bound, above a third of it"
			}
			fmt.Fprintf(w, "  %-18s median %12.6g  q1 %12.6g  q3 %12.6g  n=%-3d spread %6.2f%%  bound %3.0f%%  %s\n",
				spec.Name, v.Median, v.Q1, v.Q3, v.N, v.Spread()*100, spec.Bound*100, verdict)
		}
	}
	return unsteady, nil
}
