package rf

import (
	"fmt"
	"testing"

	"mcbound/internal/job"
	"mcbound/internal/stats"
)

// benchData builds an n×dim training set with cluster structure.
func benchData(n, dim int, seed uint64) ([][]float32, []job.Label) {
	rng := stats.NewRNG(seed)
	x := make([][]float32, n)
	y := make([]job.Label, n)
	for i := range x {
		v := make([]float32, dim)
		off := float32(0)
		if i%4 == 0 {
			off = 2
		}
		for d := range v {
			v[d] = off + float32(rng.Float64())
		}
		x[i] = v
		if off > 0 {
			y[i] = job.ComputeBound
		} else {
			y[i] = job.MemoryBound
		}
	}
	return x, y
}

// BenchmarkTrainTrees is the ensemble-size ablation (Fig. 7's dominant
// cost scales linearly in the tree count).
func BenchmarkTrainTrees(b *testing.B) {
	x, y := benchData(5000, 384, 1)
	for _, trees := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NumTrees = trees
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := New(cfg)
				if err := c.Train(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainBins is the histogram-resolution ablation: more bins
// refine the split search at linear extra sweep cost.
func BenchmarkTrainBins(b *testing.B) {
	x, y := benchData(5000, 384, 2)
	for _, bins := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NumTrees = 20
			cfg.Bins = bins
			for i := 0; i < b.N; i++ {
				c := New(cfg)
				if err := c.Train(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainSize tracks Fig. 7: training cost versus window size.
// The n= cases are all-unique rows (a fit can share no work between
// them); n=25000/dup=5 is the shape a node fits at s30 — sparse rows,
// every distinct submission present five times, the five one vector as
// the encoder hands them over — and /copied is the same rows each in an
// array of its own, which the fit can only group by content.
func BenchmarkTrainSize(b *testing.B) {
	train := func(name string, x [][]float32, y []job.Label) {
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NumTrees = 20
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := New(cfg)
				if err := c.Train(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{2000, 8000, 32000} {
		x, y := benchData(n, 384, 3)
		train(fmt.Sprintf("n=%d", n), x, y)
	}
	x, y := servedData(25000, 5, 384, 3)
	train("n=25000/dup=5", x, y)
	train("n=25000/dup=5/copied", deepCopy(x), y)
}

// deepData is a training set whose forest has the served forest's shape
// (s30: 188 K nodes, a row crosses 28 splits a tree, left and right
// equally often), which clean clusters do not give — benchData fits 100
// stumps. Rows are sparse like the encoder's: each of 2 000 "apps" is
// 32 tokens out of dim with weights of either sign, popular apps drawn
// more often, a row its app plus a little jitter; the label is the
// app's, flipped one time in five so no split purifies a node.
// Uniform-bin splits then peel one token's rows off the rest at a time
// — to the left for a negative weight, to the right for a positive one
// — and the trees grow long and unpredictable.
func deepData(n, dim int, seed uint64) ([][]float32, []job.Label) {
	return appData(n, dim, seed, 32, 1)
}

// appData is deepData with its two dials free: an app is tokens tokens
// out of dim, and the label noise falls on one app in every contested
// only. Denser rows leave fewer nodes where none of the features drawn
// splits anything (such a node becomes a leaf as it stands, impure), and
// fewer noisy apps fewer leaves fitted to a coin: the trees agree more.
func appData(n, dim int, seed uint64, tokens, contested int) ([][]float32, []job.Label) {
	const apps = 2000
	rng := stats.NewRNG(seed)
	centre := make([][]float32, apps)
	label := make([]job.Label, apps)
	for a := range centre {
		centre[a] = make([]float32, dim)
		for t := 0; t < tokens; t++ {
			w := float32(0.2 + 0.8*rng.Float64())
			if rng.Bool(0.5) {
				w = -w
			}
			centre[a][rng.Intn(dim)] = w
		}
		label[a] = job.MemoryBound
		if rng.Bool(0.5) {
			label[a] = job.ComputeBound
		}
	}
	x := make([][]float32, n)
	y := make([]job.Label, n)
	for i := range x {
		u := rng.Float64()
		a := int(apps * u * u)
		x[i] = make([]float32, dim)
		for d, c := range centre[a] {
			x[i][d] = c + float32(0.01*(rng.Float64()-0.5))
		}
		y[i] = label[a]
		// Drawn for every row, so that deepData's rows are what they were.
		if flip := rng.Intn(5) == 0; flip && a%contested == 0 {
			y[i] = job.MemoryBound + job.ComputeBound - y[i]
		}
	}
	return x, y
}

// servedData is deepData with the trace's batch duplication: n rows over
// n/dup distinct vectors, copies of one vector spread through the set
// and each labeled on its own coin (the app's label, flipped one time
// in five), so most vectors carry both labels.
func servedData(n, dup, dim int, seed uint64) ([][]float32, []job.Label) {
	ux, uy := deepData(n/dup, dim, seed)
	rng := stats.NewRNG(seed + 1)
	x := make([][]float32, n)
	y := make([]job.Label, n)
	for i := range x {
		u := i % len(ux)
		x[i], y[i] = ux[u], uy[u]
		if rng.Intn(5) == 0 {
			y[i] = job.MemoryBound + job.ComputeBound - y[i]
		}
	}
	return x, y
}

// walkTree takes q down the tree rooted at node i on the float
// thresholds and returns its leaf's class and the splits crossed.
func walkTree(c *Classifier, i int32, q []float32) (class, steps int) {
	for c.nodes[i].right != i {
		if q[c.nodes[i].feature] < c.nodes[i].threshold() {
			i++
		} else {
			i = c.nodes[i].right
		}
		steps++
	}
	return int(c.nodes[i].class()), steps
}

// walkedDepth is the mean number of splits a query crosses per tree.
func walkedDepth(c *Classifier, queries [][]float32) float64 {
	total := 0
	for _, q := range queries {
		for _, root := range c.roots {
			_, steps := walkTree(c, root, q)
			total += steps
		}
	}
	return float64(total) / float64(len(queries)*len(c.roots))
}

// decidedAfter is how many trees of the forest, taken in order and in
// the kernel's groups (eight at a time, then the leftover trees one at a
// time), a query has walked when its label can no longer change: its
// compute-bound votes have passed half the forest, or can no longer get
// there. It is a property of the forest and the query; what Predict
// walks is pinned to it by TestBlockWalksAreTheStopRule.
func decidedAfter(c *Classifier, q []float32) int {
	n, votes := len(c.roots), 0
	for t, root := range c.roots {
		class, _ := walkTree(c, root, q)
		votes += class
		done := t + 1
		if done%lanes != 0 && done <= n-n%lanes {
			continue // inside a group
		}
		if 2*votes > n || 2*(votes+n-done) <= n {
			return done
		}
	}
	return n
}

// BenchmarkPredict measures inference on the fitted forest (Fig. 8's RF
// series: constant in the training window) at the three batch sizes the
// server sees: 1 is the per-qsub call, 360 the distinct rows of a
// 1 000-job window, 1 000 a window without duplicates. The shallow
// forest is what clean synthetic clusters fit (a walk is one or two
// levels and the call is all overhead); the deep one has the served
// forest's size and depth, where the walk is the cost, but label noise
// on every app, so its trees disagree more than the served ones do
// (trees/row, from decidedAfter: 76.4 — 8 % of the queries decided at 56
// trees, 25 % at 64, 5 % past 96); the served one has the s30 forest's
// margins — s30, over its 1 598 distinct held-out rows: 61.3 trees/row,
// 73 % decided at 56, 11 % at 64, 5 % at 72, 0.9 % past 96; here 60.9,
// 70 %, 15 %, 7 %, 0.5 % — on 206 K nodes walked 24 levels deep (s30:
// 188 K, 28.7).
func BenchmarkPredict(b *testing.B) {
	shallowX, shallowY := benchData(21000, 384, 4)
	deepX, deepY := deepData(11000, 384, 4)
	servedX, servedY := appData(16000, 384, 4, 96, 4)
	for _, forest := range []struct {
		name string
		x    [][]float32
		y    []job.Label
	}{
		{"shallow", shallowX, shallowY},
		{"deep", deepX, deepY},
		{"served", servedX, servedY},
	} {
		// The last 1 000 rows are the queries and are not trained on.
		n := len(forest.x) - 1000
		queries := forest.x[n:]
		c := New(DefaultConfig())
		if err := c.Train(forest.x[:n], forest.y[:n]); err != nil {
			b.Fatal(err)
		}
		depth := walkedDepth(c, queries)
		if forest.name == "deep" && (len(c.nodes) < 150_000 || depth < 25) {
			b.Fatalf("the deep forest has %d nodes walked %.1f levels deep, want ≥ 150 000 and ≥ 25", len(c.nodes), depth)
		}
		trees := 0
		for _, q := range queries {
			trees += decidedAfter(c, q)
		}
		for _, batch := range []int{1, 360, 1000} {
			b.Run(fmt.Sprintf("%s/batch=%d", forest.name, batch), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					// A new window of the queries every call: the same rows
					// again would be walked from the branch predictor's memory.
					lo := i * batch % (len(queries) - batch + 1)
					if _, err := c.Predict(queries[lo : lo+batch]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(c.nodes)), "nodes")
				b.ReportMetric(depth, "levels/tree")
				b.ReportMetric(float64(trees)/float64(len(queries)), "trees/row")
			})
		}
	}
}

// BenchmarkMarshal measures forest persistence.
func BenchmarkMarshal(b *testing.B) {
	x, y := benchData(5000, 384, 6)
	cfg := DefaultConfig()
	cfg.NumTrees = 20
	c := New(cfg)
	if err := c.Train(x, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}
