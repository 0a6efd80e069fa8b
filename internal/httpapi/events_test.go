package httpapi_test

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/cluster"
	"mcbound/internal/election"
	"mcbound/internal/httpapi"
	"mcbound/internal/job"
	"mcbound/internal/node"
	"mcbound/internal/repl"
	"mcbound/internal/router"
	"mcbound/internal/store"
)

// sink keeps every record its handlers are handed, with the attributes
// the logger was built With.
type sink struct {
	mu   sync.Mutex
	recs []slog.Record
}

type sinkHandler struct {
	s     *sink
	attrs []slog.Attr
}

func (h sinkHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h sinkHandler) Handle(_ context.Context, r slog.Record) error {
	r = r.Clone()
	r.AddAttrs(h.attrs...)
	h.s.mu.Lock()
	h.s.recs = append(h.s.recs, r)
	h.s.mu.Unlock()
	return nil
}

func (h sinkHandler) WithAttrs(as []slog.Attr) slog.Handler {
	h.attrs = append(slices.Clip(h.attrs), as...)
	return h
}

func (h sinkHandler) WithGroup(string) slog.Handler { return h }

func newSink() (*sink, *slog.Logger) {
	s := &sink{}
	return s, slog.New(sinkHandler{s: s})
}

// only returns the attributes of the one record whose message starts
// with msg, failing unless there is exactly one.
func (s *sink) only(t *testing.T, msg string) map[string]string {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var found []map[string]string
	for _, r := range s.recs {
		if !strings.HasPrefix(r.Message, msg) {
			continue
		}
		attrs := map[string]string{"msg": r.Message}
		r.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value.String()
			return true
		})
		found = append(found, attrs)
	}
	if len(found) != 1 {
		t.Fatalf("%d records %q, want exactly one: %v", len(found), msg, found)
	}
	return found[0]
}

// queuedTrace writes a trace of one job that never ran: nothing a
// Training Workflow can fit, so every train the node triggers fails.
func queuedTrace(t *testing.T) string {
	t.Helper()
	st := store.New()
	submit := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := st.Insert(&job.Job{
		ID: "queued", User: "u1", Name: "app", CoresRequested: 48, NodesRequested: 1,
		FreqRequested: job.FreqNormal, SubmitTime: submit,
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func nodeConfig(t *testing.T, logger *slog.Logger) node.Config {
	return node.Config{
		Trace: queuedTrace(t), Model: "rf", Index: "auto", Alpha: 15, Beta: 1, Seed: 7, Fsync: "always",
		Logger: logger,
	}
}

func openNode(t *testing.T, c node.Config) *node.Node {
	t.Helper()
	n, err := node.Open(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestEachEventLogsOnce: each event an operator acts on is one record,
// carrying the attributes that say which node, term, epoch, backend or
// request it was.
func TestEachEventLogsOnce(t *testing.T) {
	t.Run("election lease loss", func(t *testing.T) {
		s, logger := newSink()
		members, err := cluster.New("n1", []cluster.Member{
			{ID: "n1", URL: "http://n1"}, {ID: "n2", URL: "http://n2"}, {ID: "n3", URL: "http://n3"},
		})
		if err != nil {
			t.Fatal(err)
		}
		clk := clock.NewManual(time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC))
		el, err := election.New(election.Config{
			Members: members, Node: repl.NewLeader(nil), Clock: clk, LeaseTTL: 3 * time.Second,
			Logger: logger.With("node", "n1"),
		})
		if err != nil {
			t.Fatal(err)
		}
		// No follower acks: the lease lapses one TTL after boot, and later
		// steps find it still lost.
		for i := 0; i < 3; i++ {
			clk.Advance(2 * time.Second)
			el.Tick(context.Background())
		}
		if got := s.only(t, "election: lease lost"); got["node"] != "n1" || got["term"] == "" {
			t.Errorf("lease loss attributes %v, want node and term", got)
		}
	})

	t.Run("router ejection", func(t *testing.T) {
		s, logger := newSink()
		fail := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "down", http.StatusInternalServerError)
		})
		a, b := httptest.NewServer(fail), httptest.NewServer(fail)
		t.Cleanup(a.Close)
		t.Cleanup(b.Close)
		rt, err := router.New(router.Config{
			Backends:       []cluster.Member{{ID: "a", URL: a.URL}, {ID: "b", URL: b.URL}},
			EjectThreshold: 1, HedgeAfterMin: time.Minute, Logger: logger,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The first failure ejects one backend; half the fleet out is the
		// floor, so no later failure ejects the other.
		for i := 0; i < 3; i++ {
			rt.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/model", nil))
		}
		if got := s.only(t, "router: ejected backend"); got["backend"] != "a" && got["backend"] != "b" || got["failures"] != "1" {
			t.Errorf("ejection attributes %v, want the backend and its failure streak", got)
		}
	})

	t.Run("repl re-sync after an epoch change", func(t *testing.T) {
		s, logger := newSink()
		quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
		c := nodeConfig(t, quiet)
		c.DataDir = t.TempDir()
		tr := node.NewTransport()
		leader := openNode(t, c)
		tr.Handle("leader", leader.Handler())

		f, err := repl.NewFollower(repl.FollowerConfig{
			Client: repl.NewClient(repl.ClientConfig{BaseURL: "http://leader", HTTP: &http.Client{Transport: tr}}),
			Apply:  store.New().ApplyRecord, Logger: logger,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := f.SyncNow(ctx); err != nil {
			t.Fatal(err)
		}
		// The leader restarts promoted over its own log: epoch 1 → 2.
		leader.Close()
		c.PromoteOnStart = true
		tr.Handle("leader", openNode(t, c).Handler())
		for i := 0; i < 2; i++ {
			if err := f.SyncNow(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.only(t, "repl: leader epoch changed"); got["from_epoch"] != "1" || got["epoch"] != "2" {
			t.Errorf("re-sync attributes %v, want from_epoch=1 epoch=2", got)
		}
	})

	t.Run("failed cron retrain", func(t *testing.T) {
		s, logger := newSink()
		clk := clock.NewManual(time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC))
		c := nodeConfig(t, logger)
		c.Clock, c.RetrainEvery = clk, time.Hour
		n := openNode(t, c)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go n.Run(ctx)
		clk.BlockUntil(1) // the cron is parked on its next tick
		clk.Advance(time.Hour)
		clk.BlockUntil(1) // ...and parked again: the tick's retrain is done
		if got := s.only(t, "cron retraining failed"); !strings.Contains(got["err"], "2024-03-01") {
			t.Errorf("retrain failure attributes %v, want the error naming the node's instant", got)
		}
	})

	t.Run("recovered panic", func(t *testing.T) {
		s, logger := newSink()
		api := httpapi.NewPanicServer(t, slog.NewLogLogger(logger.Handler(), slog.LevelInfo))
		req := httptest.NewRequest(http.MethodGet, "/v1/boom", nil)
		req.Header.Set(httpapi.RequestIDHeader, "panic-1")
		api.ServeHTTP(httptest.NewRecorder(), req)
		if got := s.only(t, "panic serving"); !strings.Contains(got["msg"], "request_id=panic-1") {
			t.Errorf("panic record %q lacks the request ID", got["msg"])
		}
	})
}
