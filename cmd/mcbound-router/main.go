// Command mcbound-router is the cluster front door: a health-aware
// HTTP router in front of an mcbound-server fleet. Reads spread across
// fresh followers (rendezvous-hashed per client, hedged against the
// fleet's p95, budget-bounded retries); writes forward to the
// lease-holding leader the health probes name, and a write that meets a
// 421 is resent once after a fresh probe round.
// When no leader exists, writes fail fast with a typed 503 while reads
// keep serving from the freshest follower.
//
//	mcbound-router -port 8000 \
//	  -peers n1=http://localhost:8080,n2=http://localhost:8081,n3=http://localhost:8082
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcbound/internal/cluster"
	"mcbound/internal/httpapi"
	"mcbound/internal/resilience"
	"mcbound/internal/router"
	"mcbound/internal/telemetry"
)

// listen holds the flags router.Config has no field for: where to
// listen, how long to drain, the membership in its unparsed form.
type listen struct {
	port         int
	peers        string
	drainTimeout time.Duration
}

// bindFlags declares the router's flags on fs, each one router.Config
// has a field for bound straight to it, the rest to the returned listen.
func bindFlags(fs *flag.FlagSet, c *router.Config) *listen {
	l := new(listen)
	fs.IntVar(&l.port, "port", 8000, "port to listen on")
	fs.StringVar(&l.peers, "peers", "", "backend fleet as id=url,id=url,... (required)")
	fs.DurationVar(&c.MaxReadLag, "max-read-lag", router.DefaultMaxReadLag, "followers lagging more than this are excluded from reads")
	fs.DurationVar(&c.HedgeAfterMin, "hedge-min", router.DefaultHedgeAfterMin, "floor for the adaptive hedge delay")
	fs.Float64Var(&c.RetryBudget.Tokens, "retry-budget", resilience.DefaultBudgetTokens, "retry budget bucket capacity")
	fs.Float64Var(&c.RetryBudget.Ratio, "retry-budget-ratio", resilience.DefaultBudgetRatio, "tokens refilled per successful request")
	fs.IntVar(&c.EjectThreshold, "eject-threshold", router.DefaultEjectThreshold, "consecutive failures that eject a backend")
	fs.DurationVar(&c.EjectCooldown, "eject-cooldown", router.DefaultEjectCooldown, "base ejection cooldown (jittered ×[0.5,1.5))")
	fs.DurationVar(&c.PollEvery, "poll-every", router.DefaultPollEvery, "backend health probe period")
	fs.Int64Var(&c.MaxBodyBytes, "max-body-bytes", router.DefaultMaxBodyBytes, "largest write body the router will buffer")
	fs.DurationVar(&l.drainTimeout, "drain-timeout", httpapi.DefaultDrainTimeout, "graceful shutdown drain window")
	fs.Uint64Var(&c.Seed, "seed", 1, "seed for the ejection-cooldown jitter")
	return l
}

// server is the front door's listener: the API server's bounded one
// (every proxied exchange is one request and one response).
func (l *listen) server(h http.Handler) *http.Server {
	return httpapi.NewHTTPServer(fmt.Sprintf(":%d", l.port), h)
}

func main() {
	var c router.Config
	l := bindFlags(flag.CommandLine, &c)
	flag.Parse()
	if err := serve(c, l); err != nil {
		fmt.Fprintln(os.Stderr, "mcbound-router:", err)
		os.Exit(1)
	}
}

// serve builds the router over the -peers fleet and serves it on -port
// until SIGTERM/SIGINT, then drains in-flight requests.
func serve(c router.Config, l *listen) (err error) {
	if l.peers == "" {
		return fmt.Errorf("-peers is required (the router fronts an existing fleet)")
	}
	if c.Backends, err = cluster.ParseMemberList(l.peers); err != nil {
		return err
	}
	c.Registry, c.Logger = telemetry.NewRegistry(), slog.Default()
	rt, err := router.New(c)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go rt.Run(ctx)

	srv := l.server(rt)
	log.Printf("mcbound-router listening on :%d fronting %d backends (hedge ≥ %v, budget %.0f tokens, eject after %d fails)",
		l.port, len(c.Backends), c.HedgeAfterMin, c.RetryBudget.Tokens, c.EjectThreshold)
	return httpapi.ListenAndServe(ctx, srv, l.drainTimeout)
}
