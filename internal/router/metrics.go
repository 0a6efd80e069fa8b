package router

import "mcbound/internal/telemetry"

// metrics is the mcbound_router_* surface. The router always has a
// registry (New falls back to a private one), so every field is live.
type metrics struct {
	reg            *telemetry.Registry
	readOK         *telemetry.Counter // requests{type="read",outcome="ok"}: every read's, so resolved once
	hedges         *telemetry.Counter
	hedgeWins      *telemetry.Counter
	ejections      *telemetry.Counter
	staleReads     *telemetry.Counter
	forwardSeconds *telemetry.Histogram
}

func newMetrics(reg *telemetry.Registry, rt *Router) *metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &metrics{
		reg: reg,
		hedges: reg.Counter("mcbound_router_hedges_total",
			"Hedged read attempts launched.", nil),
		hedgeWins: reg.Counter("mcbound_router_hedge_wins_total",
			"Hedged attempts that returned before the primary.", nil),
		ejections: reg.Counter("mcbound_router_ejections_total",
			"Backends ejected by the passive outlier detector.", nil),
		staleReads: reg.Counter("mcbound_router_stale_reads_total",
			"Reads served past the bounded-staleness cut (brownout reads).", nil),
		forwardSeconds: reg.Histogram("mcbound_router_forward_seconds",
			"Latency of successful proxied attempts.", nil, nil),
	}
	m.readOK = m.requests("read", "ok")
	for _, b := range rt.backends {
		b.requestsOK = m.backendRequests(b.member.ID, "ok")
	}
	reg.GaugeFunc("mcbound_router_backends", "Configured backends.", nil,
		func() float64 { return float64(len(rt.backends)) })
	reg.GaugeFunc("mcbound_router_backends_available", "Backends alive and not ejected.", nil,
		func() float64 {
			now := rt.clock.Now()
			n := 0
			for _, b := range rt.backends {
				s := b.snapshot()
				if (!s.probed || s.alive) && !b.ejected(now) {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("mcbound_router_backends_ejected", "Backends in an ejection cooldown.", nil,
		func() float64 {
			now := rt.clock.Now()
			n := 0
			for _, b := range rt.backends {
				if b.ejected(now) {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("mcbound_router_is_leader_known", "1 while the router can name a leader.", nil,
		func() float64 {
			if rt.leaderURL() != "" {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("mcbound_router_retry_budget_tokens", "Tokens left in the global retry budget.", nil,
		func() float64 { return rt.budget.Tokens() })
	reg.CounterFunc("mcbound_router_retries_total", "Retries admitted by the budget.", nil,
		func() int64 { return rt.budget.Retries() })
	reg.CounterFunc("mcbound_router_retry_budget_exhausted_total", "Retries denied by the budget.", nil,
		func() int64 { return rt.budget.Exhausted() })
	return m
}

// requests counts one front-door request by type and outcome. The
// lookup renders a label set and takes two locks; the outcomes of a
// healthy fleet (readOK, backend.requestsOK) are resolved at New.
func (m *metrics) requests(typ, outcome string) *telemetry.Counter {
	return m.reg.Counter("mcbound_router_requests_total",
		"Front-door requests by type and outcome.",
		telemetry.Labels{"type": typ, "outcome": outcome})
}

// backendRequests counts one proxied attempt by backend and outcome.
func (m *metrics) backendRequests(backend, outcome string) *telemetry.Counter {
	return m.reg.Counter("mcbound_router_backend_requests_total",
		"Proxied attempts by backend and outcome.",
		telemetry.Labels{"backend": backend, "outcome": outcome})
}
