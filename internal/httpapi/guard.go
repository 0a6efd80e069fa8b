package httpapi

import (
	"net/http"
	"time"

	"mcbound/internal/admission"
	"mcbound/internal/clock"
	"mcbound/internal/telemetry"
)

// Per-route deadline multipliers over DefaultDeadline: bulk
// endpoints scan ranges and batches, retraining walks the whole α-day
// window — both legitimately run longer than a point lookup.
const (
	batchDeadlineFactor      = 2
	backgroundDeadlineFactor = 10
)

// routeDeadline derives the default deadline for a priority tier; each
// is below DefaultMaxDeadline.
func routeDeadline(pri admission.Priority) time.Duration {
	switch pri {
	case admission.Batch:
		return batchDeadlineFactor * DefaultDeadline
	case admission.Background:
		return backgroundDeadlineFactor * DefaultDeadline
	}
	return DefaultDeadline
}

// guard is the admission middleware every route passes through:
//
//  1. resolve the request deadline — the per-route default, overridden
//     by a clamped X-Request-Timeout header — set it on the server's
//     clock, the one admission reads the remaining budget on, and
//     propagate it through the request context so handlers, the fetch
//     layer and the breaker all see the same budget;
//  2. ask the admission controller for a slot at the route's priority
//     (Critical bypasses but is still counted, so /healthz answers even
//     at saturation);
//  3. on rejection, answer the typed 503 with Retry-After.
func (s *Server) guard(pri admission.Priority, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		timeout, err := admission.ParseTimeout(
			r.Header.Get(admission.TimeoutHeader), routeDeadline(pri), DefaultMaxDeadline)
		if err != nil {
			s.writeError(w, badRequest(err))
			return
		}
		ctx, cancel := clock.WithTimeout(r.Context(), s.clock, timeout)
		defer cancel()

		tk, err := s.adm.Admit(ctx, pri, "")
		if err != nil {
			s.writeError(w, err)
			return
		}
		defer tk.Release()
		h(w, r.WithContext(ctx))
	}
}

// registerAdmissionMetrics exposes the controller's state on /metrics:
// inflight/queue/p95 gauges, the offered/admitted counters, per-reason
// shed counters and the queue-wait histogram.
func registerAdmissionMetrics(reg *telemetry.Registry, adm *admission.Controller) {
	reg.GaugeFunc("mcbound_admission_inflight",
		"Requests currently holding an admission slot.", nil,
		func() float64 { return float64(adm.Inflight()) })
	reg.GaugeFunc("mcbound_admission_queue_depth",
		"Requests waiting in the admission queue.", nil,
		func() float64 { return float64(adm.QueueLen()) })
	reg.GaugeFunc("mcbound_admission_p95_service_seconds",
		"p95 service time of the last 64-request window.", nil,
		func() float64 { return adm.P95().Seconds() })

	reg.CounterFunc("mcbound_admission_requests_total",
		"Admission decisions by outcome.", telemetry.Labels{"outcome": "admitted"},
		func() int64 { return adm.Stats().Admitted })
	reg.CounterFunc("mcbound_admission_requests_total",
		"Admission decisions by outcome.", telemetry.Labels{"outcome": "bypassed"},
		func() int64 { return adm.Stats().Bypassed })
	reg.CounterFunc("mcbound_admission_requests_total",
		"Admission decisions by outcome.", telemetry.Labels{"outcome": "offered"},
		func() int64 { return adm.Stats().Offered })
	for reason, read := range map[string]func(admission.Stats) int64{
		"queue_full": func(s admission.Stats) int64 { return s.ShedQueueFull },
		"doomed":     func(s admission.Stats) int64 { return s.ShedDoomed },
		"canceled":   func(s admission.Stats) int64 { return s.ShedCanceled },
	} {
		read := read
		reg.CounterFunc("mcbound_admission_shed_total",
			"Requests shed by the admission controller, by reason.",
			telemetry.Labels{"reason": reason},
			func() int64 { return read(adm.Stats()) })
	}

	wait := reg.Histogram("mcbound_admission_queue_wait_seconds",
		"Time admitted requests spent waiting for a slot.",
		telemetry.ExponentialBuckets(0.0001, 4, 10), nil)
	adm.SetQueueWaitHook(wait.Observe)
}
