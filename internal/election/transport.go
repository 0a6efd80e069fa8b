package election

import (
	"context"
	"net/http"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/peer"
	"mcbound/internal/resilience"
)

// Lease is the leadership record a leader serves on GET /v1/lease and
// echoes in its ack responses. Term equals the WAL fencing epoch the
// holder leads under; observers compute expiry from their own receipt
// time plus TTLSeconds, never from the holder's clock.
type Lease struct {
	Term            uint64  `json:"term"`
	HolderID        string  `json:"holder_id"`
	HolderURL       string  `json:"holder_url"`
	TTLSeconds      float64 `json:"ttl_seconds"`
	RenewedUnixNano int64   `json:"renewed_unix_nano"`
}

// AckRequest is the POST /v1/lease/ack body. With Claim false it is a
// follower's heartbeat acknowledgment — proof it heard the leader's
// lease this round, carrying its position for the leader's lag view.
// With Claim true it is a vote request: the sender asks the receiver to
// grant it leadership at Term (which must exceed every term the
// receiver has participated in).
type AckRequest struct {
	NodeID     string `json:"node_id"`
	URL        string `json:"url"`
	Term       uint64 `json:"term"`
	AppliedSeq uint64 `json:"applied_seq"`
	Claim      bool   `json:"claim,omitempty"`
}

// AckResponse answers an ack or a vote request. Term is the highest
// term the responder has participated in; Lease (leaders only) carries
// the current lease so a heartbeat ack doubles as a renewal read.
type AckResponse struct {
	NodeID     string `json:"node_id"`
	Granted    bool   `json:"granted"`
	Term       uint64 `json:"term"`
	AppliedSeq uint64 `json:"applied_seq"`
	Reason     string `json:"reason,omitempty"`
	LeaderURL  string `json:"leader_url,omitempty"`
	Lease      *Lease `json:"lease,omitempty"`
}

// LeaseDoc is the GET /v1/lease document: the leader's own lease, or a
// follower's relay of the last one it observed.
type LeaseDoc struct {
	Lease Lease `json:"lease"`
}

// Transport carries lease reads and acks between electors. The chaos
// suite substitutes a fault-injecting implementation (blackholes,
// asymmetric partitions) while the WAL-shipping path stays on its own
// client — heartbeat loss and data-plane loss are independent failures.
type Transport interface {
	// GetLease fetches the lease document the node at baseURL serves.
	GetLease(ctx context.Context, baseURL string) (Lease, error)
	// Ack posts a heartbeat ack or vote request to the node at baseURL.
	Ack(ctx context.Context, baseURL string, req AckRequest) (AckResponse, error)
}

// HTTPTransport is the production Transport: the GET /v1/lease and
// POST /v1/lease/ack surface, with one cheap retry per call through the
// shared resilience layer (a single dropped packet should not count as
// a missed heartbeat; a down leader still fails within one timeout).
type HTTPTransport struct {
	hc   *http.Client
	retr *resilience.Retrier
}

// NewHTTPTransport builds the production transport on hc (nil is a
// plain &http.Client{}). Every call's deadline is the caller's: the
// elector runs each under requestTimeout on its clock. The retry backs
// off on c (nil is the wall clock); seed drives its jitter.
func NewHTTPTransport(hc *http.Client, c clock.Clock, seed uint64) *HTTPTransport {
	if hc == nil {
		hc = &http.Client{}
	}
	return &HTTPTransport{
		hc: hc,
		retr: resilience.NewRetrier(resilience.Policy{
			MaxAttempts: 2,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Jitter:      0.2,
		}, c, seed),
	}
}

// maxResponseBytes bounds a lease or ack document.
const maxResponseBytes = 1 << 16

// GetLease implements Transport. Whatever the peer answers other than
// its lease is one missed read, retried once like a dropped packet.
func (t *HTTPTransport) GetLease(ctx context.Context, baseURL string) (Lease, error) {
	return resilience.Do(ctx, t.retr, func(ctx context.Context) (Lease, error) {
		var doc LeaseDoc
		err := peer.JSON(ctx, t.hc, peer.Call{Method: http.MethodGet, URL: baseURL + "/v1/lease", Limit: maxResponseBytes}, nil, &doc)
		return doc.Lease, err
	})
}

// Ack implements Transport.
func (t *HTTPTransport) Ack(ctx context.Context, baseURL string, ar AckRequest) (AckResponse, error) {
	return resilience.Do(ctx, t.retr, func(ctx context.Context) (AckResponse, error) {
		var out AckResponse
		err := peer.JSON(ctx, t.hc, peer.Call{Method: http.MethodPost, URL: baseURL + "/v1/lease/ack", Limit: maxResponseBytes}, ar, &out)
		return out, err
	})
}
