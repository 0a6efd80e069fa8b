// Package replay drives a historical job trace through a *live* MCBound
// server at a configurable speed-up: the server-side twin of
// internal/simulate. Where simulate.Replay calls the Framework facade
// in-process, the replay Manager issues real HTTP traffic — batch
// inserts, classify calls, train triggers — against the v1 API, so a
// replay exercises exactly what production clients exercise
// (middleware, admission, durability) while reproducing the offline
// simulation's timeline event for event.
//
// A Manager runs at most one replay job at a time (starting a second
// one fails with ErrConflict → HTTP 409); the active job can be
// paused, resumed and canceled, and reports progress (simulated clock,
// records replayed, windows completed) in its status document.
package replay

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"mcbound/internal/clock"
	"mcbound/internal/core"
	"mcbound/internal/job"
	"mcbound/internal/online"
	"mcbound/internal/peer"
	"mcbound/internal/simulate"
	"mcbound/internal/store"
)

// State is the lifecycle phase of the replay resource.
type State string

// Replay job states. Exactly one job exists at a time; done/failed/
// canceled jobs keep their final status visible until the next Start
// or an explicit DELETE resets to idle.
const (
	StateIdle     State = "idle"
	StateRunning  State = "running"
	StatePaused   State = "paused"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Sentinel errors of the replay resource; the HTTP layer maps both to
// 409 Conflict.
var (
	// ErrConflict rejects starting a replay while one is active.
	ErrConflict = errors.New("replay: a replay job is already active")
	// ErrNotActive rejects pause/resume/cancel without a matching
	// active job.
	ErrNotActive = errors.New("replay: no active replay job")
)

// DefaultBatchSize bounds one insert request.
const DefaultBatchSize = 500

// paceSlice bounds one uninterruptible pacing sleep so pause and
// cancel take effect promptly even inside a long inter-window wait.
const paceSlice = 100 * time.Millisecond

// Options configure a Manager.
type Options struct {
	// Source is the historical trace the replay reads from. Required.
	Source *store.Store

	// Client issues the replay's HTTP traffic (required): a socket
	// client for a remote target, one over an in-memory transport
	// (node.Transport) for the node's own handler.
	Client *http.Client

	// BaseURL prefixes request paths: "http://host:port" of the target,
	// the host being the one the in-memory transport routes by.
	BaseURL string

	// Truth returns the ground-truth label for a replayed job, used to
	// score each inference window's F1. nil disables evaluation (F1
	// reports 0 over n=0).
	Truth func(*job.Job) (job.Label, bool)

	// Clock paces the replay; nil selects the wall clock. A clock whose
	// timers fire at once runs the schedule as fast as the target
	// absorbs it.
	Clock clock.Clock

	// Log receives progress lines; nil discards them.
	Log *log.Logger
}

// Config parameterizes one replay job (the POST /v1/replay body).
type Config struct {
	// Start/End bound the replayed period [Start, End).
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Speed is the time compression factor (100 = one simulated day
	// per 14.4 wall minutes); 0 means 1.
	Speed float64 `json:"speed"`
}

// Status is the replay resource's state document.
type Status struct {
	State State `json:"state"`

	// Job parameters (zero until the first Start).
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Speed float64   `json:"speed,omitempty"`

	// Progress.
	SimClock     time.Time `json:"sim_clock"`
	Records      int       `json:"records_replayed"`
	Rejected     int       `json:"records_rejected"`
	Predictions  int       `json:"predictions"`
	Trains       int       `json:"trains"`
	WindowsDone  int       `json:"windows_done"`
	WindowsTotal int       `json:"windows_total"`

	StartedAt time.Time `json:"started_at"`
	Error     string    `json:"error,omitempty"`
}

// Manager owns the singleton replay job.
type Manager struct {
	opts Options

	mu           sync.Mutex
	state        State
	cfg          Config
	simClock     time.Time
	records      int
	rejected     int
	predictions  int
	trains       int
	windowsDone  int
	windowsTotal int
	startedAt    time.Time
	errMsg       string
	cancel       context.CancelFunc
	resumeCh     chan struct{} // non-nil exactly while paused
	done         chan struct{} // closed when the active run's goroutine exits
	timeline     *simulate.Timeline
}

// NewManager builds a Manager; opts.Source is required.
func NewManager(opts Options) *Manager {
	if opts.Clock == nil {
		opts.Clock = clock.Wall{}
	}
	return &Manager{opts: opts, state: StateIdle}
}

// Start launches a replay job. It fails with ErrConflict while another
// job is running or paused; a finished job's status is replaced.
func (m *Manager) Start(cfg Config) (Status, error) {
	if cfg.Speed == 0 {
		cfg.Speed = 1
	}
	if cfg.Speed < 0 {
		return Status{}, fmt.Errorf("replay: negative speed %v", cfg.Speed)
	}
	if !cfg.End.After(cfg.Start) {
		return Status{}, fmt.Errorf("replay: end %v not after start %v", cfg.End, cfg.Start)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.opts.Source == nil || m.opts.Client == nil {
		return Status{}, fmt.Errorf("replay: manager not wired (source and client required)")
	}
	if m.state == StateRunning || m.state == StatePaused {
		return m.statusLocked(), ErrConflict
	}
	m.state = StateRunning
	m.cfg = cfg
	m.simClock = cfg.Start
	m.records, m.rejected, m.predictions, m.trains = 0, 0, 0, 0
	m.windowsDone, m.windowsTotal = 0, 0
	m.startedAt = m.opts.Clock.Now().UTC()
	m.errMsg = ""
	m.timeline = &simulate.Timeline{}
	m.done = make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	go m.run(ctx, cfg)
	return m.statusLocked(), nil
}

// Pause suspends the active job at its next checkpoint (window
// boundary, insert batch or pacing slice). ErrNotActive unless running.
func (m *Manager) Pause() (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != StateRunning {
		return m.statusLocked(), ErrNotActive
	}
	m.state = StatePaused
	m.resumeCh = make(chan struct{})
	return m.statusLocked(), nil
}

// Resume continues a paused job. ErrNotActive unless paused.
func (m *Manager) Resume() (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != StatePaused {
		return m.statusLocked(), ErrNotActive
	}
	m.state = StateRunning
	close(m.resumeCh)
	m.resumeCh = nil
	return m.statusLocked(), nil
}

// Cancel aborts the active job (its state becomes "canceled" once the
// driver unwinds) or, on an already-finished job, resets the resource
// to idle. ErrNotActive when there is nothing to delete.
func (m *Manager) Cancel() (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.state {
	case StateRunning, StatePaused:
		m.cancel()
		return m.statusLocked(), nil
	case StateDone, StateFailed, StateCanceled:
		m.state = StateIdle
		m.cfg = Config{}
		m.simClock = time.Time{}
		m.records, m.rejected, m.predictions, m.trains = 0, 0, 0, 0
		m.windowsDone, m.windowsTotal = 0, 0
		m.startedAt = time.Time{}
		m.errMsg = ""
		return m.statusLocked(), nil
	default:
		return m.statusLocked(), ErrNotActive
	}
}

// Status snapshots the resource's state document.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.statusLocked()
}

// Active reports whether a job is running or paused.
func (m *Manager) Active() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state == StateRunning || m.state == StatePaused
}

// Wait blocks until the active job's goroutine exits (any terminal
// state) or ctx is done. ErrNotActive when no job was ever started.
func (m *Manager) Wait(ctx context.Context) error {
	m.mu.Lock()
	ch := m.done
	m.mu.Unlock()
	if ch == nil {
		return ErrNotActive
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Timeline returns a copy of the (possibly still growing) operational
// timeline of the current/last job, in simulate's golden format.
func (m *Manager) Timeline() *simulate.Timeline {
	m.mu.Lock()
	defer m.mu.Unlock()
	tl := &simulate.Timeline{}
	if m.timeline != nil {
		tl.Events = append(tl.Events, m.timeline.Events...)
	}
	return tl
}

func (m *Manager) statusLocked() Status {
	return Status{
		State:        m.state,
		Start:        m.cfg.Start,
		End:          m.cfg.End,
		Speed:        m.cfg.Speed,
		SimClock:     m.simClock,
		Records:      m.records,
		Rejected:     m.rejected,
		Predictions:  m.predictions,
		Trains:       m.trains,
		WindowsDone:  m.windowsDone,
		WindowsTotal: m.windowsTotal,
		StartedAt:    m.startedAt,
		Error:        m.errMsg,
	}
}

func (m *Manager) run(ctx context.Context, cfg Config) {
	err := m.drive(ctx, cfg)
	m.mu.Lock()
	switch {
	case err == nil:
		m.state = StateDone
	case errors.Is(err, context.Canceled):
		m.state = StateCanceled
	default:
		m.state = StateFailed
		m.errMsg = err.Error()
	}
	if m.resumeCh != nil { // canceled while paused
		close(m.resumeCh)
		m.resumeCh = nil
	}
	close(m.done)
	m.mu.Unlock()
	if err != nil && !errors.Is(err, context.Canceled) {
		m.logf("replay failed: %v", err)
	}
}

// drive replays [cfg.Start, cfg.End) against the live API over the
// triggers of online.Schedule — the ones simulate.Replay.Run walks, so
// both produce the same timeline:
//
//  1. warm-up — insert every trace record that executed before
//     Start (the α-window history a deployed system would already hold);
//  2. initial Training Workflow at Start (the deploy script);
//  3. per β window: classify the window's submissions over POST
//     /v1/classify, score them against ground truth, pace the simulated
//     window at ×Speed, insert the records that completed during
//     the window, and retrain at the window boundary (the cron job).
func (m *Manager) drive(ctx context.Context, cfg Config) error {
	params, err := m.fetchParams(ctx)
	if err != nil {
		return err
	}
	triggers, err := online.Schedule(params, cfg.Start, cfg.End)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	m.mu.Lock()
	m.windowsTotal = len(triggers)
	m.mu.Unlock()

	history, _ := m.opts.Source.ExecutedPage(time.Time{}, cfg.Start, store.Pos{}, 0)
	m.logf("replay warm-up: %d historical records", len(history))
	if err := m.insert(ctx, history); err != nil {
		return fmt.Errorf("replay: warm-up insert: %w", err)
	}
	if err := m.train(ctx, cfg.Start); err != nil {
		return err
	}

	for _, tr := range triggers {
		if err := m.checkpoint(ctx); err != nil {
			return err
		}
		now, windowEnd := tr.InferStart, tr.InferEnd
		if err := m.infer(ctx, now, windowEnd); err != nil {
			return err
		}
		if err := m.pace(ctx, windowEnd.Sub(now), cfg.Speed); err != nil {
			return err
		}
		// The window has elapsed: its completed jobs become history the
		// next training window may draw on.
		completed, _ := m.opts.Source.ExecutedPage(now, windowEnd, store.Pos{}, 0)
		if err := m.insert(ctx, completed); err != nil {
			return fmt.Errorf("replay: window insert at %v: %w", windowEnd, err)
		}
		m.mu.Lock()
		m.simClock = windowEnd
		m.mu.Unlock()
		if windowEnd.Before(cfg.End) {
			if err := m.train(ctx, windowEnd); err != nil {
				return err
			}
		}
		m.mu.Lock()
		m.windowsDone++
		m.mu.Unlock()
	}
	return nil
}

// checkpoint blocks while the job is paused and surfaces cancellation.
func (m *Manager) checkpoint(ctx context.Context) error {
	for {
		m.mu.Lock()
		ch := m.resumeCh
		m.mu.Unlock()
		if ch == nil {
			return ctx.Err()
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// pace sleeps the wall-clock equivalent of a simulated duration at the
// job's speed, in slices so pause/cancel stay responsive.
func (m *Manager) pace(ctx context.Context, simDelta time.Duration, speed float64) error {
	wall := time.Duration(float64(simDelta) / speed)
	for wall > 0 {
		if err := m.checkpoint(ctx); err != nil {
			return err
		}
		d := wall
		if d > paceSlice {
			d = paceSlice
		}
		if err := clock.Sleep(ctx, m.opts.Clock, d); err != nil {
			return err
		}
		wall -= d
	}
	return m.checkpoint(ctx)
}

// infer classifies one window's submissions through POST /v1/classify
// and scores the predictions against ground truth, producing the same
// timeline event the offline simulator records.
func (m *Manager) infer(ctx context.Context, now, windowEnd time.Time) error {
	jobs, _ := m.opts.Source.SubmittedPage(now, windowEnd, store.Pos{}, 0)
	ev := simulate.Event{Time: now, Kind: simulate.EventInfer}
	if len(jobs) > 0 {
		preds, err := m.classify(ctx, jobs)
		if err != nil {
			return fmt.Errorf("replay: inference at %v: %w", now, err)
		}
		if len(preds) != len(jobs) {
			return fmt.Errorf("replay: inference at %v: %d predictions for %d jobs", now, len(preds), len(jobs))
		}
		labels := make([]job.Label, len(preds))
		for i, p := range preds {
			if labels[i], err = job.ParseLabel(p.Class); err != nil {
				return fmt.Errorf("replay: bad class %q from target: %w", p.Class, err)
			}
		}
		ev = simulate.ScoreWindow(now, labels, func(i int) (job.Label, bool) {
			if m.opts.Truth == nil {
				return job.Unknown, false
			}
			return m.opts.Truth(jobs[i]) // false: ground truth never materializes for this job
		})
	}
	m.mu.Lock()
	m.timeline.Events = append(m.timeline.Events, ev)
	m.predictions += ev.Classified
	m.mu.Unlock()
	m.logf("%s infer: %d classified (%d memory-bound, f1=%.3f over %d)",
		now.Format("2006-01-02"), ev.Classified, ev.MemoryBound, ev.F1, ev.Evaluated)
	return nil
}

// train triggers the Training Workflow at the simulated instant now.
func (m *Manager) train(ctx context.Context, now time.Time) error {
	var rep struct {
		LabeledJobs  int `json:"labeled_jobs"`
		ModelVersion int `json:"model_version"`
	}
	in := map[string]string{"now": now.UTC().Format(time.RFC3339)}
	if err := peer.JSON(ctx, m.opts.Client, m.call(http.MethodPost, "/v1/train"), in, &rep); err != nil {
		return fmt.Errorf("replay: training at %v: %w", now, err)
	}
	m.mu.Lock()
	m.trains++
	m.timeline.Events = append(m.timeline.Events, simulate.Event{
		Time: now, Kind: simulate.EventTrain,
		TrainedOn: rep.LabeledJobs, ModelVersion: rep.ModelVersion,
	})
	m.mu.Unlock()
	m.logf("%s train: v%d on %d jobs", now.Format("2006-01-02"), rep.ModelVersion, rep.LabeledJobs)
	return nil
}

// classify posts one window's job records to POST /v1/classify.
func (m *Manager) classify(ctx context.Context, jobs []*job.Job) (preds []core.Prediction, err error) {
	err = peer.JSON(ctx, m.opts.Client, m.call(http.MethodPost, "/v1/classify"), jobs, &preds)
	return preds, err
}

// insert replays records through POST /v1/jobs, DefaultBatchSize source
// records a request, checking the pause/cancel checkpoint between
// requests. The route is all-or-nothing, so a record the target would
// reject is held back here — logged and counted, not sent — and any
// answer but 200 fails the replay.
func (m *Manager) insert(ctx context.Context, jobs []*job.Job) error {
	for len(jobs) > 0 {
		if err := m.checkpoint(ctx); err != nil {
			return err
		}
		n := min(DefaultBatchSize, len(jobs))
		valid := make([]*job.Job, 0, n)
		for _, j := range jobs[:n] {
			if err := j.Validate(); err != nil {
				m.logf("record rejected: %v", err)
				continue
			}
			valid = append(valid, j)
		}
		var ack struct {
			Inserted int `json:"inserted"`
		}
		if len(valid) > 0 {
			if err := peer.JSON(ctx, m.opts.Client, m.call(http.MethodPost, "/v1/jobs"), valid, &ack); err != nil {
				return err
			}
		}
		m.mu.Lock()
		m.records += ack.Inserted
		m.rejected += n - len(valid)
		m.mu.Unlock()
		jobs = jobs[n:]
	}
	return nil
}

// fetchParams reads the (α, β) schedule from the target's model info.
func (m *Manager) fetchParams(ctx context.Context) (online.Params, error) {
	var info struct {
		AlphaDays int `json:"alpha_days"`
		BetaDays  int `json:"beta_days"`
	}
	if err := peer.JSON(ctx, m.opts.Client, m.call(http.MethodGet, "/v1/model"), nil, &info); err != nil {
		return online.Params{}, fmt.Errorf("replay: fetch model info: %w", err)
	}
	return online.Params{Alpha: info.AlphaDays, Beta: info.BetaDays}, nil
}

// maxResponseBytes bounds one answer of the target (the largest is a
// window's predictions).
const maxResponseBytes = 16 << 20

// call is one replay request, tagged with the replay client ID so the
// target's per-client rate accounting sees one logical client.
func (m *Manager) call(method, path string) peer.Call {
	return peer.Call{
		Method: method, URL: m.opts.BaseURL + path, Limit: maxResponseBytes,
		Header: http.Header{"X-Client-Id": {"replay"}},
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Log != nil {
		m.opts.Log.Printf("replay: "+format, args...)
	}
}
