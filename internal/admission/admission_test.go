package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcbound/internal/clock"
)

// checkIdentity asserts the exact accounting equation the bench and the
// overload stress test also enforce.
func checkIdentity(t *testing.T, s Stats) {
	t.Helper()
	if got := s.Admitted + s.Shed(); got != s.Offered {
		t.Fatalf("accounting broken: admitted %d + shed %d != offered %d (%+v)",
			s.Admitted, s.Shed(), s.Offered, s)
	}
}

func TestAdmitFastPath(t *testing.T) {
	c := NewController(Config{MaxConcurrency: 2})
	tk, err := c.Admit(context.Background(), Interactive, "")
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if got := c.Inflight(); got != 1 {
		t.Fatalf("inflight = %d, want 1", got)
	}
	tk.Release()
	tk.Release() // double release must be a no-op
	if got := c.Inflight(); got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
	s := c.Stats()
	if s.Offered != 1 || s.Admitted != 1 {
		t.Fatalf("stats = %+v, want offered=admitted=1", s)
	}
	checkIdentity(t, s)
}

func TestCriticalBypassesEverything(t *testing.T) {
	c := NewController(Config{MaxConcurrency: 1, QueueDepth: 1})
	// Saturate the only slot.
	held, err := c.Admit(context.Background(), Interactive, "")
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	defer held.Release()
	// Critical still admits instantly and holds no slot.
	tk, err := c.Admit(context.Background(), Critical, "")
	if err != nil {
		t.Fatalf("critical Admit: %v", err)
	}
	tk.Release()
	s := c.Stats()
	if s.Bypassed != 1 {
		t.Fatalf("bypassed = %d, want 1", s.Bypassed)
	}
	if s.Offered != 1 {
		t.Fatalf("offered = %d, want 1 (critical must not count)", s.Offered)
	}
	if got := c.Inflight(); got != 1 {
		t.Fatalf("inflight = %d, want 1 (critical holds no slot)", got)
	}
}

func TestQueueGrantsInPriorityOrder(t *testing.T) {
	c := NewController(Config{MaxConcurrency: 1, QueueDepth: 8})
	held, err := c.Admit(context.Background(), Interactive, "")
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}

	type result struct {
		pri Priority
		err error
	}
	order := make(chan result, 2)
	var wg sync.WaitGroup
	start := func(pri Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := c.Admit(context.Background(), pri, "")
			order <- result{pri, err}
			if err == nil {
				tk.Release()
			}
		}()
	}
	start(Batch)
	// Let the batch waiter enqueue first, then add an interactive one.
	waitFor(t, func() bool { return c.QueueLen() == 1 })
	start(Interactive)
	waitFor(t, func() bool { return c.QueueLen() == 2 })

	held.Release()
	first := <-order
	second := <-order
	wg.Wait()
	if first.err != nil || second.err != nil {
		t.Fatalf("waiters failed: %v / %v", first.err, second.err)
	}
	if first.pri != Interactive || second.pri != Batch {
		t.Fatalf("grant order = %v, %v; want interactive before batch", first.pri, second.pri)
	}
	checkIdentity(t, c.Stats())
}

func TestQueueOverflowShedsLIFOLowestTier(t *testing.T) {
	c := NewController(Config{MaxConcurrency: 1, QueueDepth: 2})
	held, err := c.Admit(context.Background(), Interactive, "")
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}

	errs := make(chan error, 3)
	admit := func(pri Priority) {
		go func() {
			tk, err := c.Admit(context.Background(), pri, "")
			errs <- err
			if err == nil {
				tk.Release()
			}
		}()
	}
	admit(Batch)
	waitFor(t, func() bool { return c.QueueLen() == 1 })
	admit(Batch)
	waitFor(t, func() bool { return c.QueueLen() == 2 })

	// Queue full: an interactive incomer displaces the newest batch waiter.
	admit(Interactive)
	shedErr := <-errs
	if !errors.Is(shedErr, ErrQueueFull) {
		t.Fatalf("displaced waiter got %v, want ErrQueueFull", shedErr)
	}
	if after, ok := RetryAfter(shedErr); !ok || after < time.Second {
		t.Fatalf("RetryAfter = %v, %v; want >= 1s hint", after, ok)
	}

	// Queue full again: a batch incomer has nobody below it — it sheds.
	tk, err := c.Admit(context.Background(), Batch, "")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("incomer got %v, want ErrQueueFull", err)
	}
	if tk != nil {
		t.Fatal("shed request returned a ticket")
	}

	held.Release()
	if err := <-errs; err != nil {
		t.Fatalf("surviving waiter: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("surviving waiter: %v", err)
	}
	s := c.Stats()
	if s.ShedQueueFull != 2 {
		t.Fatalf("shed(queue_full) = %d, want 2", s.ShedQueueFull)
	}
	checkIdentity(t, s)
}

func TestEmptyTierKeepsReservedQueueSeat(t *testing.T) {
	// A background request arriving at a queue packed with interactive
	// waiters cannot displace anyone, but must not be locked out either:
	// its empty tier grants one seat past the cap.
	c := NewController(Config{MaxConcurrency: 1, QueueDepth: 2})
	held, err := c.Admit(context.Background(), Interactive, "")
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	errs := make(chan error, 3)
	admit := func(pri Priority) {
		go func() {
			tk, err := c.Admit(context.Background(), pri, "")
			errs <- err
			if err == nil {
				tk.Release()
			}
		}()
	}
	admit(Interactive)
	waitFor(t, func() bool { return c.QueueLen() == 1 })
	admit(Interactive)
	waitFor(t, func() bool { return c.QueueLen() == 2 })

	// Queue full of interactive waiters: the background incomer takes
	// its tier's reserved seat instead of shedding.
	admit(Background)
	waitFor(t, func() bool { return c.QueueLen() == 3 })

	// A second background incomer has no reserved seat left and nobody
	// below it: it sheds.
	_, err = c.Admit(context.Background(), Background, "")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second background incomer got %v, want ErrQueueFull", err)
	}

	// The parked background waiter is displacement-protected: a new
	// interactive incomer at the full queue cannot evict it (it is its
	// tier's oldest) and sheds itself instead.
	_, err = c.Admit(context.Background(), Interactive, "")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("interactive incomer got %v, want ErrQueueFull", err)
	}
	if got := c.QueueLen(); got != 3 {
		t.Fatalf("queue = %d, want 3 (background waiter still parked)", got)
	}

	held.Release()
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued waiter %d: %v", i, err)
		}
	}
	checkIdentity(t, c.Stats())
}

func TestDoomedRequestShedsUpFront(t *testing.T) {
	c := NewController(Config{MaxConcurrency: 2})
	// Warm the p95 estimate: one full window of 50ms services.
	for i := 0; i < 64; i++ {
		c.p95.Observe(50 * time.Millisecond)
	}
	if got := c.P95(); got != 50*time.Millisecond {
		t.Fatalf("p95 = %v, want 50ms", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := c.Admit(ctx, Interactive, "")
	if !errors.Is(err, ErrDoomed) {
		t.Fatalf("got %v, want ErrDoomed", err)
	}
	if _, ok := RetryAfter(err); !ok {
		t.Fatal("doomed rejection missing Retry-After hint")
	}

	// A deadline comfortably above p95 admits.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	tk, err := c.Admit(ctx2, Interactive, "")
	if err != nil {
		t.Fatalf("got %v, want admit", err)
	}
	tk.Release()
	s := c.Stats()
	if s.ShedDoomed != 1 || s.Admitted != 1 {
		t.Fatalf("stats = %+v, want doomed=1 admitted=1", s)
	}
	checkIdentity(t, s)
}

func TestDeadlineExpiryInQueueCountsAsDoomed(t *testing.T) {
	c := NewController(Config{MaxConcurrency: 1, QueueDepth: 4})
	held, err := c.Admit(context.Background(), Interactive, "")
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	defer held.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = c.Admit(ctx, Interactive, "")
	if !errors.Is(err, ErrDoomed) {
		t.Fatalf("got %v, want ErrDoomed", err)
	}
	s := c.Stats()
	if s.ShedDoomed != 1 {
		t.Fatalf("shed(doomed) = %d, want 1", s.ShedDoomed)
	}
	checkIdentity(t, s)
}

// The same on virtual time: a deadline set on the controller's clock
// expires in the queue when that clock is advanced past it — the wall
// clock, an hour behind, plays no part — and reads as doomed, not as a
// client that went away.
func TestDeadlineExpiryInQueueOnVirtualTime(t *testing.T) {
	clk := clock.NewManual(time.Now().Add(time.Hour))
	c := NewController(Config{MaxConcurrency: 1, QueueDepth: 4, Clock: clk})
	held, err := c.Admit(context.Background(), Interactive, "")
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	defer held.Release()

	ctx, cancel := clock.WithTimeout(context.Background(), clk, 2*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, Interactive, "")
		done <- err
	}()
	waitFor(t, func() bool { return c.QueueLen() == 1 })
	clk.Advance(2*time.Second - time.Nanosecond)
	select {
	case err := <-done:
		t.Fatalf("left the queue before its deadline: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Nanosecond)
	if err := <-done; !errors.Is(err, ErrDoomed) {
		t.Fatalf("got %v, want ErrDoomed", err)
	}
	s := c.Stats()
	if s.ShedDoomed != 1 || s.ShedCanceled != 0 {
		t.Fatalf("shed doomed %d, canceled %d; want 1, 0", s.ShedDoomed, s.ShedCanceled)
	}
	if s.Offered != s.Admitted+s.ShedQueueFull+s.ShedDoomed+s.ShedCanceled {
		t.Fatalf("offered %d != admitted %d + queue full %d + doomed %d + canceled %d",
			s.Offered, s.Admitted, s.ShedQueueFull, s.ShedDoomed, s.ShedCanceled)
	}
}

func TestCancelWhileQueuedCountsAsCanceled(t *testing.T) {
	c := NewController(Config{MaxConcurrency: 1, QueueDepth: 4})
	held, err := c.Admit(context.Background(), Interactive, "")
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	defer held.Release()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, Interactive, "")
		done <- err
	}()
	waitFor(t, func() bool { return c.QueueLen() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	s := c.Stats()
	if s.ShedCanceled != 1 {
		t.Fatalf("shed(canceled) = %d, want 1", s.ShedCanceled)
	}
	checkIdentity(t, s)
}

// TestCancelGrantRaceReturnsTicketHoldingOneSlot: a request granted while
// its context ends must come back as a ticket holding exactly one slot
// (or the slot leaks, or is freed twice). The race is forced, not
// awaited: a parked background waiter at its cap keeps the queue
// non-empty, so an Admit with an already-canceled context is queued and
// granted inside the same call and finds both its grant and ctx.Done()
// ready — select then takes the ctx.Done() arm (the racing path) about
// every other round.
func TestCancelGrantRaceReturnsTicketHoldingOneSlot(t *testing.T) {
	clk := clock.NewManual(time.Unix(1700000000, 0))
	c := NewController(Config{MaxConcurrency: 4, QueueDepth: 4, Clock: clk})
	bg, err := c.Admit(context.Background(), Background, "")
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	parkedCtx, unpark := context.WithCancel(context.Background())
	parked := make(chan error, 1)
	go func() {
		_, err := c.Admit(parkedCtx, Background, "")
		parked <- err
	}()
	waitFor(t, func() bool { return c.QueueLen() == 1 })

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 64; i++ {
		tk, err := c.Admit(gone, Interactive, "")
		if err != nil {
			t.Fatalf("round %d: a grantable request was shed: %v", i, err)
		}
		if got := c.Inflight(); got != 2 {
			t.Fatalf("round %d: inflight %d while held, want 2 (the background slot and this one)", i, got)
		}
		tk.Release()
		if got := c.Inflight(); got != 1 {
			t.Fatalf("round %d: inflight %d after release, want 1", i, got)
		}
	}
	if s := c.Stats(); s.Admitted != 1+64 || s.Shed() != 0 {
		t.Fatalf("stats %+v, want 65 admitted and nothing shed", s)
	}
	unpark()
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("parked waiter: %v, want context.Canceled", err)
	}
	bg.Release()
	checkIdentity(t, c.Stats())
}

func TestBackgroundCappedAtQuarterOfLimit(t *testing.T) {
	// Limit 4 → backgroundCap 1: a second retrain queues even with
	// three free slots, and interactive traffic flows past it.
	c := NewController(Config{MaxConcurrency: 4, QueueDepth: 8})

	bg1, err := c.Admit(context.Background(), Background, "")
	if err != nil {
		t.Fatalf("background Admit: %v", err)
	}
	bgDone := make(chan error, 1)
	go func() {
		tk, err := c.Admit(context.Background(), Background, "")
		bgDone <- err
		if err == nil {
			tk.Release()
		}
	}()
	waitFor(t, func() bool { return c.QueueLen() == 1 })

	// The three remaining slots are all available to interactive
	// traffic (no slot is reserved: background already holds its share).
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := c.Admit(context.Background(), Interactive, "")
		if err != nil {
			t.Fatalf("interactive Admit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if got := c.Inflight(); got != 4 {
		t.Fatalf("inflight = %d, want 4", got)
	}

	// Releasing the running retrain hands its slot to the queued one.
	bg1.Release()
	if err := <-bgDone; err != nil {
		t.Fatalf("queued background: %v", err)
	}
	for _, tk := range tickets {
		tk.Release()
	}
	checkIdentity(t, c.Stats())
}

func TestBackgroundReservedSlotPreventsStarvation(t *testing.T) {
	// With every slot held by inference and both a background and an
	// interactive request waiting, the first freed slot goes to the
	// retrain: one slot is reserved for it while it waits below its cap.
	c := NewController(Config{MaxConcurrency: 4, QueueDepth: 8})
	var held []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := c.Admit(context.Background(), Interactive, "")
		if err != nil {
			t.Fatalf("interactive Admit %d: %v", i, err)
		}
		held = append(held, tk)
	}

	type result struct {
		pri Priority
		err error
	}
	order := make(chan result, 2)
	start := func(pri Priority) {
		go func() {
			tk, err := c.Admit(context.Background(), pri, "")
			order <- result{pri, err}
			if err == nil {
				tk.Release()
			}
		}()
	}
	start(Background)
	waitFor(t, func() bool { return c.QueueLen() == 1 })
	start(Interactive)
	waitFor(t, func() bool { return c.QueueLen() == 2 })

	held[0].Release()
	first := <-order
	if first.err != nil {
		t.Fatalf("first grant failed: %v", first.err)
	}
	if first.pri != Background {
		t.Fatalf("first grant = %v, want background (reserved slot)", first.pri)
	}
	held[1].Release()
	second := <-order
	if second.err != nil || second.pri != Interactive {
		t.Fatalf("second grant = %v (%v), want interactive", second.pri, second.err)
	}
	held[2].Release()
	held[3].Release()
	checkIdentity(t, c.Stats())
}

func TestQueueWaitHookFires(t *testing.T) {
	var waits atomic.Int64
	c := NewController(Config{MaxConcurrency: 1, QueueDepth: 4})
	c.SetQueueWaitHook(func(s float64) {
		if s < 0 {
			t.Errorf("negative queue wait %v", s)
		}
		waits.Add(1)
	})
	held, err := c.Admit(context.Background(), Interactive, "")
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		tk, err := c.Admit(context.Background(), Interactive, "")
		done <- err
		if err == nil {
			tk.Release()
		}
	}()
	waitFor(t, func() bool { return c.QueueLen() == 1 })
	held.Release()
	if err := <-done; err != nil {
		t.Fatalf("queued Admit: %v", err)
	}
	if waits.Load() != 1 {
		t.Fatalf("queue-wait hook fired %d times, want 1", waits.Load())
	}
}

// TestAccountingIdentityUnderStress hammers the controller from many
// goroutines with mixed tiers, deadlines and cancels, then checks the
// books balance exactly and that the mix reached every shed path: a
// full queue, a deadline, a cancel. Run with -race.
func TestAccountingIdentityUnderStress(t *testing.T) {
	c := NewController(Config{MaxConcurrency: 4, QueueDepth: 8})
	const (
		workers = 16
		perW    = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				pri := []Priority{Background, Batch, Interactive, Critical}[(w+i)%4]
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch i % 3 {
				case 1:
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i%20)*time.Millisecond)
				case 2:
					ctx, cancel = context.WithCancel(ctx)
					if i%6 == 2 {
						go func() { time.Sleep(time.Millisecond); cancel() }()
					}
				}
				tk, err := c.Admit(ctx, pri, "")
				if err == nil {
					time.Sleep(time.Duration(i%4) * 100 * time.Microsecond)
					tk.Release()
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	wantOffered := int64(workers * perW * 3 / 4) // critical is bypassed
	if s.Offered != wantOffered {
		t.Fatalf("offered = %d, want %d", s.Offered, wantOffered)
	}
	if s.Bypassed != int64(workers*perW/4) {
		t.Fatalf("bypassed = %d, want %d", s.Bypassed, workers*perW/4)
	}
	checkIdentity(t, s)
	t.Logf("offered=%d admitted=%d shed queue_full=%d doomed=%d canceled=%d",
		s.Offered, s.Admitted, s.ShedQueueFull, s.ShedDoomed, s.ShedCanceled)
	if s.ShedQueueFull == 0 || s.ShedDoomed == 0 || s.ShedCanceled == 0 {
		t.Fatalf("shed queue_full=%d doomed=%d canceled=%d, want each > 0",
			s.ShedQueueFull, s.ShedDoomed, s.ShedCanceled)
	}
	if got := c.Inflight(); got != 0 {
		t.Fatalf("inflight = %d after quiesce, want 0", got)
	}
	if got := c.QueueLen(); got != 0 {
		t.Fatalf("queue = %d after quiesce, want 0", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
