package httpapi

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mcbound/internal/job"
	"mcbound/internal/peer"
	"mcbound/internal/store"
)

// TestCursorRoundTrip: every mintable position survives the codec
// bit-exact (property test over random times and IDs).
func TestCursorRoundTrip(t *testing.T) {
	prop := func(nanos int64, id string) bool {
		if id == "" {
			return true // the codec never mints empty IDs
		}
		pos := store.Pos{Time: time.Unix(0, nanos).UTC(), ID: id}
		dec, err := decodeCursor(encodeCursor(pos))
		return err == nil && dec.Time.Equal(pos.Time) && dec.ID == pos.ID
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCursorRoundTripPipes: IDs containing the internal separator must
// still round-trip (SplitN keeps the tail intact).
func TestCursorRoundTripPipes(t *testing.T) {
	pos := store.Pos{Time: time.Unix(0, 42).UTC(), ID: "a|b|c"}
	dec, err := decodeCursor(encodeCursor(pos))
	if err != nil || dec.ID != "a|b|c" {
		t.Fatalf("pipe id round-trip: pos=%+v err=%v", dec, err)
	}
}

func TestCursorDecodeGarbage(t *testing.T) {
	b64 := func(s string) string { return base64.RawURLEncoding.EncodeToString([]byte(s)) }
	long := make([]byte, maxCursorLen+1)
	for i := range long {
		long[i] = 'A'
	}
	cases := map[string]string{
		"not base64":    "%%%not-base64%%%",
		"wrong version": b64("c9|1|x"),
		"bad nanos":     b64("c1|abc|x"),
		"two parts":     b64("c1|5"),
		"empty id":      b64("c1|5|"),
		"oversized":     string(long),
		"version only":  b64("c1"),
	}
	for name, in := range cases {
		if _, err := decodeCursor(in); !errors.Is(err, ErrBadCursor) {
			t.Errorf("%s: want ErrBadCursor, got %v", name, err)
		}
	}
	if pos, err := decodeCursor(""); err != nil || !pos.IsZero() {
		t.Errorf("empty cursor: want zero position, got %+v err=%v", pos, err)
	}
}

// FuzzCursor: decodeCursor must never panic, and anything it accepts
// must survive a re-encode/decode round trip.
func FuzzCursor(f *testing.F) {
	f.Add("")
	f.Add("!!!not-base64!!!")
	f.Add(encodeCursor(store.Pos{Time: time.Unix(0, 1704067200000000000).UTC(), ID: "g00042"}))
	f.Add(encodeCursor(store.Pos{Time: time.Unix(0, -1).UTC(), ID: "a|b"}))
	f.Add(base64.RawURLEncoding.EncodeToString([]byte("c1|99|")))
	f.Fuzz(func(t *testing.T, s string) {
		pos, err := decodeCursor(s)
		if err != nil {
			if !errors.Is(err, ErrBadCursor) {
				t.Fatalf("non-sentinel decode error for %q: %v", s, err)
			}
			return
		}
		if s == "" {
			return
		}
		again, err := decodeCursor(encodeCursor(pos))
		if err != nil {
			t.Fatalf("accepted cursor %q failed round trip: %v", s, err)
		}
		if !again.Time.Equal(pos.Time) || again.ID != pos.ID {
			t.Fatalf("round trip drifted: %+v vs %+v", pos, again)
		}
	})
}

// classifyCursorWalk walks GET /v1/classify from the bare range URL (no
// cursor parameter on the first request, next_cursor on every later
// one), returning every job_id in page order.
func classifyCursorWalk(t *testing.T, base string, pageSize int, onPage func(page int)) []string {
	t.Helper()
	var ids []string
	u := fmt.Sprintf("%s/v1/classify?start=%s&end=%s&limit=%d",
		base, url.QueryEscape("2024-01-01T00:00:00Z"), url.QueryEscape("2024-03-01T00:00:00Z"), pageSize)
	cursor := ""
	for page := 0; ; page++ {
		var env envelope
		if code := getJSON(t, u+cursor, &env); code != http.StatusOK {
			t.Fatalf("page %d: status %d", page, code)
		}
		for _, it := range env.Items {
			ids = append(ids, it["job_id"].(string))
		}
		if !env.HasMore {
			if env.NextCursor != "" {
				t.Fatalf("next_cursor present without has_more")
			}
			return ids
		}
		if env.NextCursor == "" {
			t.Fatalf("has_more without next_cursor")
		}
		cursor = "&cursor=" + url.QueryEscape(env.NextCursor)
		if onPage != nil {
			onPage(page)
		}
		if page > 1000 {
			t.Fatal("cursor walk did not terminate")
		}
	}
}

// TestClassifyCursorWalk: the cursor walk visits every job in the range
// exactly once, in pages of the requested size.
func TestClassifyCursorWalk(t *testing.T) {
	srv, _ := testServer(t)
	ids := classifyCursorWalk(t, srv.URL, 23, nil)
	if len(ids) != 200 {
		t.Fatalf("walked %d jobs, want 200", len(ids))
	}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("job %s returned twice", id)
		}
		seen[id] = true
	}
}

// TestClassifyCursorStableUnderInsert: records inserted behind the
// cursor mid-walk never surface, and no original record is skipped or
// duplicated — the guarantee offset pagination cannot give.
func TestClassifyCursorStableUnderInsert(t *testing.T) {
	srv, st := testServer(t)
	mkJob := func(id string, submit time.Time) *job.Job {
		return &job.Job{
			ID: id, User: "u0002", Name: "lateapp", Environment: "gcc/12.2",
			CoresRequested: 4, NodesRequested: 1, NodesAllocated: 1,
			FreqRequested: job.FreqBoost,
			SubmitTime:    submit, StartTime: submit.Add(time.Minute), EndTime: submit.Add(time.Hour),
		}
	}
	early := time.Date(2024, 1, 1, 0, 30, 0, 0, time.UTC) // behind any page-2+ cursor
	inserted := 0
	ids := classifyCursorWalk(t, srv.URL, 20, func(page int) {
		// Between every two pages, insert one record behind the cursor
		// and one far ahead of the range.
		if err := st.Insert(
			mkJob(fmt.Sprintf("behind%02d", page), early.Add(time.Duration(page)*time.Second)),
			mkJob(fmt.Sprintf("ahead%02d", page), time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)),
		); err != nil {
			t.Fatal(err)
		}
		inserted++
	})
	if inserted < 5 {
		t.Fatalf("walk took only %d pages; concurrency scenario not exercised", inserted)
	}
	count := make(map[string]int)
	for _, id := range ids {
		count[id]++
	}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("s%04d", i)
		if count[id] != 1 {
			t.Fatalf("original job %s seen %d times, want exactly 1", id, count[id])
		}
	}
	// "behind" inserts happened after their position was already
	// consumed — the strictly-after contract keeps them invisible; the
	// "ahead" inserts fall outside the range and never match either.
	for id, n := range count {
		if n > 1 {
			t.Fatalf("job %s duplicated (%d times)", id, n)
		}
		if strings.HasPrefix(id, "behind") || strings.HasPrefix(id, "ahead") {
			t.Fatalf("mid-walk insert %s surfaced in the walk", id)
		}
	}
}

// TestCursorBadRequests: a garbage cursor answers 400 with the stable
// bad_cursor code.
func TestCursorBadRequests(t *testing.T) {
	srv, _ := testServer(t)
	u := srv.URL + "/v1/classify?start=2024-01-01T00:00:00Z&end=2024-02-01T00:00:00Z&cursor=@@@"
	var body struct {
		Code string `json:"code"`
	}
	if code := getJSON(t, u, &body); code != http.StatusBadRequest {
		t.Fatalf("garbage cursor: status %d, want 400", code)
	}
	if body.Code != "bad_cursor" {
		t.Fatalf("garbage cursor: code %q, want bad_cursor", body.Code)
	}
}

// TestRangeFirstPageWithoutCursor: a range request that names no cursor
// is the first cursor page — same document as ?cursor= — capped at
// defaultPageSize when it names no limit either.
func TestRangeFirstPageWithoutCursor(t *testing.T) {
	srv, st := testServer(t)
	const window = "?start=2024-01-01T00:00:00Z&end=2024-03-01T00:00:00Z"
	for _, tc := range []struct {
		name, path string
		items      int
		more       bool
	}{
		{"classify", "/v1/classify" + window + "&limit=7", 7, true},
		{"limit 0 is the default size", "/v1/classify" + window + "&limit=0", 200, false},
	} {
		var bare, explicit envelope
		if code := getJSON(t, srv.URL+tc.path, &bare); code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, code)
		}
		if code := getJSON(t, srv.URL+tc.path+"&cursor=", &explicit); code != http.StatusOK {
			t.Fatalf("%s with empty cursor: status %d", tc.name, code)
		}
		if len(bare.Items) != tc.items || bare.HasMore != tc.more || (bare.NextCursor != "") != tc.more {
			t.Errorf("%s: items=%d has_more=%v next_cursor=%q, want %d items, has_more=%v",
				tc.name, len(bare.Items), bare.HasMore, bare.NextCursor, tc.items, tc.more)
		}
		if bare.NextCursor != explicit.NextCursor || len(bare.Items) != len(explicit.Items) {
			t.Errorf("%s: bare URL and ?cursor= disagree: %q/%d vs %q/%d", tc.name,
				bare.NextCursor, len(bare.Items), explicit.NextCursor, len(explicit.Items))
		}
	}

	// Past defaultPageSize jobs in range, a request must not return them
	// all: not with neither cursor nor limit, and not by asking for them.
	submit := time.Date(2024, 2, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < defaultPageSize; i++ {
		at := submit.Add(time.Duration(i) * time.Second)
		if err := st.Insert(&job.Job{
			ID: fmt.Sprintf("bulk%04d", i), User: "u0003", Name: "memapp", Environment: "gcc/12.2",
			CoresRequested: 48, NodesRequested: 1, FreqRequested: job.FreqBoost, SubmitTime: at,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, limit := range []string{"", "&limit=2000000000"} {
		var env envelope
		if code := getJSON(t, srv.URL+"/v1/classify"+window+limit, &env); code != http.StatusOK {
			t.Fatalf("unbounded request %q: status %d", limit, code)
		}
		if len(env.Items) != defaultPageSize || !env.HasMore {
			t.Fatalf("unbounded request %q over %d jobs: items=%d has_more=%v, want one %d-item page and more",
				limit, 200+defaultPageSize, len(env.Items), env.HasMore, defaultPageSize)
		}
		last, err := st.Get(env.Items[defaultPageSize-1]["job_id"].(string))
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeCursor(store.Pos{Time: last.SubmitTime, ID: last.ID}); env.NextCursor != want {
			t.Errorf("unbounded request %q: next_cursor %q, want the page's last job %q", limit, env.NextCursor, want)
		}
	}
}

// TestRangeRejectsBadPaging: offset pagination is gone — the parameter
// answers a typed 400 that points at cursor, whatever it is combined
// with — and a malformed limit is a 400 too.
func TestRangeRejectsBadPaging(t *testing.T) {
	srv, _ := testServer(t)
	const window = "?start=2024-01-10T00:00:00Z&end=2024-01-12T00:00:00Z"
	for _, q := range []string{
		"/v1/classify" + window + "&offset=0",
		"/v1/classify" + window + "&limit=5&offset=5",
		"/v1/classify" + window + "&cursor=&offset=1",
		"/v1/classify" + window + "&offset=100",
		"/v1/classify" + window + "&limit=-1",
		"/v1/classify" + window + "&limit=x",
	} {
		var e peer.ErrorBody
		if code := getJSON(t, srv.URL+q, &e); code != http.StatusBadRequest || e.Code != "bad_request" {
			t.Errorf("%s: status %d code %q, want 400 bad_request", q, code, e.Code)
		}
		if strings.Contains(q, "offset") && !strings.Contains(e.Error, "cursor") {
			t.Errorf("%s: error %q does not point the caller at cursor", q, e.Error)
		}
	}
}
