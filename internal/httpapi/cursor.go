package httpapi

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mcbound/internal/store"
)

// The v1 range read (GET /v1/classify) paginates with opaque, resumable
// cursors: a cursor names the (SubmitTime, id) key of the last record a
// page returned, so the next page starts strictly after it regardless
// of what was inserted meanwhile. Offset pagination re-scans from zero
// and silently skews under concurrent inserts; cursors do neither, so
// they are the only scheme.
//
// Wire format (inside the opaque base64url): "c1|<unixnano>|<id>".
// The version prefix lets the codec evolve without breaking clients
// that treat cursors as the opaque strings they are documented to be.

// ErrBadCursor is the sentinel wrapped by cursor parse failures; the
// HTTP layer maps it to 400 with the stable code "bad_cursor".
var ErrBadCursor = errors.New("invalid cursor")

const cursorVersion = "c1"

// maxCursorLen bounds decode input: a hostile query parameter cannot
// make the codec allocate. Job IDs are short; 512 bytes of base64 is
// far beyond any cursor this codec mints.
const maxCursorLen = 512

// encodeCursor mints the opaque cursor naming the given keyset
// position.
func encodeCursor(pos store.Pos) string {
	raw := fmt.Sprintf("%s|%d|%s", cursorVersion, pos.Time.UnixNano(), pos.ID)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

// decodeCursor parses an opaque cursor back into a keyset position.
// The empty string is the documented "from the beginning" cursor and
// decodes to the zero position.
func decodeCursor(s string) (store.Pos, error) {
	if s == "" {
		return store.Pos{}, nil
	}
	if len(s) > maxCursorLen {
		return store.Pos{}, fmt.Errorf("%w: %d bytes", ErrBadCursor, len(s))
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return store.Pos{}, fmt.Errorf("%w: %v", ErrBadCursor, err)
	}
	parts := strings.SplitN(string(raw), "|", 3)
	if len(parts) != 3 || parts[0] != cursorVersion {
		return store.Pos{}, fmt.Errorf("%w: malformed payload", ErrBadCursor)
	}
	nanos, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return store.Pos{}, fmt.Errorf("%w: bad position time", ErrBadCursor)
	}
	if parts[2] == "" {
		return store.Pos{}, fmt.Errorf("%w: empty position id", ErrBadCursor)
	}
	return store.Pos{Time: time.Unix(0, nanos).UTC(), ID: parts[2]}, nil
}

// cursorEnvelope is the response of the range read.
// NextCursor is present exactly when HasMore is true; passing it back
// as ?cursor= resumes the scan after the last returned record.
type cursorEnvelope struct {
	Items      any    `json:"items"`
	NextCursor string `json:"next_cursor,omitempty"`
	HasMore    bool   `json:"has_more"`
}

// defaultPageSize is the size of a page when the client sends no limit,
// and the most a limit can ask for: one request classifies at most this
// many jobs, and a reader (mcbound infer) bounds its read on it.
const defaultPageSize = 1000

// pageParams parses the pagination query of the range read: the opaque
// position (absent or empty = from the beginning) and the page size
// (limit; absent, 0 or above defaultPageSize = defaultPageSize).
func pageParams(r *http.Request) (after store.Pos, limit int, err error) {
	q := r.URL.Query()
	if q.Has("offset") {
		return after, 0, badRequest(fmt.Errorf("offset pagination is gone: pass the previous page's next_cursor as cursor"))
	}
	if v := q.Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 0 {
			return after, 0, badRequest(fmt.Errorf("bad limit %q: non-negative integer required", v))
		}
	}
	if limit == 0 || limit > defaultPageSize {
		limit = defaultPageSize
	}
	after, err = decodeCursor(q.Get("cursor"))
	return after, limit, err
}
