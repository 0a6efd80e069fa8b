package admission

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseTimeout(t *testing.T) {
	const (
		def = 2 * time.Second
		max = 30 * time.Second
	)
	cases := []struct {
		in      string
		want    time.Duration
		wantErr bool
	}{
		{"", def, false},
		{"250", 250 * time.Millisecond, false}, // bare integer = ms
		{"1", time.Millisecond, false},
		{"250ms", 250 * time.Millisecond, false},
		{"2s", 2 * time.Second, false},
		{"1m", max, false},            // clamped to max
		{"9223372036854", max, false}, // huge ms count clamps, no overflow
		{"0", 0, true},
		{"-5", 0, true},
		{"-5ms", 0, true},
		{"0s", 0, true},
		{"soon", 0, true},
		{"1.5", 0, true}, // not an integer, not a duration
		{"1.5s", 1500 * time.Millisecond, false},
		{strings.Repeat("1", 100), 0, true}, // oversized header
	}
	for _, tc := range cases {
		got, err := ParseTimeout(tc.in, def, max)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseTimeout(%q) = %v, want error", tc.in, got)
			} else if !errors.Is(err, ErrBadTimeout) {
				t.Errorf("ParseTimeout(%q) error %v does not wrap ErrBadTimeout", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTimeout(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseTimeout(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseTimeoutClampsDefault(t *testing.T) {
	// A default outside [MinTimeout, max] is clamped too.
	if got, _ := ParseTimeout("", time.Minute, time.Second); got != time.Second {
		t.Fatalf("got %v, want 1s", got)
	}
	if got, _ := ParseTimeout("", 0, time.Second); got != MinTimeout {
		t.Fatalf("got %v, want %v", got, MinTimeout)
	}
}

func TestParseClientID(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", ""},
		{"tenant-7", "tenant-7"},
		{"svc.batch_loader", "svc.batch_loader"},
		{"has space", ""},
		{"semi;colon", ""},
		{"ünïcode", ""},
		{strings.Repeat("a", 128), strings.Repeat("a", 128)},
		{strings.Repeat("a", 129), ""},
	}
	for _, tc := range cases {
		if got := ParseClientID(tc.in); got != tc.want {
			t.Errorf("ParseClientID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestClientKey(t *testing.T) {
	cases := []struct {
		name, header, remote, want string
	}{
		{"valid id wins over the address", "tenant-7", "10.0.0.1:5000", "tenant-7"},
		{"invalid id falls back to the host", "has space", "10.0.0.1:5000", "10.0.0.1"},
		{"host:port without an id", "", "[::1]:5000", "::1"},
		{"bare RemoteAddr", "", "pipe", "pipe"},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.RemoteAddr = tc.remote
		if tc.header != "" {
			r.Header.Set(ClientIDHeader, tc.header)
		}
		if got := ClientKey(r); got != tc.want {
			t.Errorf("%s: ClientKey = %q, want %q", tc.name, got, tc.want)
		}
	}
}
