package job

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// FuzzAppendJSON: AppendJSON is json.Marshal, byte for byte and error for
// error, on every record. The seeds after the first two each sit outside
// the one-pass subset, so the fallback answers them.
func FuzzAppendJSON(f *testing.F) {
	const feb1 = 1706745600 // 2024-02-01T00:00:00Z
	plain := func(id, user, name, env string, sec int64, offset int, perf, tofu float64) {
		f.Add(id, user, name, env, 48, 1, int32(2000), sec, int64(123456789), offset, perf, tofu, int8(1))
	}
	plain("fj1", "u0001", "cfd_prod_01", "gcc/12.2", feb1, 0, 1.5e14, 4096)
	plain("", "", "", "", 0, 0, math.Copysign(0, -1), 0) // -0, zero strings, the Unix epoch
	// Strings encoding/json escapes: the HTML-safe three, the quote, the
	// backslash, control bytes, non-ASCII, invalid UTF-8, U+2028.
	for _, s := range []string{"a<b", "a>b", "a&b", `a"b`, `a\b`, "a\nb", "a\x00b", "é", "\xff", " "} {
		plain("fj1", "u1", s, "gcc", feb1, 0, 1, 0)
	}
	// Times: a non-zero offset (marshals), and what Time.MarshalJSON
	// rejects — a five-digit year, a negative year, a 24-hour offset.
	plain("fj1", "u1", "app", "gcc", feb1, 9*3600, 1, 0)
	plain("fj1", "u1", "app", "gcc", 253402300800, 0, 1, 0)
	plain("fj1", "u1", "app", "gcc", -62135596800-400*86400, 0, 1, 0)
	plain("fj1", "u1", "app", "gcc", feb1, 24*3600, 1, 0)
	// Non-finite floats; then both exponent cut-offs.
	plain("fj1", "u1", "app", "gcc", feb1, 0, math.NaN(), 0)
	plain("fj1", "u1", "app", "gcc", feb1, 0, math.Inf(1), 0)
	plain("fj1", "u1", "app", "gcc", feb1, 0, 1, math.Inf(-1))
	plain("fj1", "u1", "app", "gcc", feb1, 0, 1e-7, 9.99e20)
	plain("fj1", "u1", "app", "gcc", feb1, 0, 1e21, 1e-6)
	f.Fuzz(func(t *testing.T, id, user, name, env string, cores, nodes int, freq int32,
		sec, nsec int64, offset int, perf, tofu float64, label int8) {
		submit := time.Unix(sec, nsec).In(time.FixedZone("", offset))
		j := &Job{
			ID: id, User: user, Name: name, Environment: env,
			CoresRequested: cores, NodesRequested: nodes, FreqRequested: Frequency(freq),
			SubmitTime: submit, EndTime: submit.Add(time.Duration(nsec)), // StartTime stays zero
			NodesAllocated: nodes, ExitCode: -cores,
			Counters:  PerfCounters{Perf2: perf, Perf3: -perf, Perf4: perf * 1e-9, Perf5: perf * 1e25, TofuBytes: tofu},
			TrueLabel: Label(label),
		}
		want, wantErr := json.Marshal(j)
		got, gotErr := AppendJSON([]byte("prefix"), j)
		if errString(gotErr) != errString(wantErr) {
			t.Fatalf("error %q, json.Marshal says %q", errString(gotErr), errString(wantErr))
		}
		if wantErr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendJSON wrote %s, json.Marshal gives %s", got[len("prefix"):], want)
		}
	})
}
