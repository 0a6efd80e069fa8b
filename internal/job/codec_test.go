package job

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// stdArray is the reference UnmarshalArray must be indistinguishable
// from on every input (Unmarshal's is json.Unmarshal itself).
func stdArray(data []byte) ([]*Job, error) {
	var jobs []*Job
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&jobs)
	return jobs, err
}

// sameJobs is reflect.DeepEqual with every counter also compared by its
// bits: DeepEqual compares floats with ==, to which -0 and +0 are equal,
// so a sign-of-zero slip in a float path would pass it.
func sameJobs(a, b []*Job) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for i, j := range a {
		if j != nil && counterBits(j.Counters) != counterBits(b[i].Counters) {
			return false
		}
	}
	return true
}

func counterBits(c PerfCounters) [5]uint64 {
	return [5]uint64{math.Float64bits(c.Perf2), math.Float64bits(c.Perf3), math.Float64bits(c.Perf4),
		math.Float64bits(c.Perf5), math.Float64bits(c.TofuBytes)}
}

func TestSameJobsTellsTheSignOfZero(t *testing.T) {
	pos, neg := completedJob(), completedJob()
	pos.Counters.Perf3, neg.Counters.Perf3 = 0, math.Copysign(0, -1)
	if !reflect.DeepEqual(pos, neg) {
		t.Fatal("reflect.DeepEqual tells -0 from +0; sameJobs has nothing to add")
	}
	same := *pos
	if sameJobs([]*Job{pos}, []*Job{neg}) || !sameJobs([]*Job{pos, nil}, []*Job{&same, nil}) {
		t.Fatal("sameJobs does not compare counters by their bits")
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// completedJob is the benchmark's second body shape: a finished record
// with counters and a characterizer label.
func completedJob() *Job {
	j := validJob()
	j.ExitCode = 1
	j.Counters = PerfCounters{Perf2: 1.5e14, Perf3: 3e12, Perf4: 2.25e11, Perf5: 7e10, TofuBytes: 4096}
	j.TrueLabel = ComputeBound
	return j
}

// submissionJob is the first: submission-time fields only, the rest
// marshaled at their zero values.
func submissionJob() *Job {
	j := validJob()
	j.StartTime, j.EndTime, j.NodesAllocated = time.Time{}, time.Time{}, 0
	return j
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recordSeeds are single records; the array fuzzer wraps each in
// brackets. Most are outside the strict subset on purpose: they pin
// that the fallback, not the parser, answers them.
var recordSeeds = []string{
	`{}`,
	`{"id":"a"}`,
	"{ \"user\" : \"u1\" ,\n\t\"id\":\"a\" , \"counters\" : { \"perf5\" : 2 , \"perf2\":1e3 }\r\n, \"cores_req\"\t:\t48 }",
	`{"submit":"2024-02-01T12:00:00+09:00","end":"2024-02-01T12:00:00.123456789Z","id":"tz"}`,
	`{"id":"a<b"}`, `{"id":"a\u003cb"}`, `{"id":"say \"hi\""}`, `{"i\u0064":"a"}`,
	`{"name":"流体解析"}`, "{\"name\":\"bad\xffutf8\"}", "{\"name\":\"tab\there\"}", `{"name":"del` + "\x7f" + `"}`,
	`{"id":"a","id":"b"}`, `{"ID":"a"}`, `{"Id":"a","id":"b"}`, `{"unknown":1,"id":"a"}`,
	`{"counters":{"perf2":1,"perf2":2}}`, `{"counters":{"PERF2":1}}`, `{"counters":null}`, `{"counters":[]}`,
	`{"cores_req":1e3}`, `{"cores_req":4.0}`, `{"cores_req":01}`, `{"cores_req":-0}`, `{"cores_req":+1}`, `{"cores_req":-}`,
	`{"cores_req":9223372036854775807}`, `{"cores_req":9223372036854775808}`, `{"cores_req":"48"}`, `{"cores_req":null}`, `{"cores_req":true}`,
	`{"freq_req":2147483647}`, `{"freq_req":2147483648}`, `{"true_label":127}`, `{"true_label":128}`, `{"true_label":-129}`,
	`{"counters":{"perf2":NaN}}`, `{"counters":{"perf2":1e999}}`, `{"counters":{"perf2":-0.0,"perf3":1E-400,"perf4":0.1e+2}}`, `{"counters":{"perf2":1.}}`,
	`{"submit":"0001-01-01T00:00:00Z"}`, `{"submit":"2024-02-30T00:00:00Z"}`, `{"submit":"2024-02-01 12:00:00"}`, `{"submit":1706788800}`, `{"submit":null}`,
	`{"id":null}`, `{"id":"a",}`, `{"id" "a"}`, `{"id":"a"`, `{"id":"a`, `{`, ``, ` `, `null`, `nul`, `"id"`, `12`,
	`{"id":"a"} x`, `{"id":"a"}{"id":"b"}`, "{\"id\":\"a\"}\n",
	// The edges of the in-place fast paths. Dates: leap days of a leap
	// year, a common year, a century and a fourth century.
	`{"submit":"2024-02-29T00:00:00Z"}`, `{"submit":"2023-02-29T00:00:00Z"}`,
	`{"submit":"1900-02-29T00:00:00Z"}`, `{"submit":"2000-02-29T00:00:00Z"}`,
	`{"submit":"2024-02-01T24:00:00Z"}`, `{"submit":"2024-02-01T12:60:00Z"}`, `{"submit":"2024-02-01T12:00:60Z"}`,
	`{"submit":"2024-02-01t12:00:00Z"}`, `{"submit":"2024-13-01T12:00:00Z"}`, `{"submit":"2024-04-31T12:00:00Z"}`,
	`{"submit":"2024-02-01T12:00:00.5Z"}`, `{"start":"2024-02-01T12:00:00.123456789Z"}`,
	`{"end":"2024-02-01T12:00:00.1234567891Z"}`, `{"submit":"2024-02-01T12:00:00.Z"}`,
	`{"submit":"2024-02-01T12:00:00z"}`, `{"submit":"0000-01-01T00:00:00Z"}`, `{"submit":"2O24-02-01T12:00:00Z"}`,
	// Integers: 18 digits, 19, 2^64+1 (a 64-bit accumulator wraps it to
	// 1), ±2^63, and the narrow fields at ±2^31 and ±128.
	`{"cores_req":123456789012345678}`, `{"nodes_req":-123456789012345678}`, `{"cores_req":1234567890123456789}`,
	`{"cores_req":18446744073709551617}`,
	`{"nodes_alloc":-9223372036854775808}`, `{"exit":-9223372036854775809}`,
	`{"freq_req":-2147483648}`, `{"freq_req":-2147483649}`, `{"true_label":-128}`, `{"true_label":-129}`,
	// Floats: -0, an integer float64 cannot hold, 15 and 16 digits, a
	// leading zero, 2^64+1.
	`{"counters":{"perf2":-0}}`, `{"counters":{"perf3":9007199254740993}}`,
	`{"counters":{"perf4":999999999999999,"perf5":1234567890123456}}`, `{"counters":{"perf5":007}}`,
	`{"counters":{"tofu_bytes":18446744073709551617}}`,
	// Keys in AppendJSON's order: all of them, one missing, one repeated
	// where the walk predicts it; then all of them in reverse.
	`{"id":"j1","user":"u1","name":"app","env":"gcc","cores_req":48,"nodes_req":1,"freq_req":2000,` +
		`"submit":"2024-02-01T12:00:00.5Z","start":"2024-02-01T12:00:01Z","end":"2024-02-01T13:00:00.123456789Z",` +
		`"nodes_alloc":1,"exit":0,"counters":{"perf2":1,"perf3":2.5,"perf4":3e10,"perf5":0,"tofu_bytes":4096},"true_label":2}`,
	`{"id":"j1","user":"u1","env":"gcc","cores_req":48,"nodes_req":1,"freq_req":2000,"submit":"2024-02-01T12:00:00Z",` +
		`"start":"2024-02-01T12:00:01Z","end":"2024-02-01T13:00:00Z","nodes_alloc":1,"exit":0,"counters":{"perf2":1,"perf3":2,"perf5":4}}`,
	`{"user":"u1","id":"j1","user":"u2"}`, `{"counters":{"perf3":1,"perf2":2,"perf3":3}}`,
	`{"true_label":1,"counters":{"tofu_bytes":4096,"perf5":4,"perf4":3,"perf3":2,"perf2":1},"exit":0,"nodes_alloc":1,` +
		`"end":"2024-02-01T13:00:00Z","start":"2024-02-01T12:00:01Z","submit":"2024-02-01T12:00:00Z","freq_req":2000,` +
		`"nodes_req":1,"cores_req":48,"env":"gcc","name":"app","user":"u1","id":"j1"}`,
}

var arraySeeds = []string{
	`[]`, ` [ ] `, `null`, `[null]`, `[{"id":"a"},null]`, `[{"id":"a"},{"id":"b"}]`, "[\n {\"id\":\"a\"} ,\r\n {\"id\":\"b\"}\t]",
	`[{"id":"a"}] trailing garbage`, `[{"id":"a"}]]`, `[{"id":"a"},]`, `[,{"id":"a"}]`, `[{"id":"a"} {"id":"b"}]`,
	`[{"id":"a"},{"id":"b"`, `[{"id":"a"},`, `[`, `[[{"id":"a"}]]`, `[1]`, `["a"]`, `{"id":"a"}`, "\ufeff[]",
}

func seedBodies(t testing.TB) (records, arrays [][]byte) {
	sub, done := mustMarshal(t, submissionJob()), mustMarshal(t, completedJob())
	records = append(records, sub, done)
	for _, s := range recordSeeds {
		records = append(records, []byte(s))
	}
	arrays = append(arrays,
		mustMarshal(t, []*Job{submissionJob(), submissionJob()}),
		mustMarshal(t, []*Job{completedJob(), submissionJob(), completedJob()}))
	for _, s := range arraySeeds {
		arrays = append(arrays, []byte(s))
	}
	for _, r := range records {
		arrays = append(arrays, append(append([]byte{'['}, r...), ']'))
	}
	return records, arrays
}

func FuzzUnmarshalArray(f *testing.F) {
	_, arrays := seedBodies(f)
	for _, a := range arrays {
		f.Add(a)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := stdArray(data)
		got, gotErr := UnmarshalArray(data)
		if errString(gotErr) != errString(wantErr) {
			t.Fatalf("error %q, encoding/json says %q", errString(gotErr), errString(wantErr))
		}
		if !sameJobs(got, want) {
			t.Fatalf("decoded %s, encoding/json decodes %s", dump(got), dump(want))
		}
	})
}

func FuzzUnmarshalJob(f *testing.F) {
	records, _ := seedBodies(f)
	for _, r := range records {
		f.Add(r)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Once into a zero record and once into a filled one: absent
		// fields keep their value, and a rejected input leaves the same
		// partial writes encoding/json leaves.
		for _, into := range []*Job{{}, completedJob()} {
			want, got := *into, *into
			wantErr := json.Unmarshal(data, &want)
			gotErr := Unmarshal(data, &got)
			if errString(gotErr) != errString(wantErr) {
				t.Fatalf("error %q, encoding/json says %q", errString(gotErr), errString(wantErr))
			}
			if !sameJobs([]*Job{&got}, []*Job{&want}) {
				t.Fatalf("decoded %+v, encoding/json decodes %+v", got, want)
			}
		}
	})
}

func dump(jobs []*Job) string {
	if jobs == nil {
		return "nil"
	}
	s := "["
	for _, j := range jobs {
		if j == nil {
			s += " <nil>"
		} else {
			s += fmt.Sprintf(" %+v", *j)
		}
	}
	return s + " ]"
}

// TestZeroTimeLiteralIsTheZeroTime pins what parser.time answers without
// the library: the literal json.Marshal writes for time.Time{} is
// zeroTime, and UnmarshalJSON of it is time.Time{} again — to == and to
// reflect.DeepEqual, which the differential fuzzers compare with —
// whatever the receiver held before.
func TestZeroTimeLiteralIsTheZeroTime(t *testing.T) {
	lit := mustMarshal(t, time.Time{})
	if string(lit) != `"`+zeroTime+`"` {
		t.Fatalf("time.Time{} marshals to %s, zeroTime is %q", lit, zeroTime)
	}
	for _, got := range []time.Time{{}, time.Date(2024, 2, 1, 12, 0, 0, 5, time.FixedZone("JST", 9*3600))} {
		if err := got.UnmarshalJSON(lit); err != nil {
			t.Fatal(err)
		}
		if got != (time.Time{}) || !reflect.DeepEqual(got, time.Time{}) {
			t.Fatalf("UnmarshalJSON(%s) = %#v, want time.Time{}", lit, got)
		}
	}
	filled := completedJob()
	body := []byte(`{"submit":"` + zeroTime + `","start":"` + zeroTime + `","end":"` + zeroTime + `"}`)
	before := Fallbacks()
	if err := Unmarshal(body, filled); err != nil {
		t.Fatal(err)
	}
	if Fallbacks() != before {
		t.Fatal("the zero-time body left the strict path")
	}
	if filled.SubmitTime != (time.Time{}) || filled.StartTime != (time.Time{}) || filled.EndTime != (time.Time{}) {
		t.Fatalf("zero-time members decoded to %v, %v, %v", filled.SubmitTime, filled.StartTime, filled.EndTime)
	}
}

// TestKeyTablesFollowAppendJSON: the walk predicts each key from the
// tables; a table out of AppendJSON's order would still decode right,
// but by scanning every key.
func TestKeyTablesFollowAppendJSON(t *testing.T) {
	b, err := AppendJSON(nil, completedJob())
	if err != nil {
		t.Fatal(err)
	}
	rest := b
	for _, k := range append(append(jobKeys[:13:13], counterKeys[:]...), jobKeys[13:]...) {
		i := bytes.Index(rest, []byte(k))
		if i < 0 {
			t.Fatalf("%s is not where AppendJSON writes it in %s", k, b)
		}
		rest = rest[i+len(k):]
	}
}

// TestStrictPathDecodesEncoderOutput: the bodies every client in this
// repository sends — json.Marshal of records with plain names — are
// decoded by the parser itself. Without this the differential fuzzers
// would pass on a parser that rejects everything.
func TestStrictPathDecodesEncoderOutput(t *testing.T) {
	records, arrays := seedBodies(t)
	before := Fallbacks()
	for _, body := range arrays[:2] {
		if _, err := UnmarshalArray(body); err != nil {
			t.Fatal(err)
		}
	}
	for _, body := range records[:2] {
		if err := Unmarshal(body, new(Job)); err != nil {
			t.Fatal(err)
		}
	}
	if n := Fallbacks() - before; n != 0 {
		t.Fatalf("%d of 4 encoder-shaped inputs fell back to encoding/json", n)
	}
	// An escape; a key repeated where the walk predicts it, which
	// encoding/json would decode to the same record.
	for _, body := range []string{`[{"id":"a\u003cb"}]`, `[{"user":"u1","id":"a","user":"u2"}]`} {
		if _, err := UnmarshalArray([]byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if n := Fallbacks() - before; n != 2 {
		t.Fatalf("an escaped string and a repeated key moved the fallback counter by %d, want 2", n)
	}
}

// TestDecodedJobsDoNotAliasInput: the HTTP layer reads bodies into
// pooled buffers and the store keeps inserted records for ever, so a
// decoded record must own every byte it refers to.
func TestDecodedJobsDoNotAliasInput(t *testing.T) {
	src := []*Job{completedJob(), submissionJob()}
	src[1].Name = "流体解析" // beyond ASCII, still the strict path's
	body, record := mustMarshal(t, src), mustMarshal(t, src[0])
	before := Fallbacks()
	jobs, err := UnmarshalArray(body)
	var one Job
	if err == nil {
		err = Unmarshal(record, &one)
	}
	if err != nil || Fallbacks() != before {
		t.Fatalf("strict path not taken: err %v, %d fallbacks", err, Fallbacks()-before)
	}
	for _, buf := range [][]byte{body, record} {
		for i := range buf {
			buf[i] = 0xff
		}
	}
	if !reflect.DeepEqual(jobs, src) || !reflect.DeepEqual(&one, src[0]) {
		t.Fatalf("records changed with the buffer:\n got %s and %+v\nwant %s", dump(jobs), one, dump(src))
	}
}

// windowBody is the periodic trigger's body: n submission records
// (≈ 300 bytes each), two of whose three time members are the zero time.
func windowBody(t testing.TB, n int) []byte {
	window := make([]*Job, n)
	for i := range window {
		window[i] = submissionJob()
		window[i].ID = fmt.Sprintf("job-%06d", i)
	}
	return mustMarshal(t, window)
}

// splitSeeds are the decoys of a guessed cut: "},{" where no record
// boundary is, a boundary the guess cannot see, and arrays whose serial
// parse fails late.
var splitSeeds = []string{
	`[{"id":"a","name":"p},{q"},{"id":"b"},{"id":"c","name":"},{"}]`,
	`[{"id":"a","name":"p},{\"id\":\"z"},{"id":"b"}]`,
	// A part from this cut parses "{}" and ends the array inside the
	// name; only the landing check of the part before it refuses it.
	`[{"id":"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa","name":"x},{}]"},{"id":"b"}]`,
	`[{"id":"a"},{"id":"b"}] },{"id":"c"},{"id":"d"}`,
	`[{"id":"a"}]},{"id":"b"},{"id":"c"}]`,
	"[{\"id\":\"a\"} , {\"id\":\"b\"},\n{\"id\":\"c\"}\t,{\"id\":\"d\"} ]",
	`[{"id":"a"},{"id":"b"},{"id":"c"},{"id":"d\u0041"}]`,
	`[{"id":"a","counters":{"perf2":1},"exit":0},{"counters":{}},{"counters":{"perf3":2}},{"id":"d"}]`,
	`[{"id":"a"},{"id":"b"},{"id":"c"},{"id":"d"`,
	`[{"id":"a"},{"id":"b"},{"id":"c"},{"id":"d"},`,
	`[{"id":"a"},{"id":"b"},{"id":"c"},{"id":"d"}`,
}

// FuzzUnmarshalArrayParts: cutting the array, wherever the guesses fall,
// decides nothing — the parse accepts what the serial parse accepts and
// decodes it to the same records, for every number of parts.
func FuzzUnmarshalArrayParts(f *testing.F) {
	_, arrays := seedBodies(f)
	arrays = append(arrays, windowBody(f, 20))
	for _, s := range splitSeeds {
		arrays = append(arrays, []byte(s))
	}
	for _, a := range arrays {
		f.Add(a)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantOK := parseArray(data)
		for parts := 2; parts <= 4; parts++ {
			got, ok := parseArrayParts(data, parts)
			if ok != wantOK || !sameJobs(got, want) {
				t.Fatalf("%d parts: ok %v, %s; serially ok %v, %s", parts, ok, dump(got), wantOK, dump(want))
			}
		}
	})
}

// TestSplitLandsOnEncoderOutput: on the bodies clients send, every cut
// is verified and the records come from the parts, not from the serial
// re-parse — without this FuzzUnmarshalArrayParts would pass on a split
// that never lands.
func TestSplitLandsOnEncoderOutput(t *testing.T) {
	body := windowBody(t, 1000)
	want, ok := parseArray(body)
	if !ok {
		t.Fatal("the window body left the strict path")
	}
	for _, parts := range []int{2, 3, 4, 8} {
		got, ok := splitArray(body, parts)
		if !ok {
			t.Fatalf("%d parts: a cut did not land", parts)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d parts: records differ from the serial parse", parts)
		}
	}
}

// TestUnmarshalArrayIndependentOfCores: one window body decodes to the
// same records, on the strict path, whatever GOMAXPROCS says.
func TestUnmarshalArrayIndependentOfCores(t *testing.T) {
	body := windowBody(t, 1000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	before := Fallbacks()
	var first []*Job
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		jobs, err := UnmarshalArray(body)
		if err != nil || len(jobs) != 1000 {
			t.Fatalf("GOMAXPROCS %d: %d jobs, %v", procs, len(jobs), err)
		}
		if first == nil {
			first = jobs
		} else if !reflect.DeepEqual(jobs, first) {
			t.Fatalf("GOMAXPROCS %d decodes other records than GOMAXPROCS 1", procs)
		}
	}
	if n := Fallbacks() - before; n != 0 {
		t.Fatalf("%d decodes fell back to encoding/json", n)
	}
}

// completedBody is the insert side's body: n completed records
// (counters, a label, three real times), as the WAL, POST /v1/jobs and
// follower apply carry them.
func completedBody(t testing.TB, n int) []byte {
	records := make([]*Job, n)
	for i := range records {
		records[i] = completedJob()
		records[i].ID = fmt.Sprintf("job-%06d", i)
	}
	return mustMarshal(t, records)
}

// BenchmarkUnmarshalArray decodes bodies of 100, 300 and 1 000 records
// of both shapes: the periodic trigger's window of submissions and the
// insert side's completed records. Run with -cpu 1,2 it shows where two
// parts start to beat one (splitFloor).
func BenchmarkUnmarshalArray(b *testing.B) {
	for _, shape := range []struct {
		name string
		body func(testing.TB, int) []byte
	}{{"submission", windowBody}, {"completed", completedBody}} {
		for _, n := range []int{100, 300, 1000} {
			body := shape.body(b, n)
			b.Run(fmt.Sprintf("%s/records=%d", shape.name, n), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if jobs, err := UnmarshalArray(body); err != nil || len(jobs) != n {
						b.Fatalf("%d jobs, %v", len(jobs), err)
					}
				}
			})
		}
	}
}

// BenchmarkUnmarshalJob decodes one completed record, as store.ApplyRecord
// and LoadJSONL do for every line they read.
func BenchmarkUnmarshalJob(b *testing.B) {
	record := mustMarshal(b, completedJob())
	b.SetBytes(int64(len(record)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var j Job
		if err := Unmarshal(record, &j); err != nil {
			b.Fatal(err)
		}
	}
}
