package job

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"mcbound/internal/linalg"
)

// The wire codec: a one-pass parser for the fixed Job/PerfCounters shape
// that accepts a strict subset of what encoding/json accepts and decodes
// it to the same value. Everything outside the subset — a string with an
// escape, a control byte or invalid UTF-8; an unknown, case-variant or
// repeated key; null anywhere; a literal of the wrong type or out of the
// field's range; any syntax error; an empty input — is "not mine": the
// parse is abandoned and encoding/json decodes the whole input from its
// first byte, so every such body, every error and every error string is
// the library's. The parser therefore has no error vocabulary, only ok.
//
// Nothing a decoded Job holds points into the input: strings are copied
// out (the four of one record into one allocation) and time.Time carries
// no reference to the bytes it was parsed from, so callers may reuse the
// buffer at once.
//
// A body of splitFloor bytes or more decodes on several cores at once:
// splitArray cuts it at guessed record boundaries, and a cut counts only
// once the part before it has landed on it; see there.

var fallbacks atomic.Int64

// Fallbacks returns how many inputs, process-wide, the strict parser
// handed to encoding/json (mcbound_http_decode_fallback_total).
func Fallbacks() int64 { return fallbacks.Load() }

// UnmarshalArray decodes a JSON array of job records to the value, and
// on malformed input the error, json.NewDecoder(r).Decode(&jobs) gives
// for a nil jobs and an r that yields data: leading white space is
// skipped and bytes after the array's closing bracket are not looked at.
func UnmarshalArray(data []byte) ([]*Job, error) {
	parts := min(runtime.GOMAXPROCS(0), 2*len(data)/splitFloor)
	if jobs, ok := parseArrayParts(data, parts); ok {
		return jobs, nil
	}
	fallbacks.Add(1)
	var jobs []*Job
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&jobs)
	return jobs, err
}

// Unmarshal decodes one job record into j exactly as
// json.Unmarshal(data, j) does: fields absent from data keep their
// value, and anything but white space after the object is an error.
func Unmarshal(data []byte, j *Job) error {
	p := parser{data: data}
	tmp := *j // a parse abandoned half-way must leave j to encoding/json untouched
	p.skipSpace()
	if p.job(&tmp) {
		if p.skipSpace(); p.pos == len(data) {
			*j = tmp
			return nil
		}
	}
	fallbacks.Add(1)
	return json.Unmarshal(data, j)
}

// AppendJSON appends json.Marshal(j)'s bytes to b: the encoder twin of
// Unmarshal, which every job record written to a WAL, a snapshot or a
// JSONL file goes through. A record inside its subset is written in one
// pass: strings of printable ASCII without the five bytes encoding/json
// escapes (`"`, `\`, `<`, `>`, `&`), times with a zero offset in years
// 0–9999, finite counters. Any other record is json.Marshal's to encode,
// its error included: a string to escape, a time Time.MarshalJSON might
// reject, a NaN or an infinity.
func AppendJSON(b []byte, j *Job) ([]byte, error) {
	e := encoder{b: b, ok: true}
	e.str(`{"id":`, j.ID)
	e.str(`,"user":`, j.User)
	e.str(`,"name":`, j.Name)
	e.str(`,"env":`, j.Environment)
	e.int(`,"cores_req":`, int64(j.CoresRequested))
	e.int(`,"nodes_req":`, int64(j.NodesRequested))
	e.int(`,"freq_req":`, int64(j.FreqRequested))
	e.time(`,"submit":`, j.SubmitTime)
	e.time(`,"start":`, j.StartTime)
	e.time(`,"end":`, j.EndTime)
	e.int(`,"nodes_alloc":`, int64(j.NodesAllocated))
	e.int(`,"exit":`, int64(j.ExitCode))
	c := &j.Counters
	e.float(`,"counters":{"perf2":`, c.Perf2)
	e.float(`,"perf3":`, c.Perf3)
	e.float(`,"perf4":`, c.Perf4)
	e.float(`,"perf5":`, c.Perf5)
	if c.TofuBytes != 0 { // omitempty
		e.float(`,"tofu_bytes":`, c.TofuBytes)
	}
	e.b = append(e.b, '}')
	if j.TrueLabel != 0 { // omitempty
		e.int(`,"true_label":`, int64(j.TrueLabel))
	}
	e.b = append(e.b, '}')
	if e.ok {
		return e.b, nil
	}
	out, err := json.Marshal(j)
	if err != nil {
		return b, err
	}
	return append(b, out...), nil
}

// encoder appends one record's members; ok turns false at the first
// value outside AppendJSON's subset, and the bytes are then thrown away.
type encoder struct {
	b  []byte
	ok bool
}

func (e *encoder) str(key, s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < ' ', c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			e.ok = false
		}
	}
	e.b = append(append(e.b, key...), '"')
	e.b = append(append(e.b, s...), '"')
}

func (e *encoder) int(key string, n int64) {
	e.b = strconv.AppendInt(append(e.b, key...), n, 10)
}

// time writes what Time.MarshalJSON writes: RFC 3339 with nanoseconds.
// That method rejects a year that is not four digits wide and an offset
// of 24 hours or more; the subset takes only a zero offset, which the
// format spells Z.
func (e *encoder) time(key string, t time.Time) {
	e.b = append(append(e.b, key...), '"')
	if t.IsZero() {
		e.b = append(e.b, zeroTime...)
	} else {
		n := len(e.b)
		e.b = t.AppendFormat(e.b, time.RFC3339Nano)
		if e.b[n+len("9999")] != '-' || e.b[len(e.b)-1] != 'Z' {
			e.ok = false
		}
	}
	e.b = append(e.b, '"')
}

// float writes a finite float64 as encoding/json does: ES6 number
// formatting, an exponent only below 1e-6 or from 1e21, and that
// exponent unpadded.
func (e *encoder) float(key string, f float64) {
	e.b = append(e.b, key...)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1] // e-07 → e-7
		e.b = e.b[:n-1]
	}
}

func parseArray(data []byte) ([]*Job, bool) {
	p := parser{data: data}
	p.skipSpace()
	if !p.consume('[') {
		return nil, false
	}
	p.skipSpace()
	if p.consume(']') {
		return []*Job{}, true // "[]" decodes to an empty slice, not a nil one
	}
	return p.records(-1)
}

// splitFloor is the smallest body UnmarshalArray decodes in parts, and
// half of it the least a part gets: the size from which two cores beat
// one in BenchmarkUnmarshalArray (EXPERIMENTS.md, "Decode").
const splitFloor = 64 << 10

// recordSep is where a cut is guessed: between two records as
// json.Marshal writes them.
var recordSep = []byte("},{")

// parseArrayParts decodes data as parseArray does, on up to parts cores
// when splitArray can verify its cuts and serially when it cannot, so
// whether a body is the parser's or encoding/json's is always decided
// by the serial parse, as for a body below the floor.
func parseArrayParts(data []byte, parts int) ([]*Job, bool) {
	if jobs, ok := splitArray(data, parts); ok {
		return jobs, true
	}
	return parseArray(data)
}

// splitArray parses data in up to parts pieces run through
// linalg.ParallelFor. Cut k is guessed at the first "},{" past k/parts
// of the body, and part k runs the serial record loop from its "{". A
// cut is proved a top-level record boundary only when part k-1's own
// parse ends a record exactly on its comma; a decoy — the pattern
// inside a string, after the closing bracket — makes the part before it
// fail or overshoot, and splitArray report false.
func splitArray(data []byte, parts int) ([]*Job, bool) {
	if parts < 2 {
		return nil, false
	}
	p := parser{data: data}
	p.skipSpace()
	if !p.consume('[') {
		return nil, false
	}
	p.skipSpace()
	cuts := []int{p.pos}
	for k := 1; k < parts; k++ {
		// From the last cut or beyond, a match starts past it: cuts rise.
		from := max(p.pos+k*(len(data)-p.pos)/parts, cuts[len(cuts)-1])
		i := bytes.Index(data[from:], recordSep)
		if i < 0 {
			break
		}
		cuts = append(cuts, from+i+2)
	}
	if len(cuts) < 2 {
		return nil, false
	}
	out := make([][]*Job, len(cuts))
	linalg.ParallelFor(len(cuts), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			land := -1 // the last part ends on the closing bracket
			if k+1 < len(cuts) {
				land = cuts[k+1] - 1
			}
			part := parser{data: data, pos: cuts[k]}
			if jobs, ok := part.records(land); ok {
				out[k] = jobs
			}
		}
	})
	n := 0
	for _, part := range out {
		if part == nil {
			return nil, false
		}
		n += len(part)
	}
	jobs := make([]*Job, 0, n)
	for _, part := range out {
		jobs = append(jobs, part...)
	}
	return jobs, true
}

// records parses the records of an array from the first one's "{". With
// land < 0 it ends on the closing bracket; otherwise a record must end
// exactly at land, and the parse stops there.
func (p *parser) records(land int) ([]*Job, bool) {
	var jobs []*Job
	for {
		j := new(Job)
		if !p.job(j) {
			return nil, false
		}
		jobs = append(jobs, j)
		if land >= 0 && p.pos >= land {
			return jobs, p.pos == land
		}
		switch p.delim() {
		case ',':
		case ']':
			return jobs, land < 0
		default:
			return nil, false
		}
	}
}

// parser is a cursor over one input. Every method reports whether the
// bytes at the cursor were in the strict subset; after a false the
// cursor is meaningless and the caller falls back.
type parser struct {
	data []byte
	pos  int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) consume(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// delim reads the byte that follows a value — a comma or the closing
// bracket of the enclosing composite, white space around it skipped —
// and returns 0 at the end of the input.
func (p *parser) delim() byte {
	p.skipSpace()
	if p.pos == len(p.data) {
		return 0
	}
	c := p.data[p.pos]
	p.pos++
	p.skipSpace()
	return c
}

// members walks the members of the object at the cursor, calling field
// with each key and the cursor on the member's value. field parses the
// value and reports the key's bit (0 for a key that is not the
// struct's); a bit seen twice is a repeated key.
func (p *parser) members(field func(key []byte) (bit uint16, ok bool)) bool {
	if !p.consume('{') {
		return false
	}
	p.skipSpace()
	if p.consume('}') {
		return true
	}
	var seen uint16
	for {
		if !p.consume('"') {
			return false
		}
		// A key with an escaped quote ends early here and then matches no
		// field name, which is what its escape calls for anyway.
		n := bytes.IndexByte(p.data[p.pos:], '"')
		if n < 0 {
			return false
		}
		key := p.data[p.pos : p.pos+n]
		p.pos += n + 1
		if p.delim() != ':' {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		switch p.delim() {
		case ',':
		case '}':
			return true
		default:
			return false
		}
	}
}

// job parses one record. Keys match exactly: encoding/json also accepts
// them in any case, so a case variant is its to decode.
func (p *parser) job(j *Job) bool {
	var id, user, name, env span
	ok := p.members(func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "id":
			bit, ok = 1<<0, p.str(&id)
		case "user":
			bit, ok = 1<<1, p.str(&user)
		case "name":
			bit, ok = 1<<2, p.str(&name)
		case "env":
			bit, ok = 1<<3, p.str(&env)
		case "cores_req":
			bit, ok = 1<<4, integer(p, &j.CoresRequested, strconv.IntSize)
		case "nodes_req":
			bit, ok = 1<<5, integer(p, &j.NodesRequested, strconv.IntSize)
		case "freq_req":
			bit, ok = 1<<6, integer(p, &j.FreqRequested, 32)
		case "submit":
			bit, ok = 1<<7, p.time(&j.SubmitTime)
		case "start":
			bit, ok = 1<<8, p.time(&j.StartTime)
		case "end":
			bit, ok = 1<<9, p.time(&j.EndTime)
		case "nodes_alloc":
			bit, ok = 1<<10, integer(p, &j.NodesAllocated, strconv.IntSize)
		case "exit":
			bit, ok = 1<<11, integer(p, &j.ExitCode, strconv.IntSize)
		case "counters":
			bit, ok = 1<<12, p.counters(&j.Counters)
		case "true_label":
			bit, ok = 1<<13, integer(p, &j.TrueLabel, 8)
		}
		return bit, ok
	})
	if !ok {
		return false
	}
	// The record's strings are copied out together: one allocation holds
	// all four, which live and die with the record anyway.
	var all strings.Builder
	all.Grow(id.len() + user.len() + name.len() + env.len())
	for _, f := range [...]struct {
		src span
		dst *string
	}{{id, &j.ID}, {user, &j.User}, {name, &j.Name}, {env, &j.Environment}} {
		if f.src.set {
			start := all.Len()
			all.Write(p.data[f.src.start:f.src.end])
			*f.dst = all.String()[start:]
		}
	}
	return true
}

func (p *parser) counters(c *PerfCounters) bool {
	return p.members(func(key []byte) (bit uint16, ok bool) {
		switch string(key) {
		case "perf2":
			bit, ok = 1<<0, p.float(&c.Perf2)
		case "perf3":
			bit, ok = 1<<1, p.float(&c.Perf3)
		case "perf4":
			bit, ok = 1<<2, p.float(&c.Perf4)
		case "perf5":
			bit, ok = 1<<3, p.float(&c.Perf5)
		case "tofu_bytes":
			bit, ok = 1<<4, p.float(&c.TofuBytes)
		}
		return bit, ok
	})
}

// span locates a string value's contents in the input; set tells an
// empty string from an absent member.
type span struct {
	start, end int
	set        bool
}

func (s span) len() int { return s.end - s.start }

// str scans the string literal at the cursor. A backslash or a control
// byte ends the strict parse: the first needs unquoting, the second is a
// syntax error.
func (p *parser) str(dst *span) bool {
	if !p.consume('"') {
		return false
	}
	start, ascii := p.pos, true
	for i := start; i < len(p.data); i++ {
		switch c := p.data[i]; {
		case c == '"':
			*dst = span{start, i, true}
			p.pos = i + 1
			// encoding/json replaces invalid UTF-8 with U+FFFD.
			return ascii || utf8.Valid(p.data[start:i])
		case c == '\\' || c < ' ':
			return false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return false
}

// zeroTime is what json.Marshal writes for time.Time{}: the start and
// end of every record not yet run.
const zeroTime = "0001-01-01T00:00:00Z"

// time hands the literal, quotes included, to the method encoding/json
// itself calls, so what counts as RFC 3339 is the library's decision —
// but for zeroTime, which that method parses to time.Time{} (pinned by
// TestZeroTimeLiteralIsTheZeroTime) and which is answered here.
func (p *parser) time(dst *time.Time) bool {
	var lit span
	if !p.str(&lit) {
		return false
	}
	if string(p.data[lit.start:lit.end]) == zeroTime {
		*dst = time.Time{}
		return true
	}
	return dst.UnmarshalJSON(p.data[lit.start-1:lit.end+1]) == nil
}

// number scans one literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether
// it has neither fraction nor exponent.
func (p *parser) number() (lit []byte, integral, ok bool) {
	start := p.pos
	p.consume('-')
	switch {
	case p.consume('0'):
	case p.digits():
	default:
		return nil, false, false
	}
	integral = true
	if p.consume('.') {
		integral = false
		if !p.digits() {
			return nil, false, false
		}
	}
	if p.consume('e') || p.consume('E') {
		integral = false
		if !p.consume('+') {
			p.consume('-')
		}
		if !p.digits() {
			return nil, false, false
		}
	}
	return p.data[start:p.pos], integral, true
}

// digits consumes a run of at least one decimal digit.
func (p *parser) digits() bool {
	start := p.pos
	for p.pos < len(p.data) && p.data[p.pos]-'0' <= 9 {
		p.pos++
	}
	return p.pos > start
}

// integer parses a number into a signed field bits wide; a fraction,
// an exponent or a value out of range is encoding/json's
// UnmarshalTypeError to report.
func integer[T ~int | ~int32 | ~int8](p *parser, dst *T, bits int) bool {
	lit, integral, ok := p.number()
	if !ok || !integral {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	*dst = T(n)
	return err == nil
}

func (p *parser) float(dst *float64) bool {
	lit, _, ok := p.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}
