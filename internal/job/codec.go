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
	// Through a copy: handed to encoding/json, j itself would escape, and
	// every caller's record would be allocated on the strict path too.
	fb := *j
	err := json.Unmarshal(data, &fb)
	*j = fb
	return err
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
//
// The records are cut from slabs, not allocated one by one: the part's
// length divided by its first record's guesses how many it holds, and a
// slab of that many, at least one and at most maxSlab, is filled before
// the next is sized the same way on what is left. A record then lives as
// long as any record of its slab; the store copies what it keeps.
func (p *parser) records(land int) ([]*Job, bool) {
	end := land
	if end < 0 {
		end = len(p.data)
	}
	start := p.pos
	var first Job
	if !p.job(&first) {
		return nil, false
	}
	size := p.pos - start
	slab := make([]Job, min(max((end-start)/size, 1), maxSlab))
	slab[0] = first
	jobs := make([]*Job, 1, len(slab))
	jobs[0], slab = &slab[0], slab[1:]
	for {
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
		if len(slab) == 0 {
			slab = make([]Job, min(max((end-p.pos)/size, 1), maxSlab))
		}
		j := &slab[0]
		if slab = slab[1:]; !p.job(j) {
			return nil, false
		}
		jobs = append(jobs, j)
	}
}

// maxSlab bounds a slab, so that a first record far shorter than the
// rest ("[{},…]") cannot make a body allocate records it does not hold.
const maxSlab = 1024

// parser is a cursor over one input. Every method reports whether the
// bytes at the cursor were in the strict subset; after a false the
// cursor is meaningless and the caller falls back.
type parser struct {
	data []byte
	pos  int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.data) && p.data[p.pos] <= ' ' {
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

// literal consumes s if the input continues with it at the cursor.
func (p *parser) literal(s string) bool {
	if len(p.data)-p.pos >= len(s) && string(p.data[p.pos:p.pos+len(s)]) == s {
		p.pos += len(s)
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

// jobKeys and counterKeys are the members of a record and of its
// counters in the order AppendJSON writes them, each spelled with the
// byte before it and the colon after it: `{"id":`, `,"user":` and so on.
// A key's index is its case in the value switch of job or counters.
var (
	jobKeys = [...]string{`{"id":`, `,"user":`, `,"name":`, `,"env":`, `,"cores_req":`, `,"nodes_req":`, `,"freq_req":`,
		`,"submit":`, `,"start":`, `,"end":`, `,"nodes_alloc":`, `,"exit":`, `,"counters":`, `,"true_label":`}
	counterKeys = [...]string{`{"perf2":`, `,"perf3":`, `,"perf4":`, `,"perf5":`, `,"tofu_bytes":`}
)

// member reads what lies between an object's "{", or the end of a
// member's value, and the next member's value: the separator, the key
// and the colon. It returns the key's index in keys, or more false at
// the object's closing brace. keys[next], the member AppendJSON writes
// after the previous one, is compared at the cursor first; on a miss
// the separator and the key are scanned and the key is looked up. The
// first member, next 0, follows the "{", every other a comma. A key that
// is not the struct's, or one seen before, is not the strict parser's.
func (p *parser) member(keys []string, next int, seen *uint16) (i int, more, ok bool) {
	i = -1
	if next < len(keys) && p.literal(keys[next]) {
		i = next
		p.skipSpace()
	} else {
		switch c := p.delim(); {
		case c == '{' && next == 0:
			if p.consume('}') {
				return 0, false, true
			}
		case c == ',' && next > 0:
		case c == '}' && next > 0:
			return 0, false, true
		default:
			return 0, false, false
		}
		if !p.consume('"') {
			return 0, false, false
		}
		// A key with an escaped quote ends early here and then matches no
		// field name, which is what its escape calls for anyway.
		n := bytes.IndexByte(p.data[p.pos:], '"')
		if n < 0 {
			return 0, false, false
		}
		name := p.data[p.pos : p.pos+n]
		if p.pos += n + 1; p.delim() != ':' {
			return 0, false, false
		}
		for k, spelled := range keys {
			if spelled[2:len(spelled)-2] == string(name) {
				i = k
			}
		}
	}
	if i < 0 || *seen&(1<<i) != 0 {
		return 0, false, false
	}
	*seen |= 1 << i
	return i, true, true
}

// job parses one record. Keys match exactly: encoding/json also accepts
// them in any case, so a case variant is its to decode. In the loop i is
// the key predicted for the member and then the one read.
func (p *parser) job(j *Job) bool {
	var id, user, name, env span
	var seen uint16
	for i := 0; ; i++ {
		var more, ok bool
		i, more, ok = p.member(jobKeys[:], i, &seen)
		if !ok {
			return false
		}
		if !more {
			break
		}
		switch i {
		case 0:
			ok = p.str(&id)
		case 1:
			ok = p.str(&user)
		case 2:
			ok = p.str(&name)
		case 3:
			ok = p.str(&env)
		case 4:
			ok = integer(p, &j.CoresRequested, strconv.IntSize)
		case 5:
			ok = integer(p, &j.NodesRequested, strconv.IntSize)
		case 6:
			ok = integer(p, &j.FreqRequested, 32)
		case 7:
			ok = p.time(&j.SubmitTime)
		case 8:
			ok = p.time(&j.StartTime)
		case 9:
			ok = p.time(&j.EndTime)
		case 10:
			ok = integer(p, &j.NodesAllocated, strconv.IntSize)
		case 11:
			ok = integer(p, &j.ExitCode, strconv.IntSize)
		case 12:
			ok = p.counters(&j.Counters)
		case 13:
			ok = integer(p, &j.TrueLabel, 8)
		}
		if !ok {
			return false
		}
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
	var seen uint16
	for i := 0; ; i++ {
		var more, ok bool
		if i, more, ok = p.member(counterKeys[:], i, &seen); !ok || !more {
			return ok
		}
		switch i {
		case 0:
			ok = p.float(&c.Perf2)
		case 1:
			ok = p.float(&c.Perf3)
		case 2:
			ok = p.float(&c.Perf4)
		case 3:
			ok = p.float(&c.Perf5)
		case 4:
			ok = p.float(&c.TofuBytes)
		}
		if !ok {
			return false
		}
	}
}

// span locates a string value's contents in the input; set tells an
// empty string from an absent member.
type span struct {
	start, end int
	set        bool
}

func (s span) len() int { return s.end - s.start }

// The classes of a byte inside a string literal, and strClass, which
// maps every byte to its class.
const (
	strPlain = iota // copied as is
	strQuote        // ends the literal
	strWide         // part of a multi-byte UTF-8 sequence
	strOut          // a backslash or a control byte
)

var strClass = func() (class [256]uint8) {
	for c := range class {
		switch {
		case c == '"':
			class[c] = strQuote
		case c == '\\' || c < ' ':
			class[c] = strOut
		case c >= utf8.RuneSelf:
			class[c] = strWide
		}
	}
	return class
}()

// str scans the string literal at the cursor. A backslash or a control
// byte ends the strict parse: the first needs unquoting, the second is a
// syntax error.
func (p *parser) str(dst *span) bool {
	if !p.consume('"') {
		return false
	}
	start, ascii := p.pos, true
	for i := start; i < len(p.data); i++ {
		for i < len(p.data) && strClass[p.data[i]] == strPlain {
			i++
		}
		if i == len(p.data) {
			break
		}
		switch strClass[p.data[i]] {
		case strQuote:
			*dst = span{start, i, true}
			p.pos = i + 1
			// encoding/json replaces invalid UTF-8 with U+FFFD.
			return ascii || utf8.Valid(p.data[start:i])
		case strWide:
			ascii = false
		default:
			return false
		}
	}
	return false
}

// zeroTime is what json.Marshal writes for time.Time{}: the start and
// end of every record not yet run.
const zeroTime = "0001-01-01T00:00:00Z"

// time parses a time literal. One in UTC to at most the nanosecond,
// dddd-dd-ddTdd:dd:dd[.d{1,9}]Z — every time AppendJSON writes — is
// read in place by rfc3339; any other goes, quotes included, to the
// method encoding/json itself calls, so what else counts as RFC 3339
// is the library's decision. zeroTime, two of a submission's three
// times, is compared first: that costs less than a time.Date, and
// TestZeroTimeLiteralIsTheZeroTime pins that it decodes to time.Time{}.
func (p *parser) time(dst *time.Time) bool {
	if p.literal(`"` + zeroTime + `"`) {
		*dst = time.Time{}
		return true
	}
	if t, n, ok := rfc3339(p.data[p.pos:]); ok {
		*dst, p.pos = t, p.pos+n
		return true
	}
	var lit span
	if !p.str(&lit) {
		return false
	}
	return dst.UnmarshalJSON(p.data[lit.start-1:lit.end+1]) == nil
}

// rfc3339 reads the quoted literal at the start of b if it is in
// time's subset, and returns the time and the literal's length. Its
// range checks are the library parser's: a month, a day of that month
// (leap years included), an hour below 24, a minute and a second below
// 60.
func rfc3339(b []byte) (time.Time, int, bool) {
	const layout = `"dddd-dd-ddTdd:dd:dd`
	if len(b) < len(layout)+len(`Z"`) || b[0] != '"' || b[5] != '-' || b[8] != '-' || b[11] != 'T' || b[14] != ':' || b[17] != ':' {
		return time.Time{}, 0, false
	}
	year, month, day := decimal(b[1:5]), decimal(b[6:8]), decimal(b[9:11])
	hour, minute, sec := decimal(b[12:14]), decimal(b[15:17]), decimal(b[18:20])
	if year < 0 || month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		uint(hour) > 23 || uint(minute) > 59 || uint(sec) > 59 {
		return time.Time{}, 0, false
	}
	i, nsec := len(layout), 0
	if b[i] == '.' {
		n := 1
		for i+n < len(b) && b[i+n]-'0' <= 9 && n <= 9 {
			nsec = nsec*10 + int(b[i+n]-'0')
			n++
		}
		if n == 1 { // a tenth digit is caught where the Z is looked for
			return time.Time{}, 0, false
		}
		for range 10 - n {
			nsec *= 10
		}
		i += n
	}
	if len(b) < i+len(`Z"`) || b[i] != 'Z' || b[i+1] != '"' {
		return time.Time{}, 0, false
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, nsec, time.UTC), i + len(`Z"`), true
}

// decimal is the value of the decimal digits b, or -1 if b holds
// another byte.
func decimal(b []byte) int {
	n := 0
	for _, c := range b {
		if c-'0' > 9 {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// number scans one literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (p *parser) number() (lit []byte, ok bool) {
	start := p.pos
	p.consume('-')
	switch {
	case p.consume('0'):
	case p.digits():
	default:
		return nil, false
	}
	if p.consume('.') && !p.digits() {
		return nil, false
	}
	if p.consume('e') || p.consume('E') {
		if !p.consume('+') {
			p.consume('-')
		}
		if !p.digits() {
			return nil, false
		}
	}
	return p.data[start:p.pos], true
}

// digits consumes a run of at least one decimal digit.
func (p *parser) digits() bool {
	start := p.pos
	for p.pos < len(p.data) && p.data[p.pos]-'0' <= 9 {
		p.pos++
	}
	return p.pos > start
}

// unsigned reads the digits at the cursor, as many as there are, and
// returns their value (meaningless past 18 of them) and their count.
func (p *parser) unsigned() (n int64, digits int) {
	start := p.pos
	for p.pos < len(p.data) && p.data[p.pos]-'0' <= 9 {
		n = n*10 + int64(p.data[p.pos]-'0')
		p.pos++
	}
	return n, p.pos - start
}

// fraction reports whether a fraction or an exponent follows the
// integer digits before the cursor.
func (p *parser) fraction() bool {
	return p.pos < len(p.data) && (p.data[p.pos] == '.' || p.data[p.pos]|0x20 == 'e')
}

// integer parses a number into a signed field bits wide. Up to 18
// digits, where no int64 overflows, it is read in place; a longer one
// goes to strconv.ParseInt. A fraction, an exponent or a value out of
// range is encoding/json's UnmarshalTypeError to report.
func integer[T ~int | ~int32 | ~int8](p *parser, dst *T, bits int) bool {
	start := p.pos
	neg := p.consume('-')
	lead := p.pos
	n, digits := p.unsigned()
	switch {
	case digits == 0, digits > 1 && p.data[lead] == '0', p.fraction():
		return false
	case digits > 18:
		v, err := strconv.ParseInt(string(p.data[start:p.pos]), 10, bits)
		*dst = T(v)
		return err == nil
	}
	if limit := uint64(1) << (bits - 1); uint64(n) >= limit && !(neg && uint64(n) == limit) {
		return false
	}
	if neg {
		n = -n
	}
	*dst = T(n)
	return true
}

// float parses a number into a float64. A non-negative integer of up to
// 15 digits is below 2^53, so float64 of it is exact; every other
// literal, -0 among them, goes to strconv.ParseFloat.
func (p *parser) float(dst *float64) bool {
	start := p.pos
	if n, digits := p.unsigned(); digits > 0 && digits <= 15 && (digits == 1 || p.data[start] != '0') && !p.fraction() {
		*dst = float64(n)
		return true
	}
	p.pos = start
	lit, ok := p.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}
