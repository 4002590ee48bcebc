package proto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// Hand-written frame decoding, the mirror of encode.go.
//
// json.Unmarshal finds an envelope's fields through reflection and allocates
// as it goes, on every report the server reads, every summary an aggregator
// reads and every ack a sender reads. readEnvelope reads those three kinds —
// report, summary and ack frames — in the shape AppendReportEnvelope,
// AppendSummaryEnvelope and writeFrame emit, with any whitespace and key
// order, and follows encoding/json's rules while it does: numbers are checked
// against JSON's number grammar and parsed with strconv, times with
// time.Time.UnmarshalJSON, an empty array is an empty non-nil slice, and
// valid UTF-8 is copied unchanged.
//
// Whatever lies outside that subset it declines: a key it does not know (a
// newer sender's field, a case variant of a known one), a repeated key, a
// null, a \u escape, invalid UTF-8, trailing bytes, and the heartbeat and
// error kinds. json.Unmarshal then decodes the whole body. That reference is
// the supported path for those inputs, not a fork: the differential fuzz
// targets hold the two to one result on every input. The encoder writes \u
// for what json.Marshal escapes — control characters, < > &, U+2028/U+2029,
// invalid UTF-8 — and no DC, rule, shard or bench string holds one, so the
// reader is not taught \u: such a frame costs the reference's allocations,
// not a wrong value.

// decodeEnvelope is the one decoder of a frame body, for readFrameInto and
// DecodeFrame alike: by hand, else by json.Unmarshal.
func decodeEnvelope(body []byte) (envelope, error) {
	var env envelope
	if readEnvelope(body, &env) {
		return env, nil
	}
	ref := new(envelope) // not env: json.Unmarshal would merge into what the reader left
	if err := json.Unmarshal(body, ref); err != nil {
		return envelope{}, fmt.Errorf("proto: unmarshal frame: %w", err)
	}
	return *ref, nil
}

// readEnvelope decodes a report, summary or ack frame body into env and
// reports whether it could; when it could not, env holds whatever it had read.
func readEnvelope(body []byte, env *envelope) bool {
	s := scanner{buf: body}
	ok := s.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "kind":
			env.Kind, ok = s.kind()
		case "report":
			env.Report = new(Report)
			ok = s.report(env.Report)
		case "summary":
			env.Summary = new(FusedSummary)
			ok = s.summary(env.Summary)
		case "dc":
			sender := ""
			switch {
			case env.Report != nil:
				sender = env.Report.DCID
			case env.Summary != nil:
				sender = env.Summary.ShardID
			}
			env.DCID, ok = s.str(sender)
		case "boot":
			env.Boot, ok = s.uint()
		case "seq":
			env.Seq, ok = s.uint()
		case "dup":
			env.Dup, ok = s.boolean()
		}
		return ok
	})
	return ok && s.end() && env.Kind != ""
}

// scanner is a cursor over one JSON text. A method that meets input outside
// the hand reader's subset reports false, and the caller declines.
type scanner struct {
	buf []byte
	pos int
}

// skipSpace steps over JSON whitespace.
func (s *scanner) skipSpace() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *scanner) next(c byte) bool {
	s.skipSpace()
	return s.take(c)
}

// end reports whether nothing but whitespace is left.
func (s *scanner) end() bool {
	s.skipSpace()
	return s.pos == len(s.buf)
}

// object reads an object, calling member with each key — escapes undecoded —
// with the cursor on its value; member reads the value or declines. A key
// that repeats is declined before member sees it.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen [12][]byte // no object of the subset has more keys
	for n := 0; ; n++ {
		key, _, ok := s.quoted()
		if !ok || n == len(seen) || !s.next(':') {
			return false
		}
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		seen[n] = key
		if !member(key) {
			return false
		}
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// array reads an array, calling elem with the cursor on each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.next(',') {
			return s.next(']')
		}
	}
}

// quoted consumes a string literal and returns its body as it stands in the
// text, and whether that holds an escape. It declines a control character,
// invalid UTF-8 and a \u escape.
func (s *scanner) quoted() (lit []byte, escaped, ok bool) {
	if !s.next('"') {
		return nil, false, false
	}
	start := s.pos
	for s.pos < len(s.buf) {
		switch c := s.buf[s.pos]; {
		case c == '"':
			s.pos++
			return s.buf[start : s.pos-1], escaped, true
		case c == '\\':
			if s.pos+1 == len(s.buf) || unescape(s.buf[s.pos+1]) == 0 {
				return nil, false, false
			}
			escaped = true
			s.pos += 2
		case c < 0x20:
			return nil, false, false
		case c < utf8.RuneSelf:
			s.pos++
		default:
			r, size := utf8.DecodeRune(s.buf[s.pos:])
			if r == utf8.RuneError && size == 1 {
				return nil, false, false
			}
			s.pos += size
		}
	}
	return nil, false, false
}

// unescape returns the byte a one-character escape stands for, or 0 for one
// the reader does not take (\u, or not an escape at all).
func unescape(c byte) byte {
	switch c {
	case '"', '\\', '/':
		return c
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return 0
}

// str reads a string value. When it equals known, known itself is returned,
// so a tag naming its report's sender costs no copy.
func (s *scanner) str(known string) (string, bool) {
	lit, escaped, ok := s.quoted()
	if !ok {
		return "", false
	}
	if !escaped {
		if string(lit) == known {
			return known, true
		}
		return string(lit), true
	}
	out := make([]byte, 0, len(lit))
	for i := 0; i < len(lit); i++ {
		c := lit[i]
		if c == '\\' {
			i++
			c = unescape(lit[i])
		}
		out = append(out, c)
	}
	return string(out), true
}

// number consumes a number literal that JSON's grammar admits:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) number() ([]byte, bool) {
	s.skipSpace()
	start := s.pos
	s.take('-')
	switch {
	case s.take('0'):
	case s.pos < len(s.buf) && '1' <= s.buf[s.pos] && s.buf[s.pos] <= '9':
		s.digits()
	default:
		return nil, false
	}
	if s.take('.') && !s.digits() {
		return nil, false
	}
	if s.take('e') || s.take('E') {
		if !s.take('+') {
			s.take('-')
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.buf[start:s.pos], true
}

// take consumes c if it is the very next byte.
func (s *scanner) take(c byte) bool {
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and reports whether it was not empty.
func (s *scanner) digits() bool {
	start := s.pos
	for s.pos < len(s.buf) && '0' <= s.buf[s.pos] && s.buf[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > start
}

// float reads a number as json.Unmarshal reads one into a float64.
func (s *scanner) float() (float64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// uint reads a number as json.Unmarshal reads one into a uint64.
func (s *scanner) uint() (uint64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	u, err := strconv.ParseUint(string(lit), 10, 64)
	return u, err == nil
}

// boolean reads true or false.
func (s *scanner) boolean() (bool, bool) {
	s.skipSpace()
	switch rest := s.buf[s.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.pos += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.pos += len("false")
		return false, true
	}
	return false, false
}

// timestamp reads a time through time.Time.UnmarshalJSON, handed the literal
// quotes and all, as json.Unmarshal hands it.
func (s *scanner) timestamp(t *time.Time) bool {
	s.skipSpace()
	start := s.pos
	if _, _, ok := s.quoted(); !ok {
		return false
	}
	return t.UnmarshalJSON(s.buf[start:s.pos]) == nil
}

// kind reads one of the frame kinds the hand reader takes. An escaped
// literal never matches: its text holds a backslash.
func (s *scanner) kind() (string, bool) {
	lit, _, ok := s.quoted()
	switch {
	case ok && string(lit) == "report":
		return "report", true
	case ok && string(lit) == "summary":
		return "summary", true
	case ok && string(lit) == "ack":
		return "ack", true
	}
	return "", false
}

// report reads a Report object.
func (s *scanner) report(r *Report) bool {
	return s.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "dc_id":
			r.DCID, ok = s.str("")
		case "knowledge_source_id":
			r.KnowledgeSourceID, ok = s.str("")
		case "sensed_object_id":
			r.SensedObjectID, ok = s.str("")
		case "machine_condition_id":
			r.MachineConditionID, ok = s.str("")
		case "severity":
			r.Severity, ok = s.float()
		case "belief":
			r.Belief, ok = s.float()
		case "explanation":
			r.Explanation, ok = s.str("")
		case "recommendations":
			r.Recommendations, ok = s.str("")
		case "timestamp":
			ok = s.timestamp(&r.Timestamp)
		case "additional_info":
			r.AdditionalInfo, ok = s.str("")
		case "suspect_channels":
			r.SuspectChannels, ok = s.strings()
		case "prognostics":
			r.Prognostics, ok = s.prognostics()
		}
		return ok
	})
}

// summary reads a FusedSummary object.
func (s *scanner) summary(fs *FusedSummary) bool {
	return s.object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "shard_id":
			fs.ShardID, ok = s.str("")
		case "component":
			fs.Component, ok = s.str("")
		case "condition":
			fs.Condition, ok = s.str("")
		case "group":
			fs.Group, ok = s.str("")
		case "belief":
			fs.Belief, ok = s.float()
		case "plausibility":
			fs.Plausibility, ok = s.float()
		case "unknown":
			fs.Unknown, ok = s.float()
		case "reports":
			// A count json.Unmarshal reads into an int: a negative one is left
			// to it, and Validate refuses what it reads.
			var n uint64
			n, ok = s.uint()
			ok = ok && n <= math.MaxInt
			fs.Reports = int(n)
		case "reliability":
			fs.Reliability, ok = s.float()
		case "degraded":
			fs.Degraded, ok = s.boolean()
		case "prognostics":
			fs.Prognostics, ok = s.prognostics()
		case "updated_at":
			ok = s.timestamp(&fs.UpdatedAt)
		}
		return ok
	})
}

// strings reads an array of strings into a slice of its exact length.
func (s *scanner) strings() ([]string, bool) {
	var buf [8]string
	out := buf[:0]
	ok := s.array(func() bool {
		v, ok := s.str("")
		out = append(out, v)
		return ok
	})
	return append(make([]string, 0, len(out)), out...), ok
}

// prognostics reads a prognostic vector into a slice of its exact length.
func (s *scanner) prognostics() (PrognosticVector, bool) {
	var buf [8]PrognosticPoint
	out := buf[:0]
	ok := s.array(func() bool {
		var p PrognosticPoint
		ok := s.object(func(key []byte) bool {
			var ok bool
			switch string(key) {
			case "probability":
				p.Probability, ok = s.float()
			case "time":
				p.HorizonSeconds, ok = s.float()
			}
			return ok
		})
		out = append(out, p)
		return ok
	})
	return append(make(PrognosticVector, 0, len(out)), out...), ok
}
