package proto

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// Allocation-free JSON encoding, byte for byte what json.Marshal writes.
//
// json.Marshal walks the envelope through reflection and allocates a fresh
// body per frame; on the uplink drain path that is one GC-visible allocation
// per report at the exact moment the DC is busiest. AppendReportEnvelope
// hand-builds the same bytes into a caller-provided buffer instead: field
// order, omitempty, string escaping (HTML characters and U+2028/U+2029
// included), encoding/json's float format and RFC 3339 timestamps all match,
// and it refuses what json.Marshal refuses.
//
// The encoder covers the two payload kinds every spooled frame carries:
// report frames (a DC's uplink) and summary frames (a shard's forwarder,
// AppendSummaryEnvelope). Acks are constant bytes (writeFrame); heartbeats and
// error replies keep the reflective path. Every frame kind thus carries
// json.Marshal's bytes.
//
// AppendMarshalFloat, AppendMarshalString, AppendMarshalStrings and
// AppendMarshalTime are the one appender per value type. Report and summary
// frames, the OOSM's prognostic text (AppendPrognosticsJSON) and the PDME's
// checkpoint writer all build on them.

// hexDigits is the lowercase alphabet used for \u00xx escapes, as
// encoding/json emits them.
const hexDigits = "0123456789abcdef"

// AppendReportEnvelope appends the JSON body of one report frame — exactly
// json.Marshal(envelope{Kind: "report", Report: r, DCID: dcid, Boot: boot,
// Seq: seq}) — and returns the extended buffer. Tag fields follow omitempty:
// zero values are omitted, so untagged frames pass "" and zeros. A report
// json.Marshal would refuse (a NaN or infinite number, a timestamp outside
// RFC 3339) is refused.
//
//mpros:hotpath report frame encode on the uplink drain
func AppendReportEnvelope(dst []byte, r *Report, dcid string, boot, seq uint64) ([]byte, error) {
	if r == nil {
		return dst, fmt.Errorf("proto: nil report")
	}
	dst = append(dst, `{"kind":"report","report":`...)
	dst, err := appendReport(dst, r)
	if err != nil {
		return dst, err
	}
	return appendTag(dst, dcid, boot, seq), nil
}

// AppendSummaryEnvelope appends the JSON body of one summary frame — exactly
// json.Marshal(envelope{Kind: "summary", Summary: s, DCID: dcid, Boot: boot,
// Seq: seq}) — and returns the extended buffer, under AppendReportEnvelope's
// rules: omitempty fields and zero tags are omitted, and a summary
// json.Marshal would refuse is refused.
//
//mpros:hotpath summary frame encode on the shard forwarder's spool
func AppendSummaryEnvelope(dst []byte, s *FusedSummary, dcid string, boot, seq uint64) ([]byte, error) {
	if s == nil {
		return dst, fmt.Errorf("proto: nil summary")
	}
	dst = append(dst, `{"kind":"summary","summary":`...)
	dst, err := appendSummary(dst, s)
	if err != nil {
		return dst, err
	}
	return appendTag(dst, dcid, boot, seq), nil
}

// appendTag closes an envelope with its delivery tag, each field omitted when
// zero.
func appendTag(dst []byte, dcid string, boot, seq uint64) []byte {
	if dcid != "" {
		dst = append(dst, `,"dc":`...)
		dst = AppendMarshalString(dst, dcid)
	}
	if boot != 0 {
		dst = append(dst, `,"boot":`...)
		dst = strconv.AppendUint(dst, boot, 10)
	}
	if seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, seq, 10)
	}
	return append(dst, '}')
}

// appendSummary appends the FusedSummary object in its json-tag field order.
func appendSummary(dst []byte, s *FusedSummary) ([]byte, error) {
	dst = append(dst, `{"shard_id":`...)
	dst = AppendMarshalString(dst, s.ShardID)
	dst = append(dst, `,"component":`...)
	dst = AppendMarshalString(dst, s.Component)
	dst = append(dst, `,"condition":`...)
	dst = AppendMarshalString(dst, s.Condition)
	if s.Group != "" {
		dst = append(dst, `,"group":`...)
		dst = AppendMarshalString(dst, s.Group)
	}
	dst = append(dst, `,"belief":`...)
	dst, err := AppendMarshalFloat(dst, s.Belief)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"plausibility":`...)
	if dst, err = AppendMarshalFloat(dst, s.Plausibility); err != nil {
		return dst, err
	}
	dst = append(dst, `,"unknown":`...)
	if dst, err = AppendMarshalFloat(dst, s.Unknown); err != nil {
		return dst, err
	}
	if s.Reports != 0 {
		dst = append(dst, `,"reports":`...)
		dst = strconv.AppendInt(dst, int64(s.Reports), 10)
	}
	dst = append(dst, `,"reliability":`...)
	if dst, err = AppendMarshalFloat(dst, s.Reliability); err != nil {
		return dst, err
	}
	if s.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if len(s.Prognostics) > 0 {
		dst = append(dst, `,"prognostics":`...)
		if dst, err = AppendPrognosticsJSON(dst, s.Prognostics); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `,"updated_at":`...)
	if dst, err = AppendMarshalTime(dst, s.UpdatedAt); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendReport appends the Report object in its json-tag field order.
func appendReport(dst []byte, r *Report) ([]byte, error) {
	dst = append(dst, `{"dc_id":`...)
	dst = AppendMarshalString(dst, r.DCID)
	dst = append(dst, `,"knowledge_source_id":`...)
	dst = AppendMarshalString(dst, r.KnowledgeSourceID)
	dst = append(dst, `,"sensed_object_id":`...)
	dst = AppendMarshalString(dst, r.SensedObjectID)
	dst = append(dst, `,"machine_condition_id":`...)
	dst = AppendMarshalString(dst, r.MachineConditionID)
	dst = append(dst, `,"severity":`...)
	dst, err := AppendMarshalFloat(dst, r.Severity)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"belief":`...)
	if dst, err = AppendMarshalFloat(dst, r.Belief); err != nil {
		return dst, err
	}
	if r.Explanation != "" {
		dst = append(dst, `,"explanation":`...)
		dst = AppendMarshalString(dst, r.Explanation)
	}
	if r.Recommendations != "" {
		dst = append(dst, `,"recommendations":`...)
		dst = AppendMarshalString(dst, r.Recommendations)
	}
	dst = append(dst, `,"timestamp":`...)
	if dst, err = AppendMarshalTime(dst, r.Timestamp); err != nil {
		return dst, err
	}
	if r.AdditionalInfo != "" {
		dst = append(dst, `,"additional_info":`...)
		dst = AppendMarshalString(dst, r.AdditionalInfo)
	}
	if len(r.SuspectChannels) > 0 {
		dst = append(dst, `,"suspect_channels":`...)
		dst = AppendMarshalStrings(dst, r.SuspectChannels)
	}
	if len(r.Prognostics) > 0 {
		dst = append(dst, `,"prognostics":`...)
		if dst, err = AppendPrognosticsJSON(dst, r.Prognostics); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// AppendPrognosticsJSON appends v exactly as json.Marshal writes it — null
// for a nil vector, [] for an empty one, floats in encoding/json's format —
// and returns the extended buffer. NaN and infinities are refused, as
// json.Marshal refuses them.
func AppendPrognosticsJSON(dst []byte, v PrognosticVector) ([]byte, error) {
	if v == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	var err error
	for i, p := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"probability":`...)
		if dst, err = AppendMarshalFloat(dst, p.Probability); err != nil {
			return dst, err
		}
		dst = append(dst, `,"time":`...)
		if dst, err = AppendMarshalFloat(dst, p.HorizonSeconds); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// AppendMarshalFloat appends a float64 as encoding/json formats one: like
// ES6, 'f' except for magnitudes below 1e-6 or from 1e21 on, which take 'e'
// with a two-digit negative exponent trimmed (e-07 → e-7). NaN and infinities
// are refused, as json.Marshal refuses them.
func AppendMarshalFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("proto: unsupported value %g in JSON", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendMarshalString appends s quoted exactly as json.Marshal writes a
// string: quote, backslash and control characters escaped (\b \f \n \r \t
// by name, the rest as \u00xx), HTML's < > & as \u003c \u003e \u0026,
// U+2028 and U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as
// \ufffd.
func AppendMarshalString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendMarshalStrings appends names exactly as json.Marshal writes a
// []string: null for a nil slice, [] for an empty one.
func AppendMarshalStrings(dst []byte, names []string) []byte {
	if names == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, n := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendMarshalString(dst, n)
	}
	return append(dst, ']')
}

// AppendMarshalTime appends t exactly as json.Marshal writes a time.Time —
// quoted RFC 3339 with nanoseconds — and refuses what it refuses: a year
// outside [0, 9999], or a zone offset of 24 hours or more.
func AppendMarshalTime(dst []byte, t time.Time) ([]byte, error) {
	if y := t.Year(); y < 0 || y >= 10000 {
		return dst, fmt.Errorf("proto: timestamp year %d outside RFC 3339 range", y)
	}
	if _, offset := t.Zone(); offset <= -24*3600 || offset >= 24*3600 {
		return dst, fmt.Errorf("proto: timestamp zone offset %ds outside RFC 3339 range", offset)
	}
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"'), nil
}
