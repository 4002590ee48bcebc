// Package seglog is the one append-only log MPROS keeps on disk. The PDME
// journal (WAL and checkpoint), the uplink spool, the historian's channel
// files and the DC's report log are all files of this layout, and this
// package is the only code that frames, checksums, scans, truncates or
// renames them:
//
//	header:  8-byte magic | u16 metaLen | meta
//	records: u32 recMagic | u8 kind | u64 seq | u32 bodyLen | body | u32 crc
//
// All integers little-endian; the CRC (IEEE) covers kind through body. The
// magic names the file family and its version; meta, kind, seq and body are
// the caller's. Every append — one record, or a batch framed back to back —
// reaches the file in a single write, so a crash can only leave a prefix of
// the final one: whole records, then at most one torn one. Recovery therefore
// has one rule:
//
//   - a file shorter than its header, or an incomplete final record, is a
//     torn tail: truncate to the last whole record, fsync, continue;
//   - a wrong magic, a CRC mismatch, a body length over the format's limit,
//     or a record the caller's callback rejects is corruption: refuse the
//     file with an error naming the offset.
//
// Records are numbered in file order from 0 at open (see Next). A log
// forgets one way only: DropBefore removes every record before a given
// ordinal by copying the bytes of the kept ones into a new file, so no owner
// re-encodes what it keeps. Replacing a file (that drop, a checkpoint) goes
// temp file → fsync → rename → directory fsync; a stale temp left by a crash
// mid-replace is removed on the next open. Nothing reads the temp before the
// rename commits it whole, so a large record may reach it in more than one
// write, straight from the caller's buffer rather than through a frame copy.
//
// A Log has no lock and starts no goroutine: each owner already serialises
// its appends under its own mutex.
package seglog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

const (
	magicLen  = 8
	recMagic  = uint32(0x314C4753) // "SGL1"
	recHeader = 4 + 1 + 8 + 4      // magic + kind + seq + bodyLen
	recFrame  = recHeader + 4      // … and the CRC after the body

	tmpSuffix = ".tmp"

	// retainFrame caps the frame buffer a Log keeps between appends, so one
	// large record (a historian block, a checkpoint) does not pin its size
	// for the life of the handle.
	retainFrame = 64 << 10
)

// RecordOverhead is what one record occupies in a file beyond its body: the
// frame around it.
const RecordOverhead = recFrame

// Format declares one file family: its 8-byte magic and the largest record
// body it accepts, on append and on scan alike.
type Format struct {
	Magic   string
	MaxBody int
}

// Record is one record's caller-owned part: what a scan hands to its callback
// and what AppendBatch frames. A scanned Body aliases the scan buffer and is
// valid only until the callback returns; copy what must outlive it.
type Record struct {
	Kind byte
	Seq  uint64
	Body []byte
}

// Log is an open log file positioned for append.
type Log struct {
	path string
	ft   Format
	meta []byte
	f    *os.File
	buf  []byte // frames of the last append, reused
	// size is the offset just past the last append that completed.
	size int64
	// first and next are the ordinals of the first record in the file and
	// of the next one appended.
	first, next uint64
	// staged marks the temp file replace builds: see Append.
	staged bool
}

// Open opens the log at path for append, creating it with meta in its header
// when there is no file, an empty file, or a file a crash cut short inside
// the header. Otherwise the header on disk stands (see Meta) and visit sees
// every whole record in order; a torn final record is truncated away and its
// length returned. Corruption, including any error from visit, refuses the
// file untouched.
func Open(path string, ft Format, meta []byte, visit func(Record) error) (*Log, int64, error) {
	if err := clearTemp(path); err != nil {
		return nil, 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("seglog: read %s: %w", path, err)
	}
	onDisk, good, n, err := scan(path, data, ft, visit)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("seglog: open %s: %w", path, err)
	}
	l := &Log{path: path, ft: ft, meta: onDisk, f: f, size: int64(good), next: n}
	torn := int64(len(data) - good)
	if torn > 0 {
		if err := f.Truncate(int64(good)); err != nil {
			_ = f.Close() // best effort: the truncate error is the story
			return nil, 0, fmt.Errorf("seglog: truncate torn tail of %s: %w", path, err)
		}
	}
	if good == 0 {
		// No header survived (or none was ever written): this is a create.
		l.meta = append([]byte(nil), meta...)
		if err := l.writeHeader(); err != nil {
			_ = f.Close() // best effort: the write error is the story
			return nil, 0, err
		}
	}
	if torn > 0 || good == 0 {
		if err := f.Sync(); err != nil {
			_ = f.Close() // best effort: the sync error is the story
			return nil, 0, fmt.Errorf("seglog: sync repaired %s: %w", path, err)
		}
	}
	return l, torn, nil
}

// Scan reads the log at path without repairing it: anything but a whole
// header followed by whole records is an error. It returns the header's
// meta. A missing file is reported with an error wrapping fs.ErrNotExist.
// The only thing Scan ever deletes is, as Open does, the stale temp of an
// interrupted WriteFile.
func Scan(path string, ft Format, visit func(Record) error) ([]byte, error) {
	if err := clearTemp(path); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("seglog: read %s: %w", path, err)
	}
	meta, good, _, err := scan(path, data, ft, visit)
	if err != nil {
		return nil, err
	}
	if good == 0 || good != len(data) {
		return nil, fmt.Errorf("seglog: %s: incomplete at offset %d of %d (corrupted)", path, good, len(data))
	}
	return meta, nil
}

// scan walks data, returning a copy of the header's meta, the offset just
// past the last whole record — 0 when not even the header is whole — and
// how many whole records it saw.
func scan(path string, data []byte, ft Format, visit func(Record) error) (meta []byte, good int, n uint64, err error) {
	if m := min(len(data), magicLen); string(data[:m]) != ft.Magic[:m] {
		return nil, 0, 0, fmt.Errorf("seglog: %s: bad file magic, want %s (not this format, or corrupted)", path, ft.Magic)
	}
	if len(data) < magicLen+2 {
		return nil, 0, 0, nil
	}
	off := magicLen + 2 + int(binary.LittleEndian.Uint16(data[magicLen:]))
	if len(data) < off {
		return nil, 0, 0, nil
	}
	meta = bytes.Clone(data[magicLen+2 : off])
	for len(data)-off >= recHeader {
		if binary.LittleEndian.Uint32(data[off:]) != recMagic {
			return nil, 0, 0, fmt.Errorf("seglog: %s: bad record magic at offset %d (corrupted)", path, off)
		}
		bodyLen := int(binary.LittleEndian.Uint32(data[off+13:]))
		if bodyLen > ft.MaxBody {
			return nil, 0, 0, fmt.Errorf("seglog: %s: record body %d over limit %d at offset %d (corrupted)", path, bodyLen, ft.MaxBody, off)
		}
		end := off + recHeader + bodyLen
		if len(data)-end < 4 {
			break // the final record never finished its single-write append
		}
		if crc32.ChecksumIEEE(data[off+4:end]) != binary.LittleEndian.Uint32(data[end:]) {
			// A torn single-write append leaves a short record, never a
			// full-length one with a bad CRC: refused even at the tail.
			return nil, 0, 0, fmt.Errorf("seglog: %s: record CRC mismatch at offset %d (corrupted)", path, off)
		}
		rec := Record{Kind: data[off+4], Seq: binary.LittleEndian.Uint64(data[off+5:]), Body: data[off+recHeader : end]}
		if err := visit(rec); err != nil {
			return nil, 0, 0, fmt.Errorf("seglog: %s: record at offset %d: %w (corrupted)", path, off, err)
		}
		off = end + 4
		n++
	}
	return meta, off, n, nil
}

// Meta returns the caller's section of the header on disk; do not modify it.
func (l *Log) Meta() []byte { return l.meta }

func (l *Log) writeHeader() error {
	if len(l.meta) > math.MaxUint16 {
		return fmt.Errorf("seglog: header meta of %s is %d bytes, over the u16 length field", l.path, len(l.meta))
	}
	hdr := make([]byte, 0, magicLen+2+len(l.meta))
	hdr = append(hdr, l.ft.Magic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(l.meta)))
	hdr = append(hdr, l.meta...)
	if _, err := l.f.Write(hdr); err != nil {
		return fmt.Errorf("seglog: write header of %s: %w", l.path, err)
	}
	l.size = int64(len(hdr))
	return nil
}

// Next returns the ordinal the next appended record gets: Open numbers the
// records it finds from 0 in file order, and every record appended through
// this handle takes the next number. DropBefore renumbers nothing.
func (l *Log) Next() uint64 { return l.next }

// Append frames one record and hands it to the file in a single write. It
// does not fsync; callers that acknowledge the record follow with Sync. On
// the log a WriteFile is building, a body over the frame buffer's retained
// size is written in place between its header and its CRC instead:
// the rename publishes the file whole, so the record need not reach it in
// one write, and the body is not copied.
func (l *Log) Append(kind byte, seq uint64, body []byte) error {
	if l.staged && len(body) > retainFrame && len(body) <= l.ft.MaxBody {
		return l.appendInPlace(kind, seq, body)
	}
	return l.AppendBatch([]Record{{Kind: kind, Seq: seq, Body: body}})
}

// appendInPlace writes one record as header, body and CRC, in three writes.
func (l *Log) appendInPlace(kind byte, seq uint64, body []byte) error {
	var hdr [recHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], recMagic)
	hdr[4] = kind
	binary.LittleEndian.PutUint64(hdr[5:], seq)
	binary.LittleEndian.PutUint32(hdr[13:], uint32(len(body)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Update(crc32.ChecksumIEEE(hdr[4:]), crc32.IEEETable, body))
	for _, part := range [][]byte{hdr[:], body, crc[:]} {
		if _, err := l.f.Write(part); err != nil {
			return fmt.Errorf("seglog: append to %s: %w", l.path, err)
		}
	}
	l.size += int64(recFrame + len(body))
	l.next++
	return nil
}

// ErrBodyTooLarge is wrapped by an append refused for a body over the
// format's limit: nothing was written, the log is as it was.
var ErrBodyTooLarge = errors.New("seglog: record body exceeds limit")

// AppendBatch frames recs back to back in one buffer and hands that to the
// file in a single write, so a crash still leaves a prefix of the final
// write: whole records followed by at most one torn one, which is what
// recovery expects. Nothing is written when any body is over the limit.
func (l *Log) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	size := 0
	for _, r := range recs {
		if len(r.Body) > l.ft.MaxBody {
			return fmt.Errorf("%w: %d bytes, limit %d of %s", ErrBodyTooLarge, len(r.Body), l.ft.MaxBody, l.ft.Magic)
		}
		size += recFrame + len(r.Body)
	}
	buf := slices.Grow(l.buf[:0], size) // room for every frame: a large body is copied once
	for _, r := range recs {
		start := len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, recMagic)
		buf = append(buf, r.Kind)
		buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Body)))
		buf = append(buf, r.Body...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start+4:]))
	}
	if cap(buf) <= retainFrame {
		l.buf = buf
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("seglog: append to %s: %w", l.path, err)
	}
	l.size += int64(len(buf))
	l.next += uint64(len(recs))
	return nil
}

// Sync makes every record appended so far durable.
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("seglog: fsync %s: %w", l.path, err)
	}
	return nil
}

// Close syncs and closes the file.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		_ = l.f.Close() // best effort: the sync error is the story
		return fmt.Errorf("seglog: sync %s on close: %w", l.path, err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("seglog: close %s: %w", l.path, err)
	}
	return nil
}

// DropBefore removes every record whose ordinal is below ord, keeping the
// header and the later records' bytes as they are: it copies them from the
// current file into a new one that replaces it. An ord at or below the
// first record's drops nothing and writes nothing; one past Next is refused.
// The live handle is swapped
// last: when DropBefore fails before the rename, the log still appends to
// the old file and the temp file is gone; after the rename the records are
// gone, whatever the error.
func (l *Log) DropBefore(ord uint64) error {
	if ord <= l.first {
		return nil
	}
	if ord > l.next {
		return fmt.Errorf("seglog: drop before record %d of %s, past the next one (%d)", ord, l.path, l.next)
	}
	w, err := replace(l.path, l.ft, l.meta, func(w *Log) error {
		src, err := os.Open(l.path)
		if err != nil {
			return fmt.Errorf("seglog: open %s to copy records: %w", l.path, err)
		}
		defer src.Close() // read-only: nothing to flush
		// One sequential pass: skip the dropped records' frames, copy the rest.
		from := int64(magicLen + 2 + len(l.meta))
		r := bufio.NewReader(io.NewSectionReader(src, from, l.size-from))
		for i := l.first; i < ord; i++ {
			hdr, err := r.Peek(recHeader)
			if err == nil && binary.LittleEndian.Uint32(hdr) != recMagic {
				err = errors.New("bad record magic (corrupted)")
			}
			n := 0
			if err == nil {
				n = recFrame + int(binary.LittleEndian.Uint32(hdr[13:]))
				_, err = r.Discard(n)
			}
			if err != nil {
				return fmt.Errorf("seglog: skip the record at offset %d of %s: %w", from, l.path, err)
			}
			from += int64(n)
		}
		n, err := r.WriteTo(w.f)
		if err == nil && n != l.size-from {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return fmt.Errorf("seglog: copy records of %s: %w", l.path, err)
		}
		w.size += n
		return nil
	})
	if w != nil {
		// The rename happened: path now names the new file, and the handle
		// it was written through is already positioned for append.
		_ = l.f.Close() // best effort: the old file is unlinked
		l.f, l.size, l.first = w.f, w.size, ord
	}
	return err
}

// WriteFile atomically replaces (or creates) the whole log at path with a
// header carrying meta plus the records emit appends — the same routine as
// DropBefore, for a file nobody holds open (the journal checkpoint).
func WriteFile(path string, ft Format, meta []byte, emit func(*Log) error) error {
	w, err := replace(path, ft, meta, emit)
	if w != nil {
		if cerr := w.f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("seglog: close %s: %w", path, cerr)
		}
	}
	return err
}

// replace builds path+".tmp", fsyncs it, renames it over path and fsyncs
// the directory. The returned log, the one emit appended to, is non-nil
// exactly when the rename happened, even if the directory fsync after it
// failed.
func replace(path string, ft Format, meta []byte, emit func(*Log) error) (*Log, error) {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("seglog: create %s: %w", tmp, err)
	}
	w := &Log{path: tmp, ft: ft, meta: meta, f: f, staged: true}
	err = w.writeHeader()
	if err == nil {
		err = emit(w)
	}
	if err == nil {
		err = w.Sync()
	}
	if err == nil {
		if err = os.Rename(tmp, path); err != nil {
			err = fmt.Errorf("seglog: commit %s: %w", path, err)
		}
	}
	if err != nil {
		_ = f.Close()      // best effort: the first error is the story
		_ = os.Remove(tmp) // best effort: a stale temp is cleared on the next open
		return nil, err
	}
	w.path, w.staged = path, false
	return w, syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss, not merely process death.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("seglog: open dir for sync: %w", err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // best effort: the sync error is the story
		return fmt.Errorf("seglog: sync dir %s: %w", dir, err)
	}
	return d.Close()
}

// clearTemp removes a temp file left by a crash mid-replace: the rename
// never happened, so it is dead weight.
func clearTemp(path string) error {
	if err := os.Remove(path + tmpSuffix); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("seglog: clear stale temp: %w", err)
	}
	return nil
}

// FileName maps a key (a DC id, a channel name) to a filesystem-safe file
// name: every byte outside [A-Za-z0-9._-] becomes %XX, which is
// collision-free and reversible (see FileKey).
func FileName(key, ext string) string {
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String() + ext
}

// FileKey is FileName's inverse. It lets an owner that lists a directory
// name the log a crash cut short inside its header, where the name cannot
// be read back from meta.
func FileKey(name, ext string) (string, error) {
	stem, ok := strings.CutSuffix(name, ext)
	if !ok {
		return "", fmt.Errorf("seglog: file name %q lacks extension %q", name, ext)
	}
	var b strings.Builder
	for i := 0; i < len(stem); i++ {
		if stem[i] != '%' {
			b.WriteByte(stem[i])
			continue
		}
		if i+3 > len(stem) {
			return "", fmt.Errorf("seglog: file name %q ends inside an escape", name)
		}
		v, err := strconv.ParseUint(stem[i+1:i+3], 16, 8)
		if err != nil {
			return "", fmt.Errorf("seglog: file name %q has a bad escape: %w", name, err)
		}
		b.WriteByte(byte(v))
		i += 2
	}
	return b.String(), nil
}
