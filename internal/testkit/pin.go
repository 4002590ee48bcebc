// Package testkit holds what the module's tests share; only _test.go files
// import it. Lines and Bytes hold a test's output to a committed file and
// rewrite the file under the module's one -update flag. Carried checks that a
// checkpoint carries a live value's state: the value restored from it must
// equal the live one, and that equality proves something only for the fields
// the test actually set. FreeAddr hands out a loopback address no other test
// can take. KeptDir is a temporary directory a failing test leaves behind.
package testkit

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the pinned files of the tests that run from this build")

// An Option narrows a pin to one section of its file, or words its failure.
type Option func(*pin)

type pin struct {
	prefix, begin, end string
	describe           func(got, want string) string
}

// Section pins only the run of lines that start with prefix ("E9 "); where
// the file has none, the run is empty and sits at the file's end.
func Section(prefix string) Option { return func(p *pin) { p.prefix = prefix } }

// Between pins only the lines between the marker lines begin and end, which
// the file must hold.
func Between(begin, end string) Option { return func(p *pin) { p.begin, p.end = begin, end } }

// Describe has a failure say how a line differs by f(got, want), in place of
// quoting both.
func Describe(f func(got, want string) string) Option { return func(p *pin) { p.describe = f } }

// Lines fails t, naming the file, the line and the first difference, unless
// got equals the lines of file or of the section the options name. Under
// -update it writes got there instead, leaving the rest of the file as it is.
func Lines(t testing.TB, file string, got []string, opts ...Option) {
	t.Helper()
	p := pin{describe: func(g, w string) string { return fmt.Sprintf("got %q, want %q", g, w) }}
	for _, o := range opts {
		o(&p)
	}
	data, err := os.ReadFile(file)
	if err != nil && !(*update && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	var all []string
	if len(data) > 0 {
		all = strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	}
	lo, hi := p.span(t, file, all)
	if *update {
		write(t, file, []byte(strings.Join(slices.Concat(all[:lo], got, all[hi:]), "\n")+"\n"))
		return
	}
	want := all[lo:hi]
	for i := range max(len(got), len(want)) {
		var diff string
		switch {
		case i >= len(want):
			diff = fmt.Sprintf("extra line %q", got[i])
		case i >= len(got):
			diff = fmt.Sprintf("missing line %q", want[i])
		case got[i] != want[i]:
			diff = p.describe(got[i], want[i])
		default:
			continue
		}
		t.Errorf("%s:%d: %s", file, lo+i+1, diff)
		return
	}
}

// span is the half-open range of lines the pin holds.
func (p *pin) span(t testing.TB, file string, lines []string) (lo, hi int) {
	t.Helper()
	switch {
	case p.prefix != "":
		has := func(l string) bool { return strings.HasPrefix(l, p.prefix) }
		if lo = slices.IndexFunc(lines, has); lo < 0 {
			return len(lines), len(lines)
		}
		for hi = lo; hi < len(lines) && has(lines[hi]); hi++ {
		}
		return lo, hi
	case p.begin != "":
		lo = slices.Index(lines, p.begin) + 1
		if hi = slices.Index(lines[lo:], p.end); lo == 0 || hi < 0 {
			t.Fatalf("%s has no line %q followed by a line %q", file, p.begin, p.end)
		}
		return lo, lo + hi
	}
	return 0, len(lines)
}

// Bytes fails t, naming the file, the line and the first differing byte,
// unless got equals file's bytes. Under -update it writes got there instead.
func Bytes(t testing.TB, file string, got []byte) {
	t.Helper()
	if *update {
		write(t, file, got)
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	if i < max(len(got), len(want)) {
		around := func(b []byte) []byte { return b[max(0, i-24):min(len(b), i+24)] }
		t.Errorf("%s:%d: byte %d differs (%d bytes, %d pinned): got %q, want %q",
			file, 1+strings.Count(string(want[:i]), "\n"), i, len(got), len(want), around(got), around(want))
	}
}

func write(t testing.TB, file string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
