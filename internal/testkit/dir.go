package testkit

import (
	"os"
	"strings"
	"testing"
)

// KeptDir returns a new temporary directory that outlives a failing test: it
// is removed when the test passes, and kept, with its path logged, when it
// fails, so the journals and spools a chaos run leaves can be read after it.
func KeptDir(t testing.TB) string {
	t.Helper()
	name := strings.Map(func(r rune) rune {
		if r == '/' || r == os.PathSeparator {
			return '_'
		}
		return r
	}, t.Name())
	dir, err := os.MkdirTemp("", name+"-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("kept %s for the failure", dir)
			return
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Errorf("remove %s: %v", dir, err)
		}
	})
	return dir
}
