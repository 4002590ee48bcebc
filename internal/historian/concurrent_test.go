package historian

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentReadersOneWriter is the store's concurrency contract, run
// under -race in CI: one writer per channel appends (crossing several seal
// boundaries) while readers continuously query raw ranges, rollups, stats
// and latest. Readers must always observe a prefix-consistent, time-ordered
// view.
func TestConcurrentReadersOneWriter(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	const (
		channels = 4
		perChan  = 5000
		readers  = 3
	)
	names := []string{"c/0", "c/1", "c/2", "c/3"}
	for _, n := range names {
		ensure(t, s, ChannelConfig{Name: n})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, channels+readers*channels)

	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < perChan; i++ {
				at := t0.Add(time.Duration(i) * time.Second)
				if err := s.Append(name, at, float64(i)); err != nil {
					errs <- err
					return
				}
				// Seal every head now and then, so reads cross seals.
				if i%1024 == 1023 {
					if err := s.Sync(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(name)
	}
	for r := 0; r < readers; r++ {
		for _, name := range names {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					it, err := s.Query(name, time.Time{}, time.Time{})
					if err != nil {
						errs <- err
						return
					}
					var prev time.Time
					n := 0
					for it.Next() {
						if it.At().At.Before(prev) {
							errs <- errDisordered(name)
							return
						}
						prev = it.At().At
						n++
					}
					if _, err := s.QueryRollup(name, time.Minute, time.Time{}, time.Time{}); err != nil {
						errs <- err
						return
					}
					if _, err := s.Stats(name); err != nil {
						errs <- err
						return
					}
				}
			}(name)
		}
	}

	// Wait for all writers, then release the readers.
	writerDone := make(chan struct{})
	go func() {
		// The writer goroutines are the first `channels` Adds; simplest is
		// to poll completion via sample counts.
		for {
			done := 0
			for _, n := range names {
				st, err := s.Stats(n)
				if err == nil && st.Samples == perChan {
					done++
				}
			}
			if done == channels {
				close(writerDone)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	<-writerDone
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, n := range names {
		got, err := s.QueryAll(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != perChan {
			t.Fatalf("%s: %d samples, want %d", n, len(got), perChan)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

type errDisordered string

func (e errDisordered) Error() string { return "disordered read on channel " + string(e) }
