// Package netfault is a fault-injecting TCP proxy for exercising the
// DC→PDME report path under the communications instability §4.9 flags as a
// shipboard deployment concern. It interposes a net.Listener between a
// client and a real server and mangles the byte streams flowing through it:
// added latency, probabilistic byte corruption, probabilistic mid-frame
// connection resets, a reset at an exact reply-byte count, every-Nth
// connection refusal, and full partitions toggled at runtime. All randomness
// is seeded, so chaos tests are reproducible.
//
// The proxy is transport-agnostic (it never parses frames); the uplink and
// proto tests point clients at Proxy.Addr() instead of the server and drive
// faults through SetPartition/KillConns/SetOptions.
package netfault

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Options selects the fault mix. The zero value forwards cleanly.
type Options struct {
	// Latency is added before each chunk is forwarded (each direction).
	Latency time.Duration
	// CorruptProb is the per-chunk probability of flipping one byte.
	CorruptProb float64
	// ResetProb is the per-chunk probability of resetting the connection
	// mid-stream (both halves are torn down, possibly mid-frame).
	ResetProb float64
	// CutRepliesAfter resets each connection once it has carried exactly this
	// many bytes toward the client, forwarding those first: with fixed-size
	// replies, "after the k-th reply of a pipelined exchange". 0 never cuts.
	CutRepliesAfter int64
	// DropConnEvery refuses (accepts then immediately closes) every Nth
	// accepted connection; 0 never refuses.
	DropConnEvery int
	// Seed drives the proxy's reproducible randomness (0 is used as-is).
	Seed int64
}

// Stats counts injected faults and traffic.
type Stats struct {
	Accepted    int64 // connections accepted
	Refused     int64 // connections dropped at accept (DropConnEvery, partition)
	Resets      int64 // mid-stream connection resets injected
	Corruptions int64 // bytes flipped
	BytesMoved  int64 // payload bytes forwarded (both directions)
}

// Proxy is one listening fault injector in front of a target address.
type Proxy struct {
	target string
	ln     net.Listener

	mu          sync.Mutex
	opts        Options
	rng         *rand.Rand
	partitioned bool
	closed      bool
	conns       map[net.Conn]struct{} // both client- and server-side halves
	stats       Stats

	wg sync.WaitGroup
}

// New starts a proxy on an ephemeral loopback port forwarding to target.
func New(target string, opts Options) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		target: target,
		ln:     ln,
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		conns:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.acceptLoop()
	}()
	return p, nil
}

// Addr returns the address clients should dial instead of the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetPartition opens (true) or heals (false) a full partition: existing
// connections are reset and new ones are refused until healed.
func (p *Proxy) SetPartition(on bool) {
	p.mu.Lock()
	p.partitioned = on
	p.mu.Unlock()
	if on {
		p.KillConns()
	}
}

// KillConns resets every active connection — a burst of mid-frame resets.
func (p *Proxy) KillConns() {
	p.mu.Lock()
	for c := range p.conns {
		_ = c.Close()
	}
	p.stats.Resets++
	p.mu.Unlock()
}

// Stats returns a snapshot of the fault counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close stops the listener and tears down all connections.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return
		}
		p.stats.Accepted++
		refuse := p.partitioned
		if n := p.opts.DropConnEvery; n > 0 && p.stats.Accepted%int64(n) == 0 {
			refuse = true
		}
		if refuse {
			p.stats.Refused++
			p.mu.Unlock()
			_ = conn.Close()
			continue
		}
		p.mu.Unlock()
		upstream, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = conn.Close()
			continue
		}
		p.mu.Lock()
		if p.closed || p.partitioned {
			p.mu.Unlock()
			_ = conn.Close()
			_ = upstream.Close()
			continue
		}
		p.conns[conn] = struct{}{}
		p.conns[upstream] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(conn, upstream, false)
		go p.pipe(upstream, conn, true)
	}
}

// pipe forwards src→dst chunk by chunk, applying the fault mix. Closing
// either half tears down both (so a reset injected on one direction kills
// the connection pair, exactly like a RST). toClient marks the reply
// direction, the one CutRepliesAfter counts.
func (p *Proxy) pipe(src, dst net.Conn, toClient bool) {
	defer p.wg.Done()
	defer func() {
		_ = src.Close()
		_ = dst.Close()
		p.mu.Lock()
		delete(p.conns, src)
		delete(p.conns, dst)
		p.mu.Unlock()
	}()
	buf := make([]byte, 4096)
	var moved int64
	for {
		n, err := src.Read(buf)
		if n > 0 {
			latency, reset, corruptAt := p.chunkFaults(n)
			cut := false
			if after := p.cutAfter(toClient); after > 0 && moved+int64(n) >= after {
				// Forward up to the cut, then reset instead of reading on.
				n, cut = int(after-moved), true
			}
			if latency > 0 {
				time.Sleep(latency)
			}
			if reset {
				return
			}
			if corruptAt >= 0 {
				buf[corruptAt] ^= 0xA5
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			moved += int64(n)
			p.mu.Lock()
			p.stats.BytesMoved += int64(n)
			if cut {
				p.stats.Resets++
			}
			p.mu.Unlock()
			if cut {
				return
			}
		}
		if err != nil {
			return // EOF or error: tear down the pair (request/reply protocols redial)
		}
	}
}

// cutAfter returns the current reply-byte cut for a pipe in the given
// direction (0: none).
func (p *Proxy) cutAfter(toClient bool) int64 {
	if !toClient {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.opts.CutRepliesAfter
}

// chunkFaults rolls the dice for one forwarded chunk under the lock.
func (p *Proxy) chunkFaults(n int) (latency time.Duration, reset bool, corruptAt int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	latency = p.opts.Latency
	corruptAt = -1
	if p.opts.ResetProb > 0 && p.rng.Float64() < p.opts.ResetProb {
		p.stats.Resets++
		return latency, true, -1
	}
	if p.opts.CorruptProb > 0 && p.rng.Float64() < p.opts.CorruptProb {
		p.stats.Corruptions++
		corruptAt = p.rng.Intn(n)
	}
	return latency, false, corruptAt
}
