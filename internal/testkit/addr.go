package testkit

import (
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
)

// FreeAddr returns a loopback address that was free when asked, for a child
// process or a later server to listen on. Its port lies below the kernel's
// ephemeral range, so no ":0" listener and no outgoing dial is given it in
// between, and a restarted server can bind it again. Only a fixed bind can
// take it, such as another FreeAddr's, which the random choice makes unlikely.
func FreeAddr(t testing.TB) string {
	t.Helper()
	ephemeral := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		low, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\t")
		if n, err := strconv.Atoi(low); err == nil && n > 1024 {
			ephemeral = n
		}
	}
	for range 64 {
		addr := fmt.Sprintf("127.0.0.1:%d", 1024+rand.IntN(ephemeral-1024))
		if ln, err := net.Listen("tcp", addr); err == nil {
			ln.Close()
			return addr
		}
	}
	t.Fatalf("no free loopback port below %d", ephemeral)
	return ""
}
