// Package leakcheck is a goroutine-leak gate for test binaries: a
// package's TestMain runs its tests through Run, which fails the binary
// when goroutines the tests started are still running after they end.
// Only test files import it.
package leakcheck

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle bounds how long Run waits for goroutines that are already
// stopping (a closed server's connection handlers, a writer draining).
const settle = 5 * time.Second

// Run runs m's tests and returns the exit code for os.Exit. When the
// tests pass but the goroutine count stays above its starting value for
// longer than the settle time, Run dumps every goroutine's stack to
// stderr and returns 1.
func Run(m *testing.M) int {
	start := runtime.NumGoroutine()
	if code := m.Run(); code != 0 {
		return code
	}
	// Kept-alive client connections are pooled, not leaked.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(settle)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines still running after the tests, %d at start:\n\n%s\n",
				runtime.NumGoroutine(), start, buf)
			return 1
		}
		time.Sleep(10 * time.Millisecond)
	}
	return 0
}
