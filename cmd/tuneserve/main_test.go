package main

import (
	"os"
	"testing"

	"seamlesstune/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running —
// a server that was never closed, a sampler, compactor or SSE handler
// that outlived shutdown.
func TestMain(m *testing.M) { os.Exit(leakcheck.Run(m)) }
