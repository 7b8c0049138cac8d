package storage

import (
	"os"
	"testing"

	"seamlesstune/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running —
// an abandoned WAL writer or compactor.
func TestMain(m *testing.M) { os.Exit(leakcheck.Run(m)) }
