package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"seamlesstune/internal/api"
)

// runStorage implements `tunectl storage`: it reports the server's
// persistence tier — backend, segment layout, append counters, queue
// pressure, and fsync latency quantiles pulled from the JSON metrics
// exposition — and with -compact forces a compaction first, so operators
// can fold cold segments before a planned restart.
func runStorage(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tunectl storage", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8642", "tuneserve base URL")
	compact := fs.Bool("compact", false, "force a compaction before reporting")
	asJSON := fs.Bool("json", false, "print the raw stats JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	c := api.NewClient(*server)
	fetch := c.Storage
	if *compact {
		fetch = c.Compact
	}
	st, err := fetch(ctx)
	if err != nil {
		return err
	}
	if *compact {
		fmt.Fprintf(out, "compaction complete (%d total)\n", st.Compactions)
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}

	fmt.Fprintf(out, "backend: %s\n", st.Backend)
	switch st.Backend {
	case "wal":
		fmt.Fprintf(out, "  dir:         %s\n", st.Dir)
		fmt.Fprintf(out, "  segments:    %d (%d sealed, active #%d)\n",
			st.Segments, st.SealedSegments, st.ActiveSegment)
		fmt.Fprintf(out, "  disk:        %s\n", formatBytes(st.DiskBytes))
		fmt.Fprintf(out, "  appended:    %d records, %d events (%d dropped)\n",
			st.Records, st.Events, st.EventsDropped)
		fmt.Fprintf(out, "  queue:       %d/%d", st.QueueDepth, st.QueueCap)
		if st.Saturated {
			fmt.Fprintf(out, "  SATURATED — submissions shedding")
		}
		fmt.Fprintln(out)
		fmt.Fprintf(out, "  fsyncs:      %d\n", st.Fsyncs)
		fmt.Fprintf(out, "  compactions: %d", st.Compactions)
		if st.LastCompactionUnix > 0 {
			fmt.Fprintf(out, " (last %s)", time.Unix(st.LastCompactionUnix, 0).UTC().Format(time.RFC3339))
		}
		fmt.Fprintln(out)
		fmt.Fprintf(out, "  recovery:    %d records, %d events in %.3fs\n",
			st.RecoveredRecords, st.RecoveredEvents, st.RecoverySeconds)
		if err := printFsyncQuantiles(ctx, c, out); err != nil {
			return err
		}
	default:
		fmt.Fprintf(out, "  (no persistence)\n")
	}
	if st.Errors > 0 {
		fmt.Fprintf(out, "  errors:      %d\n", st.Errors)
	}
	return nil
}

// printFsyncQuantiles reads the JSON metrics exposition — the only one
// carrying sketch quantiles — and reports fsync latency percentiles.
func printFsyncQuantiles(ctx context.Context, c *api.Client, out io.Writer) error {
	snap, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	for _, f := range snap.Families {
		if f.Name != "wal_fsync_seconds" {
			continue
		}
		for _, s := range f.Series {
			if len(s.Quantiles) == 0 {
				continue
			}
			keys := make([]string, 0, len(s.Quantiles))
			for k := range s.Quantiles {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var parts []string
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s %.3fms", k, s.Quantiles[k]*1000))
			}
			fmt.Fprintf(out, "  fsync lat:   %s (n=%d)\n", strings.Join(parts, ", "), s.Count)
		}
	}
	return nil
}

// formatBytes renders a byte count with a binary unit.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
