package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"seamlesstune/internal/api"
)

// runExplain implements `tunectl explain <job-id>`: it fetches the
// tuner-introspection summary from tuneserve and renders it as a short
// operator report — per-phase search progress, acquisition decay,
// surrogate calibration, and stall verdicts. -json prints the document
// instead, encoded as the server encodes it.
func runExplain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tunectl explain", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8642", "tuneserve base URL")
	asJSON := fs.Bool("json", false, "print the raw explain document")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id := fs.Arg(0)
	if fs.NArg() > 1 {
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return err
		}
	}
	if id == "" {
		return fmt.Errorf("usage: tunectl explain <job-id> [-server URL] [-json]")
	}
	doc, err := api.NewClient(*server).Explain(context.Background(), id)
	if err != nil {
		return err
	}
	if *asJSON {
		pretty, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", pretty)
		return nil
	}
	printExplain(out, doc)
	return nil
}

// printExplain renders the explain document for humans.
func printExplain(out io.Writer, doc api.ExplainResponse) {
	fmt.Fprintf(out, "job %s (%s)", doc.Job, doc.State)
	if doc.Surrogate != "" {
		fmt.Fprintf(out, ", surrogate %s", doc.Surrogate)
	}
	fmt.Fprintf(out, ", %d events retained\n", doc.Events)
	if !doc.Diagnostics {
		fmt.Fprintln(out, "diagnostics were disabled for this job; only trial-level telemetry is available")
	}
	if len(doc.Phases) == 0 {
		fmt.Fprintln(out, "no per-phase telemetry retained (job too old for the event ring, or not started)")
		return
	}
	for _, p := range doc.Phases {
		fmt.Fprintf(out, "\nphase %s: %d trials (%d failed)", p.Phase, p.Trials, p.Failed)
		if p.BestSoFar > 0 {
			fmt.Fprintf(out, ", best %.1fs", p.BestSoFar)
		}
		if p.Plateau > 0 {
			fmt.Fprintf(out, ", %d since improvement", p.Plateau)
		}
		fmt.Fprintln(out)
		if p.Decisions > 0 {
			fmt.Fprintf(out, "  acquisition: %d EI-guided decisions, last EI %.4g (peak %.4g, decayed to %.0f%%), exploit share %.0f%%\n",
				p.Decisions, p.LastEI, p.PeakEI, p.EIDecay*100, p.ExploitShare*100)
		}
		if c := p.Calibration; c != nil {
			fmt.Fprintf(out, "  calibration [%s]: 1σ %.0f%% / 2σ %.0f%% coverage over %d scores, rmse %.3f, nlpd %.3f",
				strings.ToUpper(c.Severity), c.Coverage1*100, c.Coverage2*100, c.Scores, c.RMSE, c.NLPD)
			if c.Detail != "" {
				fmt.Fprintf(out, " — %s", c.Detail)
			}
			fmt.Fprintln(out)
		}
		if s := p.Stall; s != nil {
			fmt.Fprintf(out, "  stall [%s]: plateau %d, EI at %.0f%% of peak", strings.ToUpper(s.Severity), s.Plateau, s.EIDecay*100)
			if s.Detail != "" {
				fmt.Fprintf(out, " — %s", s.Detail)
			}
			fmt.Fprintln(out)
		}
	}
}
