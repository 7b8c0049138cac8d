package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"seamlesstune/internal/api"
	"seamlesstune/internal/jobs"
)

// runRemote submits the workload to a tuneserve instance via the async
// job API and polls until the job is terminal.
func runRemote(out io.Writer, server, tenant, wlName string, sizeGB int64, surrogateKind string, pruning bool, poll time.Duration) error {
	if tenant == "" {
		return fmt.Errorf("-tenant is required with -server")
	}
	ctx := context.Background()
	c := api.NewClient(server)
	job, err := c.SubmitJob(ctx, api.TuneRequest{
		Tenant:    tenant,
		Workload:  wlName,
		InputGB:   float64(sizeGB),
		Surrogate: surrogateKind,
		Pruning:   pruning,
	})
	if err != nil {
		return fmt.Errorf("submitting job: %w", err)
	}
	fmt.Fprintf(out, "submitted %s (tenant %s, %s %dGB)\n", job.ID, tenant, wlName, sizeGB)

	for {
		switch job.State {
		case jobs.StateDone:
			pretty, err := json.MarshalIndent(job.Result, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "job %s done:\n%s\n", job.ID, pretty)
			return nil
		case jobs.StateFailed:
			return fmt.Errorf("job %s failed: %s", job.ID, job.Error)
		}
		time.Sleep(poll)
		if job, err = c.Job(ctx, job.ID); err != nil {
			return fmt.Errorf("polling job: %w", err)
		}
	}
}
