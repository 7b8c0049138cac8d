package main

import (
	"net/http"

	"seamlesstune/internal/api"
	"seamlesstune/internal/jobs"
	"seamlesstune/internal/obs"
)

// handleExplain serves the tuner-introspection summary for one job.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.engine.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, explainJob(job, s.events.Snapshot(0)))
}

// explainJob folds the job's retained events into the explain summary.
// Pure so tests can drive it with synthetic streams.
func explainJob(job jobs.Job, events []obs.Event) api.ExplainResponse {
	resp := api.ExplainResponse{
		Job:         job.ID,
		State:       string(job.State),
		Diagnostics: job.Diagnostics,
		Surrogate:   job.Surrogate,
	}
	byPhase := map[string]*api.PhaseExplain{}
	order := []string{}
	phase := func(name string) *api.PhaseExplain {
		if p, ok := byPhase[name]; ok {
			return p
		}
		p := &api.PhaseExplain{Phase: name}
		byPhase[name] = p
		order = append(order, name)
		return p
	}
	for _, e := range events {
		if e.Session != job.ID {
			continue
		}
		resp.Events++
		if e.Phase == "" {
			continue
		}
		switch e.Type {
		case obs.EventTrial:
			p := phase(e.Phase)
			p.Trials++
			if e.Failed {
				p.Failed++
			}
			// BestSoFar rides on trial events once a success landed; a new
			// incumbent (zero regret on a success) resets the plateau.
			if e.BestSoFar != 0 {
				improved := !e.Failed && e.RegretS == 0 && obs.Finite(e.BestSoFar) != p.BestSoFar
				p.BestSoFar = obs.Finite(e.BestSoFar)
				if improved {
					p.Plateau = 0
				} else {
					p.Plateau++
				}
			}
		case obs.EventDecide:
			p := phase(e.Phase)
			p.Decisions++
			p.LastEI = obs.Finite(e.EI)
			if p.LastEI > p.PeakEI {
				p.PeakEI = p.LastEI
			}
			if sum := e.EIExploit + e.EIExplore; sum > 0 {
				p.ExploitShare = obs.Finite(e.EIExploit / sum)
			}
		case obs.EventModelHealth:
			p := phase(e.Phase)
			p.Calibration = &api.CalibrationExplain{
				Scores:    e.Scores,
				Coverage1: obs.Finite(e.Coverage1),
				Coverage2: obs.Finite(e.Coverage2),
				RMSE:      obs.Finite(e.RMSE),
				NLPD:      obs.Finite(e.NLPD),
				Severity:  e.Severity,
				Detail:    e.Detail,
			}
		case obs.EventStall:
			p := phase(e.Phase)
			p.Stall = &api.StallExplain{
				Plateau:  e.Plateau,
				EIDecay:  obs.Finite(e.EIDecay),
				Severity: e.Severity,
				Detail:   e.Detail,
			}
		}
	}
	for _, name := range order {
		p := byPhase[name]
		if p.PeakEI > 0 {
			p.EIDecay = p.LastEI / p.PeakEI
		}
		resp.Phases = append(resp.Phases, *p)
	}
	return resp
}
