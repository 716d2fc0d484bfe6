package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"carcs/internal/core"
	"carcs/internal/ingest"
	"carcs/internal/jobs"
)

// POST /api/import?workers=&method=&threshold= — async bulk ingestion.
//
// The body is JSONL, one material record per line (see ingest.Record).
// The request buffers the payload, submits a background import job, and
// returns 202 with the job ID immediately; progress, per-item errors, and
// the final summary are polled from GET /api/jobs/{id}. A full job queue
// answers 503 with Retry-After — backpressure, not buffering.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	workers, err := intParam(q, "workers", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	opt := ingest.Options{
		Workers: workers,
		Method:  q.Get("method"),
		Retry:   jobs.DefaultRetry,
	}
	if t := q.Get("threshold"); t != "" {
		f, err := strconv.ParseFloat(t, 64)
		if err != nil || f < 0 || f > 1 {
			writeError(w, http.StatusBadRequest, "threshold must be a number in [0,1]")
			return
		}
		opt.Threshold = f
	}
	if m := opt.Method; m != "" && m != "none" && !slices.Contains(core.SuggestMethods, m) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown method %q", m))
		return
	}

	// The job outlives the request, so the streamed body must be captured
	// before returning 202. The import cap is deliberately larger than the
	// regular JSON cap; beyond it the standard 413 envelope applies.
	r.Body = http.MaxBytesReader(w, r.Body, maxImportBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	if len(bytes.TrimSpace(body)) == 0 {
		writeError(w, http.StatusBadRequest, "empty import body")
		return
	}

	imp := ingest.New(s.tenantSys(r), opt)
	job, err := s.runner.Submit("import", fmt.Sprintf("%d bytes", len(body)),
		func(ctx context.Context, j *jobs.Job) error {
			sum, err := imp.Run(ctx, bytes.NewReader(body), j)
			j.SetResult(sum)
			return err
		})
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			// Backpressure through the standard overload envelope, with a
			// Retry-After computed from the live queue depth rather than a
			// hardcoded guess.
			writeOverload(w, http.StatusServiceUnavailable,
				"import queue full; retry later", s.importRetryAfter())
		case errors.Is(err, jobs.ErrClosed):
			writeOverload(w, http.StatusServiceUnavailable,
				"server shutting down", 30*time.Second)
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"job":    job.ID(),
		"state":  string(job.State()),
		"status": fmt.Sprintf("/api/jobs/%d", job.ID()),
	})
}

// GET /api/jobs — all known jobs, newest first.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.runner.Jobs())
}

// GET /api/jobs/{id} — live progress plus the per-item error report.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id")
		return
	}
	job, err := s.runner.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// DELETE /api/jobs/{id} — cancel a queued or running job. Items already
// committed stay (each went through the journal individually); the job
// transitions to cancelled once its function observes the context.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id")
		return
	}
	switch err := s.runner.Cancel(id); {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "cancelling": true})
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, jobs.ErrFinished):
		writeError(w, http.StatusConflict, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}
