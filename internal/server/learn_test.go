package server

import (
	"net/http"
	"strconv"
	"testing"

	"carcs/internal/learn"
)

type reviewQueueItem struct {
	ID          int64        `json:"id"`
	Submitter   string       `json:"submitter"`
	Uncertainty float64      `json:"uncertainty"`
	Material    materialJSON `json:"material"`
	Suggestions []struct {
		NodeID string
		Score  float64
	} `json:"suggestions"`
}

func itoa(id int64) string { return strconv.FormatInt(id, 10) }

func submitMaterial(t *testing.T, s *Server, id string) int64 {
	t.Helper()
	m := materialJSON{
		ID: id, Title: "T " + id, Kind: "assignment", Level: "CS1",
		Description:     "an exercise about sorting arrays with parallel loops " + id,
		Classifications: []string{"acm-ieee-cs-curricula-2013/sdf/fundamental-data-structures/arrays"},
	}
	rec := do(t, s, "POST", "/api/submissions", "sue", m)
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit %s = %d: %s", id, rec.Code, rec.Body.String())
	}
	return int64(decode[map[string]any](t, rec)["id"].(float64))
}

func TestReviewQueueEndpoint(t *testing.T) {
	s, sys := newTestServer(t)

	// Role-gated like the other editorial endpoints.
	if rec := do(t, s, "GET", "/api/review/queue", "sue", nil); rec.Code != http.StatusForbidden {
		t.Fatalf("submitter allowed: %d", rec.Code)
	}
	rec := do(t, s, "GET", "/api/review/queue", "ed", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("empty queue = %d", rec.Code)
	}
	if got := decode[[]reviewQueueItem](t, rec); len(got) != 0 {
		t.Fatalf("expected empty queue, got %d items", len(got))
	}

	idA := submitMaterial(t, s, "queue-a")
	idB := submitMaterial(t, s, "queue-b")

	// Untrained: FIFO, uncertainty pinned at 1.
	q := decode[[]reviewQueueItem](t, do(t, s, "GET", "/api/review/queue", "ed", nil))
	if len(q) != 2 || q[0].ID != idA || q[1].ID != idB {
		t.Fatalf("untrained queue not FIFO: %+v", q)
	}
	for _, it := range q {
		if it.Uncertainty != 1 {
			t.Fatalf("untrained uncertainty = %v", it.Uncertainty)
		}
	}

	// Train through the API, then the queue carries real scores and the
	// machine's suggestions.
	if rec := do(t, s, "POST", "/api/learn/train", "sue", nil); rec.Code != http.StatusForbidden {
		t.Fatalf("submitter may not train: %d", rec.Code)
	}
	rec = do(t, s, "POST", "/api/learn/train", "ed", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("train = %d: %s", rec.Code, rec.Body.String())
	}
	q = decode[[]reviewQueueItem](t, do(t, s, "GET", "/api/review/queue", "ed", nil))
	if len(q) != 2 {
		t.Fatalf("queue len %d", len(q))
	}
	for i, it := range q {
		if it.Uncertainty <= 0 || it.Uncertainty > 1 {
			t.Fatalf("uncertainty out of range: %v", it.Uncertainty)
		}
		if len(it.Suggestions) == 0 {
			t.Fatalf("item %d has no suggestions", i)
		}
		if i > 0 && q[i-1].Uncertainty < it.Uncertainty {
			t.Fatal("queue not sorted by uncertainty desc")
		}
	}
	_ = sys
}

func TestReviewFeedsLearnedModel(t *testing.T) {
	s, sys := newTestServer(t)
	if err := sys.TrainLearned(learn.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	versionOf := func() int {
		var v int
		for _, m := range sys.LearnStats().Models {
			if m.Ontology == "cs13" {
				v = m.Version
			}
		}
		return v
	}
	before := versionOf()

	idA := submitMaterial(t, s, "feed-a")
	idB := submitMaterial(t, s, "feed-b")

	rec := do(t, s, "POST", "/api/submissions/"+itoa(idA)+"/review", "ed",
		map[string]string{"decision": "approved"})
	if rec.Code != http.StatusOK {
		t.Fatalf("approve = %d: %s", rec.Code, rec.Body.String())
	}
	if got := versionOf(); got != before+1 {
		t.Fatalf("approve did not update model: version %d -> %d", before, got)
	}
	if sys.View().Material("feed-a") == nil {
		t.Fatal("approved material not installed")
	}

	rec = do(t, s, "POST", "/api/submissions/"+itoa(idB)+"/review", "ed",
		map[string]string{"decision": "rejected"})
	if rec.Code != http.StatusOK {
		t.Fatalf("reject = %d: %s", rec.Code, rec.Body.String())
	}
	if got := versionOf(); got != before+2 {
		t.Fatalf("reject did not update model: version = %d", got)
	}
}

func TestHealthReportsLearn(t *testing.T) {
	s, sys := newTestServer(t)
	type healthLearn struct {
		Learn struct {
			Models []struct {
				Ontology string `json:"ontology"`
				Trained  bool   `json:"trained"`
				Version  int    `json:"version"`
				Examples int    `json:"examples"`
			} `json:"models"`
			LastTrainGen     uint64 `json:"last_train_gen"`
			ReviewQueueDepth int    `json:"review_queue_depth"`
		} `json:"learn"`
	}
	h := decode[healthLearn](t, do(t, s, "GET", "/api/health", "", nil))
	if len(h.Learn.Models) != 2 {
		t.Fatalf("expected 2 model blocks, got %+v", h.Learn)
	}
	for _, m := range h.Learn.Models {
		if m.Trained {
			t.Fatalf("model %s trained before any train", m.Ontology)
		}
	}

	if err := sys.TrainLearned(learn.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	submitMaterial(t, s, "health-sub")
	h = decode[healthLearn](t, do(t, s, "GET", "/api/health", "", nil))
	for _, m := range h.Learn.Models {
		if !m.Trained || m.Version != 1 || m.Examples == 0 {
			t.Fatalf("model not reported trained: %+v", m)
		}
	}
	if h.Learn.LastTrainGen == 0 {
		t.Fatal("last_train_gen not reported")
	}
	if h.Learn.ReviewQueueDepth != 1 {
		t.Fatalf("review_queue_depth = %d, want 1", h.Learn.ReviewQueueDepth)
	}
}
