package classify

import (
	"context"
	"sort"
)

// Ensemble combines several suggesters with reciprocal-rank fusion: each
// member votes for entries by rank, and entries accumulate 1/(k0 + rank)
// across members. Fusion is robust to the members' incomparable score
// scales (keyword overlap, cosine, Bayes posteriors) and lets a trained
// model sharpen the training-free ones without being able to veto them.
type Ensemble struct {
	members []Suggester
}

const (
	// ensembleK0 is the fusion constant; 60 is the standard choice.
	ensembleK0 = 60
	// ensemblePool is how many suggestions each member contributes per
	// requested one; k <= 0 pools 30.
	ensemblePool = 3
)

// NewEnsemble builds an ensemble over the given members.
func NewEnsemble(members ...Suggester) *Ensemble {
	return &Ensemble{members: members}
}

// Name implements Suggester.
func (e *Ensemble) Name() string {
	name := "ensemble("
	for i, m := range e.members {
		if i > 0 {
			name += "+"
		}
		name += m.Name()
	}
	return name + ")"
}

// SuggestTerms implements Suggester via reciprocal-rank fusion.
func (e *Ensemble) SuggestTerms(terms []string, k int) []Suggestion {
	out, _ := e.SuggestTermsCtx(context.Background(), terms, k)
	return out
}

// SuggestTermsCtx is SuggestTerms with a cancellation check between
// members, so a shed or timed-out request pays for at most one member's
// scoring pass.
func (e *Ensemble) SuggestTermsCtx(ctx context.Context, terms []string, k int) ([]Suggestion, error) {
	pool := ensemblePool * k
	if pool <= 0 {
		pool = 30
	}
	scores := make(map[string]float64)
	paths := make(map[string]string)
	for _, m := range e.members {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for rank, sg := range m.SuggestTerms(terms, pool) {
			scores[sg.NodeID] += 1 / (ensembleK0 + float64(rank+1))
			paths[sg.NodeID] = sg.Path
		}
	}
	out := make([]Suggestion, 0, len(scores))
	for id, s := range scores {
		out = append(out, Suggestion{NodeID: id, Path: paths[id], Score: s})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].NodeID < out[j].NodeID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}
