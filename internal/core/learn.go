package core

import (
	"fmt"
	"sort"

	"carcs/internal/classify"
	"carcs/internal/learn"
	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/textproc"
	"carcs/internal/workflow"
)

// Journal op names for learned-model mutations.
//
// A train op journals only its hyperparameters: applying it retrains from
// the classified materials present at that point in the op stream, which is
// itself a deterministic function of the stream — so crash recovery and
// replication followers reproduce the leader's model byte for byte from a
// few hundred bytes of WAL instead of a multi-megabyte weight blob (the
// journal caps records at 16 MiB, and a weight dump would crowd out real
// mutations in every checkpoint interval). An update op journals the
// reviewed document's text plus the accepted/rejected labels; applying it
// replays the same online SGD steps everywhere.
const (
	OpLearnTrain  = "learn.train"
	OpLearnUpdate = "learn.update"
)

type learnTrainPayload struct {
	Params learn.Params `json:"params"`
}

type learnUpdatePayload struct {
	// Text is the reviewed material's search text; each model re-analyzes
	// it with the shared pipeline, so the op stays readable in the journal.
	Text string `json:"text"`
	// Accept and Reject map ontology key ("cs13", "pdc12") to entry IDs a
	// reviewer confirmed or refused for the document.
	Accept map[string][]string `json:"accept,omitempty"`
	Reject map[string][]string `json:"reject,omitempty"`
}

// learnedOntologies returns the system's ontologies in fixed (key) order so
// every train/update applies models in the same sequence everywhere.
func (s *System) learnedOntologies() []*ontology.Ontology {
	return []*ontology.Ontology{s.cs13, s.pdc12}
}

// TrainLearned (re)trains the learned classifier for both ontologies from
// every currently classified material, journaling the operation so recovery
// and followers retrain identically. The freshly trained models replace the
// current ones in the next published view; in-flight views keep the models
// they pinned.
func (s *System) TrainLearned(p learn.Params) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.hookLocked(OpPayload{Op: OpLearnTrain, Payload: learnTrainPayload{Params: p}}); err != nil {
		return fmt.Errorf("core: train: %w", err)
	}
	s.applyLearnTrainLocked(p)
	s.publishLocked()
	return nil
}

// applyLearnTrainLocked retrains both models from the live corpus. Callers
// hold mu and publish afterwards.
func (s *System) applyLearnTrainLocked(p learn.Params) {
	for _, o := range s.learnedOntologies() {
		exs := learn.ExamplesFromMaterials(o, s.engine.All())
		m := learn.Train(o, exs, p)
		if prev := s.learned[o]; prev != nil {
			// Version stays monotonic across retrains so /api/health and
			// the suggestion metadata never appear to move backwards.
			m.SetVersion(prev.Version() + 1)
		}
		s.learned[o] = m
	}
	s.lastTrainGen = s.gen.Load() + 1
}

// LearnFromReview folds one human review verdict into the learned models:
// an accepted submission confirms its classifications as positives, a
// rejected one marks them as negatives. The update is journaled (and so
// replicated and crash-safe) and applied as a copy-on-write model step. A
// verdict on a material with no in-ontology labels, or arriving before any
// model has been trained, is a silent no-op — there is nothing to learn.
func (s *System) LearnFromReview(m *material.Material, accepted bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := learnUpdatePayload{Text: m.SearchText()}
	labels := make(map[string][]string)
	for _, o := range s.learnedOntologies() {
		var ids []string
		for _, id := range m.ClassificationIDs() {
			if o.Has(id) {
				ids = append(ids, id)
			}
		}
		if len(ids) > 0 {
			sort.Strings(ids)
			labels[s.ontologyKey(o)] = ids
		}
	}
	if len(labels) == 0 {
		return nil
	}
	if accepted {
		p.Accept = labels
	} else {
		p.Reject = labels
	}
	trained := false
	for _, o := range s.learnedOntologies() {
		if s.learned[o].Trained() {
			trained = true
		}
	}
	if !trained {
		return nil
	}
	if err := s.hookLocked(OpPayload{Op: OpLearnUpdate, Payload: p}); err != nil {
		return fmt.Errorf("core: learn from review: %w", err)
	}
	s.applyLearnUpdateLocked(p)
	s.publishLocked()
	return nil
}

// applyLearnUpdateLocked replays one journaled review update onto the
// trained models. Callers hold mu and publish afterwards.
func (s *System) applyLearnUpdateLocked(p learnUpdatePayload) {
	terms := textproc.Terms(p.Text)
	for _, o := range s.learnedOntologies() {
		key := s.ontologyKey(o)
		pos, neg := p.Accept[key], p.Reject[key]
		if len(pos) == 0 && len(neg) == 0 {
			continue
		}
		if m := s.learned[o]; m.Trained() {
			s.learned[o] = m.Update(terms, pos, neg)
		}
	}
}

// LearnState snapshots the learned models' full serializable state — the
// checkpoint payload and the byte-identity witness the replication tests
// compare across nodes.
func (s *System) LearnState() *learn.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.learnStateLocked()
}

func (s *System) learnStateLocked() *learn.State {
	st := &learn.State{Models: make(map[string]*learn.ModelState)}
	for _, o := range s.learnedOntologies() {
		if m := s.learned[o]; m != nil {
			st.Models[s.ontologyKey(o)] = m.State()
		}
	}
	return st
}

// setLearnState installs checkpointed models during recovery or follower
// bootstrap. Unknown ontology keys are an error: a checkpoint naming an
// ontology this build does not know cannot be restored faithfully.
func (s *System) setLearnState(st *learn.State) error {
	if st == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, ms := range st.Models {
		o := s.OntologyByName(key)
		if o == nil {
			return fmt.Errorf("core: checkpoint learn state for unknown ontology %q", key)
		}
		m, err := learn.FromState(o, ms)
		if err != nil {
			return err
		}
		s.learned[o] = m
	}
	s.publishLocked()
	return nil
}

// LearnModelStats describes one ontology's learned model for /api/health.
type LearnModelStats struct {
	Ontology string `json:"ontology"`
	Version  int    `json:"version"`
	Examples int    `json:"examples"`
	Classes  int    `json:"classes"`
	Trained  bool   `json:"trained"`
}

// LearnStats summarizes the learned subsystem for /api/health.
type LearnStats struct {
	Models []LearnModelStats `json:"models"`
	// LastTrainGen is the system generation at which the current models
	// were installed by a full (re)train; zero before any train.
	LastTrainGen uint64 `json:"last_train_gen"`
	// ReviewQueueDepth is how many submissions are awaiting human review.
	ReviewQueueDepth int `json:"review_queue_depth"`
}

// LearnStats gathers the learned-model summary for the health endpoint.
func (s *System) LearnStats() LearnStats {
	s.mu.Lock()
	st := LearnStats{LastTrainGen: s.lastTrainGen}
	for _, o := range s.learnedOntologies() {
		ms := LearnModelStats{Ontology: s.ontologyKey(o)}
		if m := s.learned[o]; m != nil {
			ms.Version = m.Version()
			ms.Examples = m.Examples()
			ms.Classes = m.Classes()
			ms.Trained = m.Trained()
		}
		st.Models = append(st.Models, ms)
	}
	s.mu.Unlock()
	st.ReviewQueueDepth = len(s.queue.Pending())
	return st
}

// ReviewItem is one entry of the active-learning review queue: a pending
// workflow submission scored by how uncertain the learned models are about
// its document.
type ReviewItem struct {
	Submission *workflow.Submission
	// Uncertainty is the margin-sampling score in [0, 1]: the maximum over
	// both ontologies' models of 1 - (p1 - p2) on calibrated posteriors.
	// Before any model is trained every item scores 1 and the queue
	// degrades to FIFO.
	Uncertainty float64
	// Suggestions are the learned model's current best guesses for the
	// document (top 3 across ontologies), giving the reviewer the machine's
	// side of the disagreement.
	Suggestions []classify.Suggestion
}

// ReviewQueue returns the pending submissions ordered for active learning:
// most-uncertain first, so reviewer time lands where a verdict teaches the
// model the most — the follow-up paper's answer to the "one day of expert
// time per corpus" bottleneck. Ties (including the untrained cold start)
// fall back to submission order, i.e. FIFO.
func (s *System) ReviewQueue() []ReviewItem {
	v := s.View()
	pending := s.queue.Pending()
	out := make([]ReviewItem, 0, len(pending))
	for _, sub := range pending {
		it := ReviewItem{Submission: sub, Uncertainty: 0}
		if sub.Material != nil {
			terms := textproc.Terms(sub.Material.SearchText())
			it.Uncertainty = 1
			if len(terms) > 0 {
				u, anyTrained := 0.0, false
				for _, o := range s.learnedOntologies() {
					lm := v.learned[o]
					if !lm.Trained() {
						continue
					}
					anyTrained = true
					if mu := lm.Uncertainty(terms); mu > u {
						u = mu
					}
					it.Suggestions = append(it.Suggestions, lm.SuggestTerms(terms, 3)...)
				}
				if anyTrained {
					it.Uncertainty = u
				}
				sort.SliceStable(it.Suggestions, func(i, j int) bool {
					return it.Suggestions[i].Score > it.Suggestions[j].Score
				})
				if len(it.Suggestions) > 3 {
					it.Suggestions = it.Suggestions[:3]
				}
			}
		}
		out = append(out, it)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Uncertainty != out[j].Uncertainty {
			return out[i].Uncertainty > out[j].Uncertainty
		}
		return out[i].Submission.ID < out[j].Submission.ID
	})
	return out
}
