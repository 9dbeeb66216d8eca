package safetynet_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"safetynet"
	"safetynet/internal/campaign/report"
)

const exampleExploration = "examples/explorations/clb-vs-interval.json"

// loadExample loads the checked-in exploration through the facade.
func loadExample(t *testing.T) *safetynet.Exploration {
	t.Helper()
	e, err := safetynet.LoadExploration(exampleExploration)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLoadExplorationExamples: every checked-in exploration file loads
// through the facade and describes a real saving: its strategy is
// adaptive, so a matching frontier costs fewer runs than the grid.
func TestLoadExplorationExamples(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "explorations", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in exploration files found")
	}
	for _, p := range paths {
		e, err := safetynet.LoadExploration(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if e.Strategy.Kind == "exhaustive" {
			t.Errorf("%s: checked-in explorations should demonstrate an adaptive strategy", p)
		}
		if e.Arms() < 2 {
			t.Errorf("%s: %d arms is not a search", p, e.Arms())
		}
	}
}

// TestExampleExplorationFrontierMatchesExhaustive: the acceptance bar
// for the checked-in example — successive halving executes strictly
// fewer runs than the exhaustive grid and reports the identical Pareto
// frontier, with the finalists' objective vectors bit-identical to the
// grid's.
func TestExampleExplorationFrontierMatchesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	ha, err := safetynet.RunExploration(loadExample(t), safetynet.ExploreOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ex := loadExample(t)
	ex.Strategy = safetynet.ExploreStrategy{Kind: "exhaustive"}
	exRep, err := safetynet.RunExploration(ex, safetynet.ExploreOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ha.ExecutedRuns >= exRep.ExecutedRuns {
		t.Fatalf("halving executed %d runs, exhaustive %d: no saving", ha.ExecutedRuns, exRep.ExecutedRuns)
	}
	if len(ha.Frontier) == 0 || len(ha.Frontier) != len(exRep.Frontier) {
		t.Fatalf("frontier sizes differ: halving %d, exhaustive %d", len(ha.Frontier), len(exRep.Frontier))
	}
	for i := range ha.Frontier {
		h, x := ha.Frontier[i], exRep.Frontier[i]
		if h.Index != x.Index || h.Desc != x.Desc {
			t.Fatalf("frontier arm %d differs: %s vs %s", i, h.Desc, x.Desc)
		}
		for j := range h.Objectives {
			if h.Objectives[j] != x.Objectives[j] {
				t.Fatalf("frontier arm %s objective %d: %v vs %v (must be bit-identical)",
					h.Desc, j, h.Objectives[j], x.Objectives[j])
			}
		}
	}
}

// TestExampleExplorationDeterminism: the example's report is
// byte-identical at 1 and 8 workers.
func TestExampleExplorationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	render := func(workers int) []byte {
		e := loadExample(t)
		rep, err := safetynet.RunExploration(e, safetynet.ExploreOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		data, err := report.Encode(rep, "json")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	j1, j8 := render(1), render(8)
	if !bytes.Equal(j1, j8) {
		t.Fatalf("report differs between 1 and 8 workers:\n%s\nvs\n%s", j1, j8)
	}
}

// TestExploreVocabularyThroughFacade: the strategy and objective
// vocabularies surface through the facade.
func TestExploreVocabularyThroughFacade(t *testing.T) {
	if got := safetynet.ExploreKinds(); len(got) != 2 {
		t.Fatalf("ExploreKinds = %v", got)
	}
	objs := safetynet.ExploreObjectives()
	if len(objs) != 4 {
		t.Fatalf("ExploreObjectives = %v", objs)
	}
	for _, o := range objs {
		if o.Name == "" || o.Description == "" || o.Extract == nil {
			t.Fatalf("incomplete objective %+v", o)
		}
	}
}
