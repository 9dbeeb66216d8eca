package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestEveryInternalPackageIsClassified: a new package under internal/
// must be either checked by detlint or exempted with a reason, so a
// simulator package cannot drop out of the determinism check unseen.
func TestEveryInternalPackageIsClassified(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		checked := deterministicPkgs[e.Name()]
		_, exempt := detExempt[e.Name()]
		switch {
		case checked && exempt:
			t.Errorf("internal/%s is both in deterministicPkgs and in detExempt", e.Name())
		case !checked && !exempt:
			t.Errorf("internal/%s is unclassified: add it to deterministicPkgs or, with a reason, to detExempt", e.Name())
		}
	}
	for name := range detExempt {
		if _, err := os.Stat(filepath.Join("..", "..", "internal", name)); err != nil {
			t.Errorf("detExempt names internal/%s, which does not exist", name)
		}
	}
}
