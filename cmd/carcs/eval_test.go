package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestEvalReportMatchesGolden pins every precision and recall number the
// eval subcommand reports on the seeded corpus, so a change to the
// suggesters or their dispatch cannot move one unnoticed. After an
// intended change in model quality, regenerate the file with
// `go run ./cmd/carcs eval > cmd/carcs/testdata/eval.golden`.
func TestEvalReportMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "eval.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run([]string{"eval"})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("eval report differs from testdata/eval.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
