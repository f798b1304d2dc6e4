package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestEveryExperimentRuns runs each -exp ID at a reduced table size:
// the runners map is the list (the help and the unknown-ID error are
// built from its keys), so an experiment added to it is covered here
// without further edits.
func TestEveryExperimentRuns(t *testing.T) {
	for id := range runners {
		var out bytes.Buffer
		if err := run([]string{"-exp", id, "-rows", "2000"}, &out); err != nil {
			t.Errorf("-exp %s: %v", id, err)
		} else if out.Len() == 0 {
			t.Errorf("-exp %s printed nothing", id)
		}
	}
}

// TestUnknownExperiment: an ID not in the map is an error (exit status
// 1 from main) that lists the valid ones.
func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "tactics"}, &out)
	if err == nil || !strings.Contains(err.Error(), "jscan") || out.Len() != 0 {
		t.Fatalf("err = %v, output %q; want an error naming the IDs and no output", err, out.String())
	}
}
