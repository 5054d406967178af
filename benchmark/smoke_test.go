package main

import (
	"os"
	"testing"
)

// The smoke pass drives every workload end to end at 1/50 length against
// an in-process server: pools, clients, the mutation generator, the
// subscription, the crash-free restart, and every oracle, in seconds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke pass runs all five workloads")
	}
	quiet(t)
	if err := run([]string{"-smoke", "-seconds", "10"}); err != nil {
		t.Fatalf("end-to-end smoke pass: %v", err)
	}
}

// The traced smoke pass replays two workloads through the span recorder:
// the single-store pipeline with live ingest, and the sharded coordinator.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke pass")
	}
	quiet(t)
	for _, w := range []string{"ingest-mixed", "sharded-read"} {
		if err := run([]string{"-smoke", "-seconds", "10", "-trace", "1", "-workload", w}); err != nil {
			t.Fatalf("traced smoke pass of %s: %v", w, err)
		}
	}
}

// quiet sends the harness's report to /dev/null for the test's duration.
func quiet(t *testing.T) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = null
	t.Cleanup(func() {
		os.Stdout = saved
		null.Close()
	})
}
