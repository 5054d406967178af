package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"csce/internal/graph"
	"csce/internal/plan"
)

// TestPlanCacheContentionAccounting: under concurrent load every executed
// query makes exactly one plan-cache lookup, so hits + misses equals the
// queries served, and repeated keys do hit.
func TestPlanCacheContentionAccounting(t *testing.T) {
	base, _ := startServer(t, Config{PlanCacheSize: 8}, map[string]*graph.Graph{"k8": graph.Clique(8, 0)})
	sent := planCacheLoad(t, base)
	m := getMetrics(t, base)
	hits, misses := metric(t, m, "plan_cache_hits"), metric(t, m, "plan_cache_misses")
	if hits+misses != float64(sent) || metric(t, m, "queries_ok") != float64(sent) {
		t.Fatalf("hits+misses = %v+%v, queries_ok = %v; want both %d", hits, misses, m["queries_ok"], sent)
	}
	if hits == 0 {
		t.Fatal("no lookup hit though ten keys were each queried eight times")
	}
}

// TestPlanCacheEvictionOrder pins the plan cache's full LRU recency, not
// just "something gets evicted": hits refresh recency and evictions strike
// in exact least-recently-used order, checked key by key. Residency is
// probed on the server's cache directly, since a probing query would plan
// and re-insert the key it probes.
func TestPlanCacheEvictionOrder(t *testing.T) {
	base, s := startServer(t, Config{PlanCacheSize: 4}, map[string]*graph.Graph{"k8": graph.Clique(8, 0)})
	ent, _ := s.Registry().Get("k8")
	path := graph.MustParse(pathPattern3)
	type key struct {
		variant, mode string
		v             graph.Variant
		m             plan.Mode
	}
	query := func(k key, want string) {
		t.Helper()
		if got := planCacheOutcome(t, base, k.variant, k.mode); got != want {
			t.Fatalf("%s/%s: plan_cache = %q, want %q", k.variant, k.mode, got, want)
		}
	}
	resident := func(k key) bool {
		_, ok := s.plans.Get(planKey("k8", ent.Live.Epoch(), k.v, k.m, path))
		return ok
	}

	a := key{"edge", "csce", graph.EdgeInduced, plan.ModeCSCE}
	b := key{"edge", "ri", graph.EdgeInduced, plan.ModeRI}
	c := key{"edge", "ri+cluster", graph.EdgeInduced, plan.ModeRICluster}
	d := key{"edge", "rm", graph.EdgeInduced, plan.ModeRM}
	fresh := []key{
		{"edge", "cost", graph.EdgeInduced, plan.ModeCostBased},
		{"homo", "csce", graph.Homomorphic, plan.ModeCSCE},
		{"homo", "ri", graph.Homomorphic, plan.ModeRI},
		{"homo", "rm", graph.Homomorphic, plan.ModeRM},
	}
	for _, k := range []key{a, b, c, d} {
		query(k, "miss")
	}
	// Probing in insertion order keeps recency as inserted: d c b a.
	for _, k := range []key{a, b, c, d} {
		if !resident(k) {
			t.Fatalf("%s/%s must be cached", k.variant, k.mode)
		}
	}
	// Hits on a then b: b a d c.
	query(a, "hit")
	query(b, "hit")

	// Fresh keys one at a time; evictions must strike in exact
	// least-recently-used order: c, d, a, b.
	for i, victim := range []key{c, d, a, b} {
		query(fresh[i], "miss")
		if resident(victim) {
			t.Fatalf("after planning %s/%s, %s/%s should have been evicted", fresh[i].variant, fresh[i].mode, victim.variant, victim.mode)
		}
		if n := s.plans.Len(); n != 4 {
			t.Fatalf("len = %d, want 4", n)
		}
	}
	// The four fresh keys are what remains.
	for _, k := range fresh {
		if !resident(k) {
			t.Fatalf("%s/%s should be resident", k.variant, k.mode)
		}
	}
}

// TestAdmissionQueueTimeoutUnderContention drives the valve through its
// three outcomes at once — holding, queued-then-timed-out, and rejected —
// and then proves no slot or queue accounting leaked.
func TestAdmissionQueueTimeoutUnderContention(t *testing.T) {
	a := newAdmission(1, 3)
	if err := a.admit(context.Background()); err != nil {
		t.Fatal(err) // the holder pins the only slot
	}

	// Three waiters fill the queue; their deadline will fire before the
	// holder releases.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	waiters := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { waiters <- a.admit(ctx) }()
	}
	for a.queued() != 3 {
		runtime.Gosched()
	}

	// With the queue at depth, further callers bounce immediately even
	// though their own context is healthy.
	for i := 0; i < 5; i++ {
		if err := a.admit(context.Background()); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overflow caller %d: want ErrQueueFull, got %v", i, err)
		}
	}
	if got := a.rejectedTotal(); got != 5 {
		t.Fatalf("rejectedTotal = %d, want 5", got)
	}

	// Every queued waiter must report the deadline, not hang or admit.
	for i := 0; i < 3; i++ {
		if err := <-waiters; !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("waiter %d: want DeadlineExceeded, got %v", i, err)
		}
	}
	for a.queued() != 0 {
		runtime.Gosched()
	}
	if got := a.inFlight(); got != 1 {
		t.Fatalf("inFlight = %d, want 1 (only the holder)", got)
	}

	// Timed-out waiters must not have consumed the slot: after the holder
	// releases, a fresh caller admits instantly.
	a.release()
	if err := a.admit(context.Background()); err != nil {
		t.Fatalf("slot leaked after timeouts: %v", err)
	}
	a.release()
	if a.inFlight() != 0 || a.queued() != 0 {
		t.Fatalf("leaked accounting: inFlight=%d queued=%d", a.inFlight(), a.queued())
	}
}

// TestAdmissionChurnUnderContention mixes successful admits, timeouts,
// and rejections across many goroutines and checks conservation: every
// caller gets exactly one outcome and the valve ends empty. Primarily a
// -race workload for the CAS/channel interplay in admit/release.
func TestAdmissionChurnUnderContention(t *testing.T) {
	a := newAdmission(2, 2)
	const callers = 64
	results := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			err := a.admit(ctx)
			if err == nil {
				time.Sleep(time.Millisecond)
				a.release()
			}
			results <- err
		}()
	}
	wg.Wait()
	close(results)
	counts := map[string]int{}
	for err := range results {
		switch {
		case err == nil:
			counts["ok"]++
		case errors.Is(err, ErrQueueFull):
			counts["rejected"]++
		case errors.Is(err, context.DeadlineExceeded):
			counts["timeout"]++
		default:
			t.Fatalf("unexpected admit outcome: %v", err)
		}
	}
	if total := counts["ok"] + counts["rejected"] + counts["timeout"]; total != callers {
		t.Fatalf("outcomes %v sum to %d, want %d", counts, total, callers)
	}
	if counts["ok"] == 0 {
		t.Fatal("no caller ever admitted; valve wedged")
	}
	if a.inFlight() != 0 || a.queued() != 0 {
		t.Fatalf("valve not empty after churn: inFlight=%d queued=%d", a.inFlight(), a.queued())
	}
	if got := a.rejectedTotal(); got != uint64(counts["rejected"]) {
		t.Fatalf("rejectedTotal = %d, but %d callers saw ErrQueueFull", got, counts["rejected"])
	}
}
