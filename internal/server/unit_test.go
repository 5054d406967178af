package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"csce/internal/core"
	"csce/internal/graph"
	"csce/internal/plan"
)

func TestAdmissionFastPathAndQueue(t *testing.T) {
	a := newAdmission(2, 1)
	if err := a.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := a.inFlight(); got != 2 {
		t.Fatalf("inFlight = %d, want 2", got)
	}

	// Third caller queues; it gets the slot when one is released.
	acquired := make(chan error, 1)
	go func() { acquired <- a.admit(context.Background()) }()
	for a.queued() != 1 {
		runtime.Gosched()
	}
	// Fourth caller exceeds queueDepth=1 and is rejected immediately.
	if err := a.admit(context.Background()); err != ErrQueueFull {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if a.rejectedTotal() != 1 {
		t.Fatalf("rejectedTotal = %d, want 1", a.rejectedTotal())
	}
	a.release()
	if err := <-acquired; err != nil {
		t.Fatalf("queued caller should get the freed slot: %v", err)
	}
	a.release()
	a.release()
	if got := a.inFlight(); got != 0 {
		t.Fatalf("inFlight = %d, want 0", got)
	}
}

func TestAdmissionContextCancelWhileQueued(t *testing.T) {
	a := newAdmission(1, 4)
	if err := a.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() { res <- a.admit(ctx) }()
	for a.queued() != 1 {
		runtime.Gosched()
	}
	cancel()
	if err := <-res; err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	a.release()
}

// planCacheOutcome runs one path-3 query on the K8 named k8 and returns its
// summary's plan_cache outcome, "hit" or "miss".
func planCacheOutcome(t *testing.T, base, variant, mode string) string {
	t.Helper()
	_, sum := readStream(t, postMatch(t, base, "k8", pathPattern3, url.Values{"variant": {variant}, "mode": {mode}}))
	outcome, _ := sum["plan_cache"].(string)
	return outcome
}

// TestPlanCacheLRUEviction: a hit refreshes a plan's recency, so a full
// plan cache evicts the least recently used plan, not the oldest.
func TestPlanCacheLRUEviction(t *testing.T) {
	base, _ := startServer(t, Config{PlanCacheSize: 2}, map[string]*graph.Graph{"k8": graph.Clique(8, 0)})
	for i, step := range []struct{ mode, want string }{
		{"csce", "miss"},
		{"ri", "miss"},
		{"csce", "hit"}, // csce becomes the most recently used
		{"rm", "miss"},  // evicts ri
		{"csce", "hit"},
		{"ri", "miss"},
	} {
		if got := planCacheOutcome(t, base, "edge", step.mode); got != step.want {
			t.Fatalf("step %d (%s): plan_cache = %v, want %s", i, step.mode, got, step.want)
		}
	}
	m := getMetrics(t, base)
	if metric(t, m, "plan_cache_size") != 2 || metric(t, m, "plan_cache_hits") != 2 || metric(t, m, "plan_cache_misses") != 4 {
		t.Fatalf("size=%v hits=%v misses=%v, want 2/2/4", m["plan_cache_size"], m["plan_cache_hits"], m["plan_cache_misses"])
	}
}

// TestPlanCacheDisabled: with PlanCacheSize < 0 every query plans afresh
// and the cache holds nothing.
func TestPlanCacheDisabled(t *testing.T) {
	base, _ := startServer(t, Config{PlanCacheSize: -1}, map[string]*graph.Graph{"k8": graph.Clique(8, 0)})
	for i := 0; i < 2; i++ {
		if _, sum := readStream(t, postMatch(t, base, "k8", triPattern, nil)); sum["plan_cache"] != "miss" {
			t.Fatalf("query %d: plan_cache = %v, want miss", i, sum["plan_cache"])
		}
	}
	m := getMetrics(t, base)
	if metric(t, m, "plan_cache_size") != 0 || metric(t, m, "plan_cache_hits") != 0 || metric(t, m, "plan_cache_misses") != 2 {
		t.Fatalf("disabled cache: size=%v hits=%v misses=%v", m["plan_cache_size"], m["plan_cache_hits"], m["plan_cache_misses"])
	}
}

// planCacheLoad fires concurrent path-3 queries at a K8 named k8 across
// every edge/homo variant × plan mode pair — ten plan keys — checking
// each count, and returns how many it sent.
func planCacheLoad(t *testing.T, base string) int {
	t.Helper()
	const goroutines, iters = 8, 10
	want := map[string]float64{"edge": 8 * 7 * 6, "homo": 8 * 7 * 7}
	modes := []string{"csce", "ri", "ri+cluster", "rm", "cost"}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				variant := []string{"edge", "homo"}[i%2]
				params := url.Values{"variant": {variant}, "mode": {modes[(g+i)%len(modes)]}}
				u := base + "/v1/graphs/k8/match?" + params.Encode()
				resp, err := http.Post(u, "text/plain", strings.NewReader(pathPattern3))
				if err != nil {
					t.Error(err)
					return
				}
				var sum map[string]any
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
					if !strings.HasPrefix(sc.Text(), `{"embedding"`) {
						_ = json.Unmarshal(sc.Bytes(), &sum)
					}
				}
				resp.Body.Close()
				if sum["embeddings"] != want[variant] {
					t.Errorf("%v: %v embeddings, want %v", params, sum["embeddings"], want[variant])
				}
			}
		}(g)
	}
	wg.Wait()
	return goroutines * iters
}

// TestPlanCacheConcurrent: queries sharing a plan cache smaller than their
// key set get exact counts while it evicts under them, and it never holds
// more than its capacity.
func TestPlanCacheConcurrent(t *testing.T) {
	base, _ := startServer(t, Config{PlanCacheSize: 4}, map[string]*graph.Graph{"k8": graph.Clique(8, 0)})
	planCacheLoad(t, base)
	if size := metric(t, getMetrics(t, base), "plan_cache_size"); size > 4 {
		t.Fatalf("plan cache holds %v plans, capacity 4", size)
	}
}

func TestPlanKeyDistinguishes(t *testing.T) {
	path := graph.MustParse(pathPattern3)
	tri := graph.MustParse(triPattern)
	base := planKey("g", 0, graph.EdgeInduced, plan.ModeCSCE, path)
	for name, other := range map[string]string{
		"pattern": planKey("g", 0, graph.EdgeInduced, plan.ModeCSCE, tri),
		"variant": planKey("g", 0, graph.Homomorphic, plan.ModeCSCE, path),
		"mode":    planKey("g", 0, graph.EdgeInduced, plan.ModeRI, path),
		"graph":   planKey("h", 0, graph.EdgeInduced, plan.ModeCSCE, path),
		"epoch":   planKey("g", 1, graph.EdgeInduced, plan.ModeCSCE, path),
	} {
		if other == base {
			t.Errorf("planKey must distinguish by %s", name)
		}
	}
	if planKey("g", 0, graph.EdgeInduced, plan.ModeCSCE, graph.MustParse(pathPattern3)) != base {
		t.Error("equal patterns must share a key")
	}
}

func TestRegistryDuplicateAndList(t *testing.T) {
	r := NewRegistry()
	g := graph.Clique(4, 0)
	g.Names = NumericLabels(g)
	eng := core.NewEngine(g)
	if _, err := r.Add("g", eng); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("g", eng); err == nil {
		t.Fatal("duplicate Add must fail")
	}
	if _, err := r.Add("", eng); err == nil {
		t.Fatal("empty name must fail")
	}
	if r.Len() != 1 || len(r.List()) != 1 {
		t.Fatal("registry size wrong")
	}
	e, ok := r.Get("g")
	if !ok || e.Directed {
		t.Fatalf("entry wrong: %+v", e)
	}
	if v, ed, _ := e.Counts(); v != 4 || ed != 6 {
		t.Fatalf("entry counts wrong: %d vertices, %d edges", v, ed)
	}
	if e.Live.Epoch() != 0 {
		t.Fatalf("fresh entry epoch %d", e.Live.Epoch())
	}
}

func TestNumericLabelsIdentity(t *testing.T) {
	b := graph.NewBuilder(false)
	for i := 0; i < 4; i++ {
		b.AddVertex(graph.Label(i % 3))
	}
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 0)
	g := b.MustBuild()
	tbl := NumericLabels(g)
	for i := 0; i < 3; i++ {
		if got := tbl.Vertex(strconv.Itoa(i)); got != graph.Label(i) {
			t.Fatalf("vertex label %d interned as %d", i, got)
		}
	}
	if got := tbl.Edge("2"); got != graph.EdgeLabel(2) {
		t.Fatalf("edge label 2 interned as %d", got)
	}
	// A pattern parsed with the table matches the numeric data labels.
	p, err := graph.ParseStringWith("t undirected\nv 0 0\nv 1 1\ne 0 1 2\n", tbl)
	if err != nil {
		t.Fatal(err)
	}
	if p.Label(0) != 0 || p.Label(1) != 1 {
		t.Fatalf("pattern labels %d,%d", p.Label(0), p.Label(1))
	}
}
