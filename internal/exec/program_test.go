package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/dataset"
	"csce/internal/graph"
	"csce/internal/plan"
)

// programOptions are the option sets a reused program is checked under:
// each one is applied per run, on top of the shared compiled levels.
func programOptions(p *graph.Graph, pl *plan.Plan, store *ccsr.Store) []struct {
	name string
	opts Options
} {
	// Pin the last order position to the first data vertex with its label.
	u := pl.Order[len(pl.Order)-1]
	var pin graph.VertexID
	for v := 0; v < store.NumVertices(); v++ {
		if store.VertexLabel(graph.VertexID(v)) == p.Label(u) {
			pin = graph.VertexID(v)
			break
		}
	}
	return []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"profile", Options{Profile: true}},
		{"no-sce-cache", Options{DisableSCECache: true}},
		{"callback-limit", Options{Limit: 50, OnEmbedding: func([]graph.VertexID) bool { return true }}},
		{"symmetry", Options{SymmetryConstraints: plan.SymmetryConstraints(p, plan.Automorphisms(p))}},
		{"pinned", Options{Pinned: [][2]graph.VertexID{{u, pin}}}},
	}
}

// sameStats compares two runs' Stats, wall-clock times aside.
func sameStats(a, b Stats) bool {
	pa, pb := a.Profile, b.Profile
	a.Elapsed, b.Elapsed, a.Profile, b.Profile = 0, 0, nil, nil
	if a != b || (pa == nil) != (pb == nil) {
		return false
	}
	return pa == nil || reflect.DeepEqual(pa.Levels, pb.Levels)
}

// TestProgramReuseExact compiles every executed pattern and variant of
// counts.golden's pool once, then runs the program three times in a row
// and from four goroutines at once, under every option set above. Each
// run's Stats must equal a one-shot Run's: a stage's cached version or
// output, a level's arena, or any other run state that leaked into the
// shared program would move a counter on the second run or under
// concurrency.
func TestProgramReuseExact(t *testing.T) {
	for _, name := range []string{"Yeast", "Human"} {
		spec, _ := dataset.ByName(name)
		g := spec.Generate()
		store := ccsr.Build(g)
		for _, c := range goldenClasses {
			cfg := dataset.PatternConfig{Size: c.size, Dense: c.dense, Count: 5, Seed: 2028}
			patterns, err := dataset.SamplePatterns(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range patterns {
				for _, variant := range graph.Variants() {
					view, err := store.ReadCSR(p, variant)
					if err != nil {
						t.Fatal(err)
					}
					pl, err := plan.Optimize(p, store, variant, plan.ModeCSCE)
					if err != nil {
						t.Fatal(err)
					}
					prog, err := Compile(view, pl, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, o := range programOptions(p, pl, store) {
						where := fmt.Sprintf("%s %s#%d %s %s", name, cfg.Name(), i, variant, o.name)
						checkProgramRuns(t, where, prog, store, view, pl, o.opts)
					}
				}
			}
		}
	}
}

func checkProgramRuns(t *testing.T, where string, prog *Program, store *ccsr.Store, view *ccsr.View, pl *plan.Plan, opts Options) {
	t.Helper()
	want, err := Run(view, pl, opts)
	if err != nil {
		t.Fatalf("%s: one-shot run: %v", where, err)
	}
	const sequential, concurrent = 3, 4
	got := make([]Stats, sequential+concurrent)
	errs := make([]error, len(got))
	for r := 0; r < sequential; r++ {
		got[r], errs[r] = prog.Run(store, opts)
	}
	var wg sync.WaitGroup
	for r := sequential; r < len(got); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r], errs[r] = prog.Run(store, opts)
		}(r)
	}
	wg.Wait()
	for r := range got {
		if errs[r] != nil {
			t.Fatalf("%s: program run %d: %v", where, r, errs[r])
		}
		if !sameStats(got[r], want) {
			t.Fatalf("%s: program run %d = %+v, one-shot run = %+v", where, r, got[r], want)
		}
	}
}

// TestProgramRefusesOtherStores: a program runs only on the store it was
// compiled against, at the version it was compiled at. A clone, an
// independently built twin, and the same store after each kind of write
// all get ErrForeignStore, never a count — the empty program of a pattern
// with a missing cluster included. So does Run on a view read before a
// write to its store.
func TestProgramRefusesOtherStores(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 200, 800, 3, 1, false)
	store := ccsr.Build(g)
	tri := graph.MustParse("t undirected\nv 0 0\nv 1 1\nv 2 2\ne 0 1\ne 1 2\ne 2 0\n")
	// Label 7 exists nowhere in g: the program is compiled empty.
	missing := graph.MustParse("t undirected\nv 0 0\nv 1 7\ne 0 1\n")
	compile := func() []*Program {
		t.Helper()
		var progs []*Program
		for _, p := range []*graph.Graph{tri, missing} {
			pl, err := plan.Optimize(p, store, graph.EdgeInduced, plan.ModeCSCE)
			if err != nil {
				t.Fatal(err)
			}
			view, err := store.ReadCSR(p, graph.EdgeInduced)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(view, pl, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(view, pl, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, err := prog.Run(store, Options{}); err != nil || !sameStats(got, want) {
				t.Fatalf("program on its own store: %+v, %v; want %+v", got, err, want)
			}
			progs = append(progs, prog)
		}
		return progs
	}
	refused := func(progs []*Program, other *ccsr.Store, what string) {
		t.Helper()
		for _, prog := range progs {
			if st, err := prog.Run(other, Options{}); !errors.Is(err, ErrForeignStore) {
				t.Errorf("program on %s: %+v, %v; want ErrForeignStore", what, st, err)
			}
		}
	}

	progs := compile()
	clone := store.Clone() // leaves store's contents, and version, alone
	refused(progs, clone, "a clone")
	refused(progs, ccsr.Build(g), "an independently built twin")
	for _, prog := range progs {
		if _, err := prog.Run(store, Options{}); err != nil {
			t.Errorf("program on its own store after a Clone: %v", err)
		}
	}

	// Find an absent edge between two existing vertices to insert and then
	// delete.
	dst := graph.VertexID(1)
	for store.InsertEdge(0, dst, 0) != nil {
		if dst++; int(dst) == store.NumVertices() {
			t.Fatal("vertex 0 is adjacent to every other vertex")
		}
	}
	refused(progs, store, "its store after InsertEdge")
	progs = compile()
	if err := store.DeleteEdge(0, dst, 0); err != nil {
		t.Fatal(err)
	}
	refused(progs, store, "its store after DeleteEdge")
	progs = compile()
	store.AddVertex(0)
	refused(progs, store, "its store after AddVertex")

	// A one-shot Run compiles from the view, so a view read before a write
	// to its store is refused too, not searched stale.
	view, err := store.ReadCSR(tri, graph.EdgeInduced)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Optimize(tri, store, graph.EdgeInduced, plan.ModeCSCE)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.InsertEdge(0, dst, 0); err != nil {
		t.Fatal(err)
	}
	if st, err := Run(view, pl, Options{}); !errors.Is(err, ErrForeignStore) {
		t.Errorf("Run on a view read before InsertEdge: %+v, %v; want ErrForeignStore", st, err)
	}
}

// TestProgramHoldsNoSnapshot walks everything a compiled program references
// and finds neither a ccsr.View nor a ccsr.Store: a cached program must not
// keep a superseded snapshot's whole store alive, only the rows it reads.
func TestProgramHoldsNoSnapshot(t *testing.T) {
	spec, _ := dataset.ByName("Yeast")
	g := spec.Generate()
	store := ccsr.Build(g)
	patterns, err := dataset.SamplePatterns(g, dataset.PatternConfig{Size: 6, Dense: true, Count: 1, Seed: 2028})
	if err != nil {
		t.Fatal(err)
	}
	p := patterns[0]
	for _, variant := range graph.Variants() {
		pl, err := plan.Optimize(p, store, variant, plan.ModeCSCE)
		if err != nil {
			t.Fatal(err)
		}
		view, err := store.ReadCSR(p, variant)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(view, pl, nil)
		if err != nil {
			t.Fatal(err)
		}
		forbidden := []reflect.Type{reflect.TypeOf(ccsr.View{}), reflect.TypeOf(ccsr.Store{})}
		if path := reaches(reflect.ValueOf(prog), forbidden, map[uintptr]bool{}, "prog"); path != "" {
			t.Errorf("%s: a program reaches %s", variant, path)
		}
	}
}

// reaches returns the path to the first value of a forbidden type
// reachable from v, or "".
func reaches(v reflect.Value, forbidden []reflect.Type, seen map[uintptr]bool, path string) string {
	for _, f := range forbidden {
		if v.Type() == f {
			return path
		}
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice:
		if v.IsNil() {
			return ""
		}
		if v.Kind() != reflect.Slice {
			if seen[v.Pointer()] {
				return ""
			}
			seen[v.Pointer()] = true
		}
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return reaches(v.Elem(), forbidden, seen, path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if r := reaches(v.Field(i), forbidden, seen, path+"."+v.Type().Field(i).Name); r != "" {
				return r
			}
		}
	case reflect.Slice, reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Map, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				if r := reaches(v.Index(i), forbidden, seen, fmt.Sprintf("%s[%d]", path, i)); r != "" {
					return r
				}
			}
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			if r := reaches(it.Value(), forbidden, seen, path+"[…]"); r != "" {
				return r
			}
		}
	}
	return ""
}

// TestProgramRestrict: a program compiled with a keep filter finds exactly
// the embeddings of the unfiltered program whose first order vertex maps to
// an accepted vertex, and the pools of both are exactly sized, so a cached
// program retains no slot it never reads.
func TestProgramRestrict(t *testing.T) {
	spec, _ := dataset.ByName("Yeast")
	g := spec.Generate()
	store := ccsr.Build(g)
	even := func(v graph.VertexID) bool { return v%2 == 0 }
	for _, c := range goldenClasses {
		cfg := dataset.PatternConfig{Size: c.size, Dense: c.dense, Count: 3, Seed: 2028}
		patterns, err := dataset.SamplePatterns(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range patterns {
			for _, variant := range graph.Variants() {
				where := fmt.Sprintf("%s#%d %s", cfg.Name(), i, variant)
				view, err := store.ReadCSR(p, variant)
				if err != nil {
					t.Fatal(err)
				}
				pl, err := plan.Optimize(p, store, variant, plan.ModeCSCE)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := Compile(view, pl, nil)
				if err != nil {
					t.Fatal(err)
				}
				restricted, err := Compile(view, pl, even)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range []*Program{prog, restricted} {
					if len(q.pool) != cap(q.pool) {
						t.Fatalf("%s: pool of %d ids in %d slots", where, len(q.pool), cap(q.pool))
					}
				}
				var want uint64
				first := pl.Order[0]
				all, err := prog.Run(store, Options{OnEmbedding: func(m []graph.VertexID) bool {
					if even(m[first]) {
						want++
					}
					return true
				}})
				if err != nil {
					t.Fatal(err)
				}
				got, err := restricted.Run(store, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got.Embeddings != want {
					t.Fatalf("%s: restricted program found %d embeddings, %d of the unfiltered program's %d start at an even vertex",
						where, got.Embeddings, want, all.Embeddings)
				}
			}
		}
	}
}
