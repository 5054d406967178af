package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/core"
)

// testPool is a small selective pool on Yeast.
func testPool(t *testing.T, seed int64) ([]pattern, *core.Engine) {
	t.Helper()
	g, err := loadDataset("Yeast")
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(g)
	rule := poolRule{classes: []class{{8, true, quotas(8)}, {8, false, quotasNoVertex(4)}}, keep: selectiveKeep}
	pool, err := buildPool(g, eng, rand.New(rand.NewSource(seed)), rule)
	if err != nil {
		t.Fatal(err)
	}
	return pool, eng
}

// requestBytes renders the first n requests of a client's stream the way
// they go on the wire: target line plus body.
func requestBytes(pool []pattern, seed int64, client, n int) []byte {
	var buf bytes.Buffer
	s := newRequestStream(seed, client, len(pool))
	for i := 0; i < n; i++ {
		p := pool[s.next()]
		buf.WriteString(matchPath("Yeast", p))
		buf.WriteByte('\n')
		buf.Write(p.text)
	}
	return buf.Bytes()
}

// Same seed, byte-identical request streams; another seed, another stream.
func TestSeedDeterminism(t *testing.T) {
	a, _ := testPool(t, 7)
	b, _ := testPool(t, 7)
	c, _ := testPool(t, 8)
	if len(a) != 12 {
		t.Fatalf("pool has %d members, want 12 (every quota filled)", len(a))
	}
	for _, p := range a {
		if p.expect < 1 || p.expect > 100 {
			t.Errorf("%s %s: %d embeddings, outside the selective rule", p.class, variantParam(p.variant), p.expect)
		}
	}
	if poolDigest(a) != poolDigest(b) {
		t.Error("same seed produced different pools")
	}
	if poolDigest(a) == poolDigest(c) {
		t.Error("different seeds produced the same pool")
	}
	for client := 0; client < 2; client++ {
		if !bytes.Equal(requestBytes(a, 7, client, 500), requestBytes(b, 7, client, 500)) {
			t.Errorf("client %d: same seed produced different request streams", client)
		}
	}
	if bytes.Equal(requestBytes(a, 7, 0, 500), requestBytes(a, 7, 1, 500)) {
		t.Error("both clients replay the same stream")
	}

	g, _ := loadDataset("Yeast")
	batches := func(seed int64) []byte {
		gen, err := newMutGen(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for i := 0; i < 100; i++ {
			raw, _ := json.Marshal(gen.next())
			buf.Write(raw)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(batches(7), batches(7)) {
		t.Error("same seed produced different mutation batches")
	}
	if bytes.Equal(batches(7), batches(8)) {
		t.Error("different seeds produced the same mutation batches")
	}
}

// Every pass of a request stream visits every pool member exactly once.
func TestRequestStreamCoversPool(t *testing.T) {
	s := newRequestStream(3, 0, 10)
	for pass := 0; pass < 3; pass++ {
		seen := map[int]int{}
		for i := 0; i < 10; i++ {
			seen[s.next()]++
		}
		if len(seen) != 10 {
			t.Fatalf("pass %d visited %d of 10 members", pass, len(seen))
		}
	}
}

// The mutation generator is valid by construction: a CCSR store accepts
// every mutation of every batch (a duplicate insert or a missing delete
// would be an error), and the shadow graph stays equal to the store.
func TestMutGenValidAgainstStore(t *testing.T) {
	g, err := loadDataset("Yeast")
	if err != nil {
		t.Fatal(err)
	}
	store := ccsr.Build(g)
	gen, err := newMutGen(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	adds := 0
	for round := 0; round < 600; round++ {
		batch := gen.next()
		if len(batch) != batchSize {
			t.Fatalf("round %d: batch of %d mutations, want %d", round, len(batch), batchSize)
		}
		for i, m := range batch {
			if m.Op == "add_vertex" {
				adds++
			}
			if err := applyToStore(store, g.Names, m); err != nil {
				t.Fatalf("round %d mutation %d (%+v): %v", round, i, m, err)
			}
		}
		if store.NumEdges() != len(gen.present) || store.NumVertices() != len(gen.labels) {
			t.Fatalf("round %d: store has %d edges %d vertices, shadow %d and %d",
				round, store.NumEdges(), store.NumVertices(), len(gen.present), len(gen.labels))
		}
	}
	if adds != 2*(600/growEvery+1) && adds != 2*(600/growEvery) {
		t.Errorf("%d add_vertex mutations in 600 rounds, want two every %d rounds", adds, growEvery)
	}
	// The churn keeps the graph near its base size.
	if d := store.NumEdges() - g.NumEdges(); d < -absentFloor || d > absentFloor {
		t.Errorf("edge count drifted by %d, want within %d of the base graph", d, absentFloor)
	}
	// Every added vertex became an endpoint.
	if len(gen.newVerts) > 2 {
		t.Errorf("%d added vertices still without an edge", len(gen.newVerts))
	}
}

// verifyEmbedding accepts a real embedding and rejects a corrupted one.
func TestVerifyEmbedding(t *testing.T) {
	pool, eng := testPool(t, 11)
	g, _ := loadDataset("Yeast")
	for _, p := range pool {
		var first []byte
		_, err := eng.Match(p.g, core.MatchOptions{Variant: p.variant, Limit: 1, OnEmbedding: func(m []uint32) bool {
			s := ndjsonSink{}
			s.emit(m)
			first = append([]byte(nil), s.buf...)
			return true
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := verifyEmbedding(p, first, staticGraph{g}); err != nil {
			t.Errorf("%s %s: a real embedding was rejected: %v", p.class, variantParam(p.variant), err)
		}
		bad := bytes.Replace(first, []byte("["), []byte("[999999,"), 1)
		if err := verifyEmbedding(p, bad, staticGraph{g}); err == nil {
			t.Errorf("%s: a corrupted embedding was accepted", p.class)
		}
	}
}
