package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"csce/internal/core"
	"csce/internal/dataset"
	"csce/internal/graph"
	"csce/internal/server"
)

// streamLimit is csced's default -max-limit: a /match reply streams at
// most this many embeddings, so the oracle expects min(count, streamLimit).
const streamLimit = 10000

// loadDataset generates a catalog graph exactly the way `csced -dataset`
// does (same generator seed, numeric label table), so patterns sampled
// here name the labels the daemon interned.
func loadDataset(name string) (*graph.Graph, error) {
	spec, ok := dataset.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	g := spec.Generate()
	if g.Names == nil {
		g.Names = server.NumericLabels(g)
	}
	return g, nil
}

// pattern is one pool member: the sampled graph, its wire text, the
// variant it is always queried under, and the reply the oracle expects.
type pattern struct {
	g       *graph.Graph
	text    []byte
	variant graph.Variant
	class   string // D8, S16, ...
	// expect is min(exact count, streamLimit) on the base data graph.
	expect uint64
}

func variantParam(v graph.Variant) string {
	switch v {
	case graph.VertexInduced:
		return "vertex"
	case graph.Homomorphic:
		return "homo"
	default:
		return "edge"
	}
}

// class is one stratum of a pool: size, density, and how many members each
// variant contributes. Fixed quotas per stratum keep the pool's cost mix
// the same for every seed; only the sampled members change.
type class struct {
	size  int
	dense bool
	quota map[graph.Variant]int
}

func (c class) name() string {
	k := "S"
	if c.dense {
		k = "D"
	}
	return fmt.Sprintf("%s%d", k, c.size)
}

// poolRule describes a pattern pool: its strata and which sampled patterns
// qualify.
type poolRule struct {
	classes []class
	// keep decides on a sampled pattern under its own variant and returns
	// the reply the oracle expects for it: min(count, streamLimit).
	keep func(eng *core.Engine, p *graph.Graph, v graph.Variant) (expect uint64, ok bool, err error)
}

// hangGuard bounds one qualifying run. It is a guard only: hitting it is
// an error or a rejection far from any accept threshold, never a silent
// skip of a pattern that would otherwise qualify, so selection stays a
// function of the seed alone.
const hangGuard = 20 * time.Second

// limitedCount counts p's embeddings up to streamLimit with factorized
// counting — cheap even when the full count is astronomical.
func limitedCount(eng *core.Engine, p *graph.Graph, v graph.Variant) (uint64, error) {
	res, err := eng.Match(p, core.MatchOptions{Variant: v, Limit: streamLimit, TimeLimit: hangGuard})
	if err != nil {
		return 0, err
	}
	if res.Exec.TimedOut {
		return 0, fmt.Errorf("counting a %d-vertex pattern exceeded the %v hang guard", p.NumVertices(), hangGuard)
	}
	return res.Embeddings, nil
}

// selectiveKeep admits patterns with 1-100 embeddings: a reply that is
// almost all fixed per-request cost.
func selectiveKeep(eng *core.Engine, p *graph.Graph, v graph.Variant) (uint64, bool, error) {
	n, err := limitedCount(eng, p, v)
	return n, n >= 1 && n <= 100, err
}

// enumerateMaxSteps caps the search a limit-bound reply may need: five
// extension steps per embedding streamed. Most sparse patterns with 10000+
// embeddings reach the limit in 1-1.5 steps per embedding; a few wander
// through millions of dead ends first (seconds per reply, some past the
// 5 s default timeout), which would make the workload measure those few
// patterns instead of the stream path.
const enumerateMaxSteps = 5 * streamLimit

// enumerateKeep admits patterns that stream exactly streamLimit embeddings
// and find them within enumerateMaxSteps steps, enumerating the way a
// /match does (a callback per embedding, so no factorized counting).
func enumerateKeep(eng *core.Engine, p *graph.Graph, v graph.Variant) (uint64, bool, error) {
	n, err := limitedCount(eng, p, v)
	if err != nil || n < streamLimit {
		return n, false, err
	}
	res, err := eng.Match(p, core.MatchOptions{
		Variant: v, Limit: streamLimit, TimeLimit: time.Second,
		OnEmbedding: func([]graph.VertexID) bool { return true },
	})
	if err != nil {
		return 0, false, err
	}
	// A second of search is thousands of times the step cap's worth.
	ok := !res.Exec.TimedOut && res.Exec.Steps <= enumerateMaxSteps && res.Embeddings == streamLimit
	return streamLimit, ok, nil
}

// quotas splits n members of a stratum: half edge-induced, a quarter each
// vertex-induced and homomorphic.
func quotas(n int) map[graph.Variant]int {
	return map[graph.Variant]int{
		graph.EdgeInduced:   n / 2,
		graph.VertexInduced: n / 4,
		graph.Homomorphic:   n / 4,
	}
}

// quotasNoVertex splits n members evenly between the two variants a
// sharded graph and a subscription accept.
func quotasNoVertex(n int) map[graph.Variant]int {
	return map[graph.Variant]int{graph.EdgeInduced: n / 2, graph.Homomorphic: n / 2}
}

// buildPool samples patterns from g stratum by stratum until every quota
// is filled. Sampling is driven only by rng, and acceptance only by counts
// the engine returns, so the same seed always yields the same pool. A stratum that
// cannot fill its quota in a bounded number of draws is an error: an
// empty or short pool would silently change the workload.
func buildPool(g *graph.Graph, eng *core.Engine, rng *rand.Rand, rule poolRule) ([]pattern, error) {
	var pool []pattern
	for _, c := range rule.classes {
		variants := make([]graph.Variant, 0, len(c.quota))
		for v := range c.quota {
			variants = append(variants, v)
		}
		sort.Slice(variants, func(i, j int) bool { return variants[i] < variants[j] })
		for _, v := range variants {
			need := c.quota[v]
			for draws := 0; need > 0; draws++ {
				if draws > 4000 {
					return nil, fmt.Errorf("pool: stratum %s/%s short by %d after %d draws", c.name(), v, need, draws)
				}
				p, err := dataset.SamplePattern(g, c.size, c.dense, rng)
				if err != nil {
					continue // the sampler gave up on this start vertex; the draw cap bounds retries
				}
				expect, ok, err := rule.keep(eng, p, v)
				if err != nil {
					return nil, fmt.Errorf("pool: %s: %w", c.name(), err)
				}
				if !ok {
					continue
				}
				var buf bytes.Buffer
				if err := graph.Format(&buf, p); err != nil {
					return nil, err
				}
				pool = append(pool, pattern{g: p, text: buf.Bytes(), variant: v, class: c.name(), expect: expect})
				need--
			}
		}
	}
	return pool, nil
}

// shardedMaxStar bounds, for the sharded pool, how many matches any one
// pattern vertex's star may have in the data graph.
const shardedMaxStar = 5000

// starCounter answers "how many homomorphic matches does this star have":
// a property of the pattern and the data graph alone, so a pool rule built
// on it selects the same patterns whatever the matching code does. It is
// the semantic stand-in for the size of a scatter-gather twig relation (a
// twig is a rooted star), which the rule must not read off the coordinator
// itself: an optimization there would then change the pool it is judged on.
type starCounter struct {
	g *graph.Graph
	// byLabel[v][l] is how many neighbours of data vertex v carry label l.
	byLabel [][]float64
}

func newStarCounter(g *graph.Graph) *starCounter {
	labels := 0
	for _, l := range g.Labels() {
		if int(l) >= labels {
			labels = int(l) + 1
		}
	}
	s := &starCounter{g: g, byLabel: make([][]float64, g.NumVertices())}
	for v := range s.byLabel {
		s.byLabel[v] = make([]float64, labels)
		for _, w := range g.UndirectedNeighbors(graph.VertexID(v)) {
			s.byLabel[v][g.Label(w)]++
		}
	}
	return s
}

// maxStar is the largest, over p's vertices u, number of ways to map u and
// its neighbours into the data graph respecting labels and adjacency.
func (s *starCounter) maxStar(p *graph.Graph) float64 {
	var max float64
	for u := 0; u < p.NumVertices(); u++ {
		pu := graph.VertexID(u)
		leaves := p.UndirectedNeighbors(pu)
		var matches float64
		for v, l := range s.g.Labels() {
			if l != p.Label(pu) {
				continue
			}
			ways := 1.0
			for _, w := range leaves {
				ways *= s.byLabel[v][p.Label(w)]
			}
			matches += ways
		}
		if matches > max {
			max = matches
		}
	}
	return max
}

// poolDigest is the SHA-256 over every member's variant and wire text, in
// pool order.
func poolDigest(pool []pattern) string {
	h := sha256.New()
	for _, p := range pool {
		fmt.Fprintf(h, "%s %s %d\n", p.class, variantParam(p.variant), len(p.text))
		h.Write(p.text)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// graphDigest is the SHA-256 of g's text form.
func graphDigest(g *graph.Graph) (string, error) {
	h := sha256.New()
	if err := graph.Format(h, g); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// lockFile holds "key sha256" lines: every data graph (seed-independent)
// and every default-seed pool. internal/dataset lies outside the
// benchmark's paths, so a change there must fail the run instead of
// silently changing the workload.
type lockFile map[string]string

func readLock(path string) (lockFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lf := lockFile{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: bad line %q", path, line)
		}
		lf[k] = strings.TrimSpace(v)
	}
	return lf, nil
}

func (lf lockFile) write(path string) error {
	keys := make([]string, 0, len(lf))
	for k := range lf {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# SHA-256 of every generated data graph and of every default-seed pattern pool.\n")
	b.WriteString("# Regenerate with: bash benchmark/run.sh -pin\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, lf[k])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// check compares one digest against the lock; pinning records it instead.
func (lf lockFile) check(key, digest string, pin bool) error {
	if pin {
		lf[key] = digest
		return nil
	}
	want, ok := lf[key]
	if !ok {
		return fmt.Errorf("inputs.lock has no entry %q (run with -pin to record it)", key)
	}
	if want != digest {
		return fmt.Errorf("input %q changed: sha256 %s, inputs.lock pins %s — the workload is not the one the numbers were taken on", key, digest, want)
	}
	return nil
}

// requestStream yields pool indices for one closed-loop client: every pass
// is a fresh seeded permutation of the whole pool, so each pattern is
// requested equally often and the order still varies.
type requestStream struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newRequestStream(seed int64, client, poolSize int) *requestStream {
	return &requestStream{
		rng:  rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 17)),
		perm: make([]int, 0, poolSize),
		pos:  poolSize,
	}
}

func (s *requestStream) next() int {
	if s.pos >= cap(s.perm) {
		s.perm = s.perm[:cap(s.perm)]
		for i := range s.perm {
			s.perm[i] = i
		}
		s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
		s.pos = 0
	}
	i := s.perm[s.pos]
	s.pos++
	return i
}

// matchPath is the request target for one pool member.
func matchPath(graphName string, p pattern) string {
	return "/v1/graphs/" + graphName + "/match?variant=" + variantParam(p.variant)
}
