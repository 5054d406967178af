package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"csce/internal/core"
	"csce/internal/dataset"
	"csce/internal/exec"
	"csce/internal/graph"
	"csce/internal/plan"
)

const kernelDataset = "Patent"

// Candidate rules for -pin. A candidate is admitted when its optimized run
// takes at most kernelMaxSteps extension steps (a count, so admission does
// not depend on the machine) and its reference count — SCE cache and
// factorization disabled, every embedding enumerated — finishes inside
// kernelReferenceLimit. kernelGuard only stops hopeless candidates early;
// a pattern within the step cap finishes far inside it.
const (
	kernelPerStratum     = 8
	kernelMaxSteps       = 300_000
	kernelGuard          = 2 * time.Second
	kernelReferenceLimit = 10 * time.Second
)

// kernelTask is one pinned task: how to regenerate its pattern, the
// variant it runs under, and the reference count. A zero Variant string
// with PlanOnly set marks a plan-only task (Fig. 10: optimization alone).
type kernelTask struct {
	Class      string `json:"class"`
	Size       int    `json:"size"`
	Dense      bool   `json:"dense"`
	Variant    string `json:"variant,omitempty"`
	PlanOnly   bool   `json:"plan_only,omitempty"`
	SampleSeed int64  `json:"sample_seed"`
	// Count is the reference embedding count; Steps is the optimized run's
	// step count when the task was pinned (informative).
	Count uint64 `json:"count,omitempty"`
	Steps uint64 `json:"steps,omitempty"`

	pattern *graph.Graph
	variant graph.Variant
}

// kernelFile is benchmark/kernel-tasks.json.
type kernelFile struct {
	Comment string       `json:"comment"`
	Dataset string       `json:"dataset"`
	Tasks   []kernelTask `json:"tasks"`
}

func kernelPath(e *env) string { return filepath.Join(e.root, "benchmark", "kernel-tasks.json") }

func parseVariant(s string) (graph.Variant, error) {
	for _, v := range graph.Variants() {
		if variantParam(v) == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q", s)
}

// materialize regenerates a task's pattern from its sampling seed.
func (t *kernelTask) materialize(g *graph.Graph) error {
	p, err := dataset.SamplePattern(g, t.Size, t.Dense, rand.New(rand.NewSource(t.SampleSeed)))
	if err != nil {
		return fmt.Errorf("kernel task %s seed %d: %w", t.Class, t.SampleSeed, err)
	}
	t.pattern = p
	if !t.PlanOnly {
		if t.variant, err = parseVariant(t.Variant); err != nil {
			return err
		}
	}
	return nil
}

// kernelInputs are the data graph and the tasks in this seed's order.
type kernelInputs struct {
	g     *graph.Graph
	tasks []kernelTask
}

// kernelPrepare loads the pinned tasks (or pins them afresh), checks the
// regenerated patterns against inputs.lock, and puts them in this seed's
// order. Every seed runs every task: the tasks are few and their costs
// span two orders of magnitude, so a seeded subset would let the seed,
// not the code, decide where the percentiles fall.
func kernelPrepare(e *env) (*kernelInputs, error) {
	g, err := loadDataset(kernelDataset)
	if err != nil {
		return nil, err
	}
	if err := checkGraph(e, kernelDataset, g); err != nil {
		return nil, err
	}
	var kf kernelFile
	if e.pin {
		if kf, err = pinKernelTasks(e, g); err != nil {
			return nil, err
		}
	} else {
		raw, err := os.ReadFile(kernelPath(e))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, &kf); err != nil {
			return nil, fmt.Errorf("kernel-tasks.json: %w", err)
		}
	}
	var texts []pattern
	for i := range kf.Tasks {
		t := &kf.Tasks[i]
		if err := t.materialize(g); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := graph.Format(&buf, t.pattern); err != nil {
			return nil, err
		}
		texts = append(texts, pattern{text: buf.Bytes(), variant: t.variant, class: t.Class})
	}
	// The candidates do not depend on the seed, so their digest is checked
	// on every run: a changed sampler would invalidate the pinned counts.
	if err := e.lock.check("pool/kernel-large", poolDigest(texts), e.pin); err != nil {
		return nil, err
	}

	in := &kernelInputs{g: g, tasks: kf.Tasks}
	rng := rand.New(rand.NewSource(e.seed*7919 + 5))
	rng.Shuffle(len(in.tasks), func(i, j int) { in.tasks[i], in.tasks[j] = in.tasks[j], in.tasks[i] })
	if e.smoke && len(in.tasks) > 25 {
		in.tasks = in.tasks[:25] // the self-check needs the machinery, not the coverage
	}
	return in, nil
}

// pinKernelTasks regenerates the candidate file: kernelPerStratum
// candidates for each of D8-D64 and S8 under all three variants, each
// with its reference count, plus the five plan-only patterns.
func pinKernelTasks(e *env, g *graph.Graph) (kernelFile, error) {
	eng := core.NewEngine(g)
	kf := kernelFile{
		Comment: "Pinned kernel-large candidates; regenerate with: bash benchmark/run.sh -pin -workload kernel-large",
		Dataset: kernelDataset,
	}
	type stratum struct {
		size  int
		dense bool
	}
	rng := rand.New(rand.NewSource(e.seed))
	for _, s := range []stratum{{8, true}, {16, true}, {32, true}, {64, true}, {8, false}} {
		c := class{size: s.size, dense: s.dense}
		for _, v := range graph.Variants() {
			for have, draws := 0, 0; have < kernelPerStratum; draws++ {
				if draws > 400 {
					return kf, fmt.Errorf("pin: stratum %s/%s short after %d draws", c.name(), variantParam(v), draws)
				}
				t := kernelTask{Class: c.name(), Size: s.size, Dense: s.dense, Variant: variantParam(v), SampleSeed: rng.Int63()}
				if err := t.materialize(g); err != nil {
					continue
				}
				fast, err := eng.Match(t.pattern, core.MatchOptions{Variant: v, TimeLimit: kernelGuard})
				if err != nil {
					return kf, err
				}
				if fast.Exec.TimedOut || fast.Exec.Steps > kernelMaxSteps {
					continue
				}
				ref, err := eng.Match(t.pattern, core.MatchOptions{
					Variant: v, TimeLimit: kernelReferenceLimit, DisableSCECache: true, DisableFactorization: true,
				})
				if err != nil {
					return kf, err
				}
				if ref.Exec.TimedOut {
					continue
				}
				if ref.Embeddings != fast.Embeddings {
					return kf, fmt.Errorf("pin: %s %s seed %d: optimized count %d, reference count %d",
						c.name(), variantParam(v), t.SampleSeed, fast.Embeddings, ref.Embeddings)
				}
				t.Count, t.Steps = ref.Embeddings, fast.Exec.Steps
				kf.Tasks = append(kf.Tasks, t)
				have++
			}
			fmt.Printf("pinned %s/%s\n", c.name(), variantParam(v))
		}
	}
	for _, n := range []int{64, 200, 500, 1000, 2000} {
		t := kernelTask{Class: fmt.Sprintf("S%d", n), Size: n, PlanOnly: true}
		for draws := 0; ; draws++ {
			if draws > 50 {
				return kf, fmt.Errorf("pin: no sparse pattern of size %d", n)
			}
			t.SampleSeed = rng.Int63()
			if t.materialize(g) == nil {
				break
			}
		}
		kf.Tasks = append(kf.Tasks, t)
	}
	raw, err := json.MarshalIndent(kf, "", " ")
	if err != nil {
		return kf, err
	}
	return kf, os.WriteFile(kernelPath(e), append(raw, '\n'), 0o644)
}

// run executes one task through the public engine API and checks its
// count against the pinned reference.
func (t *kernelTask) run(eng *core.Engine) (time.Duration, error) {
	start := time.Now()
	if t.PlanOnly {
		_, _, err := eng.PlanOnly(t.pattern, graph.EdgeInduced)
		return time.Since(start), err
	}
	res, err := eng.Match(t.pattern, core.MatchOptions{Variant: t.variant})
	d := time.Since(start)
	if err == nil && res.Embeddings != t.Count {
		err = fmt.Errorf("%s %s seed %d: %d embeddings, pinned reference %d", t.Class, t.Variant, t.SampleSeed, res.Embeddings, t.Count)
	}
	return d, err
}

// kernelE2E measures the library API: one worker, full factorized
// counting, whole passes over the selected tasks until the time is up.
func kernelE2E(e *env) (*result, error) {
	in, err := kernelPrepare(e)
	if err != nil {
		return nil, err
	}
	res := newResult()
	var setups []float64
	var eng *core.Engine
	for i := 0; i < e.coldStarts(); i++ {
		start := time.Now()
		eng = core.NewEngine(in.g)
		setups = append(setups, time.Since(start).Seconds())
	}
	pass := func(lats *[]float64) {
		for i := range in.tasks {
			d, err := in.tasks[i].run(eng)
			res.attempted++
			if err != nil {
				res.problemf("%v", err)
			}
			if lats != nil {
				*lats = append(*lats, ms(d))
			}
		}
	}
	pass(nil) // warm-up: one discarded pass
	var lats, passS []float64
	start := time.Now()
	// Whole passes only: a partial pass would change which tasks the
	// percentiles are taken over.
	for len(passS) == 0 || (time.Since(start) < e.measure() && e.ctx.Err() == nil) {
		passStart := time.Now()
		pass(&lats)
		passS = append(passS, time.Since(passStart).Seconds())
	}
	passes := len(passS)
	elapsed := time.Since(start)
	heap := selfHeapLiveMB()

	sorted := sortedCopy(lats)
	res.metrics["setup_s"] = medianOf(setups)
	res.metrics["op_p50_ms"] = median(sorted)
	// A pass is the natural block of blockRate here: every pass does the
	// same work, so the median pass is the run's steady throughput.
	res.metrics["ops_s"] = ratio(float64(len(in.tasks)), medianOf(passS))
	res.metrics["heap_live_mb"] = heap
	res.report = append(res.report, fmt.Sprintf("kernel-large: %d tasks x %d passes in %.2fs (%.3f s per pass, p95 %.3f ms); NewEngine %.3f s",
		len(in.tasks), passes, elapsed.Seconds(), elapsed.Seconds()/float64(passes), tail(sorted), setups))
	return res, nil
}

// kernelTraced replays the tasks by calling the layers directly — ReadCSR,
// Optimize, exec.Run — with a span around each, then times the untraced
// Engine.Match on the same tasks.
func kernelTraced(e *env) (*result, error) {
	in, err := kernelPrepare(e)
	if err != nil {
		return nil, err
	}
	res := newResult()
	eng := core.NewEngine(in.g)
	store := eng.Store()
	rec := newRecorder()
	var n layerCounts
	var pipelineUs, planN2000 []float64
	order := make([]int, len(in.tasks))
	for i := range order {
		order[i] = i
	}
	passes, err := replayPasses(e.ctx, order, e.measure()/2, func(i int) error {
		t := &in.tasks[i]
		rec.nextRequest()
		root := rec.begin(rootSpan)
		defer rec.end(root)
		n.requests++
		variant := t.variant
		if t.PlanOnly {
			variant = graph.EdgeInduced
		}
		var pipeline time.Duration
		if !t.PlanOnly {
			s := rec.begin("ccsr.read")
			v, err := store.ReadCSR(t.pattern, variant)
			pipeline += rec.end(s)
			if err != nil {
				return err
			}
			n.clusters += uint64(v.NumClusters())
			n.viewBytes += uint64(v.DecompressedBytes())
			s = rec.begin("plan.optimize")
			pl, err := plan.Optimize(t.pattern, store, variant, plan.ModeCSCE)
			pipeline += rec.end(s)
			if err != nil {
				return err
			}
			n.sceRatio += pl.SCE.Ratio()
			s = rec.begin("exec.run")
			st, err := exec.Run(v, pl, exec.Options{})
			pipeline += rec.end(s)
			if err != nil {
				return err
			}
			n.steps += st.Steps
			n.builds += st.CandidateBuilds
			n.reuses += st.CandidateReuses
			n.embeddings += st.Embeddings
			if st.Embeddings != t.Count {
				res.problemf("replay: %s %s seed %d: %d embeddings, pinned reference %d", t.Class, t.Variant, t.SampleSeed, st.Embeddings, t.Count)
			}
			pipelineUs = append(pipelineUs, us(pipeline))
			return nil
		}
		s := rec.begin("plan.optimize")
		pl, err := plan.Optimize(t.pattern, store, variant, plan.ModeCSCE)
		d := rec.end(s)
		if err != nil {
			return err
		}
		n.sceRatio += pl.SCE.Ratio()
		if t.Size == 2000 {
			planN2000 = append(planN2000, ms(d))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Untraced calls on the same tasks: two passes, the fewest that leave
	// ten samples beyond the 95th percentile of the ops.
	var opMs []float64
	for pass := 0; pass < 2; pass++ {
		for i := range in.tasks {
			t := &in.tasks[i]
			id := -1
			if !t.PlanOnly {
				rec.nextRequest()
				id = rec.begin("core.match")
			}
			d, err := t.run(eng)
			if id >= 0 {
				rec.end(id)
			}
			if err != nil {
				res.problemf("%v", err)
			}
			opMs = append(opMs, ms(d))
		}
	}
	res.metrics["client.op_p95_ms"] = tail(sortedCopy(opMs))
	res.attempted += n.requests
	fillCore(res.metrics, rec.stats(), n, passes, pipelineUs)
	res.metrics["plan.optimize_ms_n2000"] = medianOf(planN2000)
	res.metrics["client.samples"] = float64(n.requests)
	res.metrics["client.rss_peak_mb"] = selfRSSPeakMB()
	path, err := rec.writeSpans(e.outDir, "kernel-large")
	if err != nil {
		return nil, err
	}
	res.report = append(res.report, fmt.Sprintf("kernel-large: replay %d passes of %d tasks; spans in %s", passes, len(in.tasks), relPath(e.root, path)))
	return res, nil
}

// selfRSSPeakMB is this process's VmHWM: kernel-large has no daemon, the
// library runs inside the harness.
func selfRSSPeakMB() float64 {
	kb, _ := statusKB("/proc/self/status", "VmHWM")
	return float64(kb) / 1024
}
