package obs

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestSpanIDHexRoundTrip(t *testing.T) {
	id := SpanID(0xdeadbeef01020304)
	if got := id.Hex(); got != "deadbeef01020304" {
		t.Fatalf("Hex() = %q", got)
	}
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(b) != `"deadbeef01020304"` {
		t.Fatalf("json = %s", b)
	}
	var back SpanID
	if err := json.Unmarshal(b, &back); err != nil || back != id {
		t.Fatalf("unmarshal = %v, %v", back, err)
	}
	if err := back.UnmarshalText([]byte("xyz")); err == nil {
		t.Fatal("bad hex should fail")
	}
}

func TestSpanIDsUniqueWithinTrace(t *testing.T) {
	tr := NewTrace()
	seen := map[SpanID]bool{tr.root: true}
	if tr.root == 0 {
		t.Fatal("root span ID is zero")
	}
	for i := 0; i < 1000; i++ {
		id := tr.newSpanID()
		if id == 0 {
			t.Fatal("minted a zero span ID")
		}
		if seen[id] {
			t.Fatalf("duplicate span ID %s after %d spans", id.Hex(), i)
		}
		seen[id] = true
	}
}

// TestStartSpanCtxNesting proves the parent chain: spans opened under a
// derived context nest below the span that derived it, and siblings share
// a parent.
func TestStartSpanCtxNesting(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)

	scatterCtx, endScatter := StartSpanCtx(ctx, "scatter")
	_, endLocalA := StartSpanCtx(scatterCtx, "local-a")
	_, endLocalB := StartSpanCtx(scatterCtx, "local-b")
	endLocalA()
	endLocalB()
	endScatter(Int("shards", 2))
	_, endJoin := StartSpanCtx(ctx, "join")
	endJoin()

	ft, _ := tr.Finish("root")
	byName := map[string]Span{}
	for _, sp := range ft.Spans {
		byName[sp.Name] = sp
	}
	scatter := byName["scatter"]
	if scatter.Parent != ft.Root {
		t.Fatalf("scatter parent = %s, want root %s", scatter.Parent.Hex(), ft.Root.Hex())
	}
	for _, name := range []string{"local-a", "local-b"} {
		if byName[name].Parent != scatter.ID {
			t.Fatalf("%s parent = %s, want scatter %s", name, byName[name].Parent.Hex(), scatter.ID.Hex())
		}
	}
	if byName["join"].Parent != ft.Root {
		t.Fatalf("join parent = %s, want root (siblings of scatter)", byName["join"].Parent.Hex())
	}
	if root := byName["root"]; root.ID != ft.Root || root.Parent != 0 {
		t.Fatalf("root span = %+v", root)
	}
}

func TestStartSpanCtxUntraced(t *testing.T) {
	ctx := context.Background()
	got, end := StartSpanCtx(ctx, "noop")
	if got != ctx {
		t.Fatal("untraced context should come back unchanged")
	}
	end(Str("k", "v")) // must not panic
}

// recordingSink captures sink invocations and scripts the accepted flag.
type recordingSink struct {
	calls  int
	last   FinishedTrace
	accept bool
}

func (r *recordingSink) TraceFinished(ft FinishedTrace) bool {
	r.calls++
	r.last = ft
	return r.accept
}

// TestFinishIdempotentAndSink asserts Finish materializes the root span
// exactly once, hands the snapshot to the sink, propagates the sink's
// verdict, and returns the zero value on any later call.
func TestFinishIdempotentAndSink(t *testing.T) {
	tr := NewTrace()
	sink := &recordingSink{accept: true}
	tr.Sink = sink
	tr.StartSpan("child")(Int("n", 1))

	ft, accepted := tr.Finish("req", Str("outcome", "ok"))
	if !accepted {
		t.Fatal("sink accepted but Finish reported false")
	}
	if sink.calls != 1 {
		t.Fatalf("sink called %d times", sink.calls)
	}
	if len(ft.Spans) != 2 || ft.Spans[len(ft.Spans)-1].Name != "req" {
		t.Fatalf("spans = %+v", ft.Spans)
	}
	if ft.ID != tr.ID || ft.Root != tr.root {
		t.Fatalf("finished trace identity mismatch: %+v", ft)
	}

	if ft2, acc2 := tr.Finish("req"); acc2 || len(ft2.Spans) != 0 {
		t.Fatalf("second Finish = %+v, %v; want zero value", ft2, acc2)
	}
	if sink.calls != 1 {
		t.Fatalf("sink called again on second Finish (%d)", sink.calls)
	}

	var nilTrace *Trace
	if _, acc := nilTrace.Finish("x"); acc {
		t.Fatal("nil trace Finish accepted")
	}
}

func TestFinishSinkRejection(t *testing.T) {
	tr := NewTrace()
	tr.Sink = &recordingSink{accept: false}
	if _, accepted := tr.Finish("req"); accepted {
		t.Fatal("Finish should report the sink's rejection")
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(2)
	mk := func() FinishedTrace {
		tr := NewTrace()
		ft, _ := tr.Finish("req")
		return ft
	}
	a, b, c := mk(), mk(), mk()
	r.Add(a)
	r.Add(b)
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	if got, ok := r.Get(a.ID); !ok || got.ID != a.ID {
		t.Fatalf("Get(a) = %+v, %v", got, ok)
	}
	r.Add(c) // evicts a
	if _, ok := r.Get(a.ID); ok {
		t.Fatal("a should have been evicted")
	}
	for _, ft := range []FinishedTrace{b, c} {
		if _, ok := r.Get(ft.ID); !ok {
			t.Fatalf("trace %s missing after eviction", ft.ID)
		}
	}
	if r.Len() != 2 {
		t.Fatalf("after eviction len = %d", r.Len())
	}
	if _, ok := r.Get(TraceID("0000000000000000")); ok {
		t.Fatal("unknown ID should miss")
	}
}

func TestRuntimeCollector(t *testing.T) {
	rc := NewRuntimeCollector(time.Second)
	defer rc.Close()
	st, ok := rc.Latest()
	if !ok {
		t.Fatal("collector primed at construction should have a sample")
	}
	if st.Goroutines <= 0 {
		t.Fatalf("goroutines = %d", st.Goroutines)
	}
	if st.HeapBytes <= 0 {
		t.Fatalf("heap bytes = %d", st.HeapBytes)
	}
	if st.SampledAt.IsZero() {
		t.Fatal("sample has no timestamp")
	}
	rc.Close() // idempotent

	var nilRC *RuntimeCollector
	if _, ok := nilRC.Latest(); ok {
		t.Fatal("nil collector should report no sample")
	}
	nilRC.Close() // nil-safe
}
