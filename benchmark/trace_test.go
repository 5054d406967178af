package main

import (
	"testing"
	"time"
)

func mkspan(name string, start, end, parent int) span {
	return span{name: name, start: time.Duration(start), end: time.Duration(end), parent: parent}
}

// Self time is duration minus the union of the direct children, clipped
// to the parent: overlapping children are not subtracted twice, and a
// grandchild only reduces its own parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		mkspan("request", 0, 100, -1),   // 0
		mkspan("read", 10, 30, 0),       // 1
		mkspan("exec", 40, 90, 0),       // 2
		mkspan("inner", 50, 60, 2),      // 3: grandchild of request
		mkspan("scatter", 200, 300, -1), // 4
		mkspan("local", 210, 260, 4),    // 5: overlaps 6
		mkspan("local", 240, 290, 4),    // 6
		mkspan("local", 280, 320, 4),    // 7: sticks out past its parent
	}
	want := []time.Duration{
		100 - 20 - 50, // request: minus read and exec, not inner
		20,            // read
		50 - 10,       // exec minus inner
		10,            // inner
		100 - 90,      // scatter: union of locals is [210,300) clipped
		50, 50, 40,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].name, got[i], want[i])
		}
	}
}

// Hook-reported spans arrive innermost first; adopt nests them afterwards.
func TestRecorderAdopt(t *testing.T) {
	r := newRecorder()
	r.nextRequest()
	root := r.begin(rootSpan)
	mut := r.begin("live.mutate")
	time.Sleep(3 * time.Millisecond)
	fsync := r.observed("live.wal_fsync", time.Millisecond)
	appendID := r.observed("live.wal_append", 2*time.Millisecond)
	r.adopt(appendID, "live.wal_fsync")
	r.end(mut)
	r.end(root)

	if r.spans[fsync].parent != appendID {
		t.Errorf("fsync parent = %d, want the append span %d", r.spans[fsync].parent, appendID)
	}
	if r.spans[appendID].parent != mut {
		t.Errorf("append parent = %d, want live.mutate %d", r.spans[appendID].parent, mut)
	}
	if r.spans[mut].parent != root || r.spans[root].parent != -1 {
		t.Errorf("mutate parent = %d, root parent = %d", r.spans[mut].parent, r.spans[root].parent)
	}
	// A later request's spans are not claimed by an earlier append.
	r.nextRequest()
	other := r.observed("live.wal_fsync", time.Millisecond)
	r.adopt(appendID, "live.wal_fsync")
	if r.spans[other].parent == appendID {
		t.Error("adopt reached into another request")
	}
}

// Coverage is the share of the replay's wall time inside layer spans: a
// request root contributes its children, a top-level layer span all of
// itself, parallel children count once, gaps between requests not at all.
func TestCoverage(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		mkspan(rootSpan, 0, 100, -1),        // 0: 60 of 100 inside layers
		mkspan("ccsr.read", 10, 40, 0),      // 1
		mkspan("exec.run", 50, 80, 0),       // 2
		mkspan("live.mutate", 100, 200, -1), // 3: top-level layer span, all 100
		mkspan(rootSpan, 300, 400, -1),      // 4: after a gap of 100
		mkspan("shard.match", 300, 400, 4),  // 5
		mkspan("shard.local", 310, 390, 5),  // 6: two parallel locals
		mkspan("shard.local", 310, 390, 5),  // 7
	}
	ls := r.stats()
	if ls.wall != us(400) {
		t.Fatalf("wall = %v us, want %v", ls.wall, us(400))
	}
	want := float64(60+100+100) / 400
	if got := ls.coverage(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if got := ls.p50("shard.match"); got != us(20) {
		t.Errorf("shard.match self = %v us, want %v (the two locals overlap)", got, us(20))
	}
}

func TestEndOutOfOrderPanics(t *testing.T) {
	r := newRecorder()
	a := r.begin("a")
	r.begin("b")
	defer func() {
		if recover() == nil {
			t.Fatal("closing the outer span first must panic")
		}
	}()
	r.end(a)
}
