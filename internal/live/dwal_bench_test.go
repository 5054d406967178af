package live

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"csce/internal/ccsr"
	"csce/internal/core"
	"csce/internal/graph"
)

// buildWALDir commits batches mutations into a fresh WAL directory and
// closes the graph, leaving a log (plus any checkpoints rotation forced)
// for a replay benchmark to recover. Batches alternate insert/delete of
// the same edge so the recovered store stays constant-size regardless of
// log length — replay cost is then purely per-record.
func buildWALDir(tb testing.TB, dir string, batches int, d Durability) {
	tb.Helper()
	d.Dir = dir
	g, err := Open("bench", core.NewEngine(graph.MustParse(pathGraph)), Options{Durability: d})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < batches; i++ {
		m := Mutation{Op: OpInsertEdge, Src: 2, Dst: 3}
		if i%2 == 1 {
			m.Op = OpDeleteEdge
		}
		if _, err := g.Mutate(ctx, []Mutation{m}); err != nil {
			tb.Fatal(err)
		}
	}
	g.Close()
}

// BenchmarkWALAppend measures the full durable commit path — apply,
// serialize, disk append, snapshot swap — under each fsync policy. The
// spread between "never" and "always" is the price of the strongest
// durability guarantee (see EXPERIMENTS.md "Durable WAL").
func BenchmarkWALAppend(b *testing.B) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		b.Run(pol.String(), func(b *testing.B) {
			g, err := Open("bench", core.NewEngine(graph.MustParse(pathGraph)),
				Options{Durability: Durability{Dir: b.TempDir(), Fsync: pol}})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := Mutation{Op: OpInsertEdge, Src: 2, Dst: 3}
				if i%2 == 1 {
					m.Op = OpDeleteEdge
				}
				if _, err := g.Mutate(ctx, []Mutation{m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchStore builds a CCSR store with n vertices on a chain of edges —
// the "graph size" axis for the checkpoint benchmarks.
func benchStore(tb testing.TB, n int) *ccsr.Store {
	tb.Helper()
	var sb strings.Builder
	sb.WriteString("t undirected\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "v %d A\n", i)
	}
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, "e %d %d\n", i-1, i)
	}
	return core.NewEngine(graph.MustParse(sb.String())).Store()
}

// BenchmarkCheckpoint measures what one sealed segment costs in checkpoint
// work, at three store sizes and three KeepSegments settings, driving the
// diskWAL directly so nothing but the cycle is on the clock. Every
// iteration appends one record (sealing a segment) and asks the same
// question Mutate asks; a checkpoint — one full store serialization,
// O(vertices) — fires once per KeepSegments+1 sealed segments, so raising
// the knob divides the per-segment cost without a second on-disk format
// (see EXPERIMENTS.md "Checkpoint amortization").
func BenchmarkCheckpoint(b *testing.B) {
	for _, n := range []int{2_000, 20_000, 200_000} {
		st := benchStore(b, n)
		for _, keep := range []int{1, 4, 24} {
			b.Run(fmt.Sprintf("keep=%d/vertices=%d", keep, n), func(b *testing.B) {
				d, _, err := openDiskWAL(Durability{
					Dir: b.TempDir(), Fsync: FsyncNever, SegmentSize: 1, KeepSegments: keep,
				}, Observer{})
				if err != nil {
					b.Fatal(err)
				}
				defer d.close()
				if err := d.openAppend(1); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					seq := uint64(i + 1)
					rec := []Record{{Seq: seq, Epoch: seq, Mut: Mutation{Op: OpInsertEdge, Src: 0, Dst: 1}}}
					if err := d.append(rec); err != nil {
						b.Fatal(err)
					}
					if d.needsCheckpoint(seq) {
						if err := d.checkpoint(st, seq, seq); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkWALReplay measures startup recovery: reopen a directory whose
// log holds N records and replay it onto the base engine. Reported as
// records/sec (the number operators size their restart budget with).
func BenchmarkWALReplay(b *testing.B) {
	for _, records := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			dir := b.TempDir()
			// A huge segment bound and keep-count so nothing checkpoints:
			// every record is still in the log at reopen.
			buildWALDir(b, dir, records, Durability{
				Fsync: FsyncNever, SegmentSize: 1 << 30, KeepSegments: 1 << 20,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := Open("bench", core.NewEngine(graph.MustParse(pathGraph)),
					Options{Durability: Durability{Dir: dir, Fsync: FsyncNever,
						SegmentSize: 1 << 30, KeepSegments: 1 << 20}})
				if err != nil {
					b.Fatal(err)
				}
				rec := g.Recovery()
				if rec.ReplayedRecords != records {
					b.Fatalf("replayed %d records, want %d", rec.ReplayedRecords, records)
				}
				b.ReportMetric(float64(records)/rec.Duration.Seconds(), "records/s")
				g.Close()
			}
		})
	}
}
