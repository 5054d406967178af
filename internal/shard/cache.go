package shard

import (
	"strconv"
	"strings"

	"csce/internal/graph"
	"csce/internal/plan"
)

// decompKey keys the decomposition cache: variant, mode, the epoch of
// EVERY shard in shard order, and the pattern signature. The full vector
// matters — a mutation on any one shard changes that shard's label
// statistics, and a key carrying only (say) shard 0's epoch would keep
// serving a decomposition whose root-selectivity inputs are stale for the
// mutated shard. A commit drops the entries of superseded vectors
// (Coordinator.dropStale).
func decompKey(variant graph.Variant, mode plan.Mode, epochs []uint64, p *graph.Graph) string {
	var b strings.Builder
	b.Grow(16 + 12*len(epochs) + p.SignatureSize())
	b.WriteString(strconv.Itoa(int(variant)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(mode)))
	b.WriteByte('|')
	writeEpochs(&b, epochs)
	b.WriteByte('|')
	p.WriteSignature(&b)
	return b.String()
}

// writeEpochs writes a decompKey's epoch-vector field.
func writeEpochs(b *strings.Builder, epochs []uint64) {
	for _, e := range epochs {
		b.WriteString(strconv.FormatUint(e, 10))
		b.WriteByte(',')
	}
}

// keyEpochs returns the epoch-vector field of a decompKey.
func keyEpochs(key string) string {
	_, rest, _ := strings.Cut(key, "|")
	_, rest, _ = strings.Cut(rest, "|")
	field, _, _ := strings.Cut(rest, "|")
	return field
}
