package shard

import (
	"context"
	"fmt"

	"csce/internal/graph"
	"csce/internal/live"
)

// Mutation routing. One logical batch is split into per-shard sub-batches:
// vertex adds are broadcast to every shard (label arrays are replicated),
// an edge op goes to its endpoints' owner shard — or BOTH owners when the
// edge crosses shards, keeping boundary replication intact. Sub-batches
// apply in parallel, one writer per shard.
//
// Atomicity is per shard, not global: each shard applies its sub-batch
// atomically (live.Graph rolls back on failure), and on partial failure
// the coordinator restores a consistent global state best-effort — edge
// ops are compensated (inverse ops, reverse order) on the shards that had
// committed them, while vertex adds are re-applied to the shards that
// rolled them back (adds cannot fail), so every shard keeps the identical
// vertex set the ownership map describes. The failed batch's vertices
// therefore REMAIN added even when Mutate returns an error; its edge ops
// do not survive anywhere.

// BatchResult reports one routed mutation batch.
type BatchResult struct {
	// Mutations is the logical batch size (before routing fan-out).
	Mutations int
	// AddedVertices lists the new global vertex IDs, in mutation order.
	AddedVertices []graph.VertexID
	// Epochs is the post-commit epoch vector.
	Epochs []uint64
	// ShardsTouched counts shards that received a non-empty sub-batch.
	ShardsTouched int
}

// crossOp records one cross-shard edge op for boundary-gauge accounting.
type crossOp struct {
	a, b  int
	delta int64
}

// Mutate routes one batch to the shards. Vertex-adding batches serialize
// against each other (they grow the ownership map on every shard in
// lockstep); edge-only batches on disjoint shards run concurrently.
func (c *Coordinator) Mutate(ctx context.Context, muts []live.Mutation) (BatchResult, error) {
	var res BatchResult
	if len(muts) == 0 {
		return res, fmt.Errorf("shard: empty mutation batch")
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	hasAdd := false
	for _, m := range muts {
		if m.Op == live.OpAddVertex {
			hasAdd = true
			break
		}
	}
	if hasAdd {
		c.vmu.Lock()
		defer c.vmu.Unlock()
	} else {
		c.vmu.RLock()
		defer c.vmu.RUnlock()
	}

	owners := c.own.snapshot()
	base := len(owners)
	batches := make([][]live.Mutation, c.k)
	var newOwners []uint16
	var cross []crossOp

	ownerAt := func(v graph.VertexID) (int, error) {
		switch {
		case int(v) < base:
			return int(owners[v]), nil
		case int(v) < base+len(newOwners):
			return int(newOwners[int(v)-base]), nil
		default:
			return 0, fmt.Errorf("shard: vertex %d out of range (have %d)", v, base+len(newOwners))
		}
	}
	for _, m := range muts {
		switch m.Op {
		case live.OpAddVertex:
			// VertexLabel must be resolved by the caller (the server interns
			// names before routing); SchemeLabel hashes the resolved id.
			id := graph.VertexID(base + len(newOwners))
			newOwners = append(newOwners, uint16(c.scheme.assign(id, m.VertexLabel, c.k)))
			res.AddedVertices = append(res.AddedVertices, id)
			for i := range batches {
				batches[i] = append(batches[i], m)
			}
		case live.OpInsertEdge, live.OpDeleteEdge:
			ou, err := ownerAt(m.Src)
			if err != nil {
				return BatchResult{}, err
			}
			ov, err := ownerAt(m.Dst)
			if err != nil {
				return BatchResult{}, err
			}
			batches[ou] = append(batches[ou], m)
			if ov != ou {
				batches[ov] = append(batches[ov], m)
				delta := int64(1)
				if m.Op == live.OpDeleteEdge {
					delta = -1
				}
				cross = append(cross, crossOp{a: ou, b: ov, delta: delta})
			}
		default:
			return BatchResult{}, fmt.Errorf("shard: unknown mutation op %d", m.Op)
		}
	}

	// Extend ownership BEFORE applying: a reader pinning a post-commit
	// snapshot must find owners for every vertex it can see. On total
	// failure the extension is truncated back; on partial failure the
	// repair below makes it accurate.
	if len(newOwners) > 0 {
		c.own.append(newOwners...)
	}

	touched := make([]int, 0, c.k)
	for i := range batches {
		if len(batches[i]) > 0 {
			touched = append(touched, i)
		}
	}
	res.Mutations = len(muts)
	res.ShardsTouched = len(touched)

	// Whatever the outcome, once a shard may have committed, the cached
	// decompositions of the superseded epoch vector go with their programs.
	defer c.dropStale()
	errs := applyParallel(ctx, c.shards, batches, touched)

	firstErr := error(nil)
	succeeded := make([]int, 0, len(touched))
	failed := make([]int, 0, len(touched))
	for _, i := range touched {
		if errs[i] != nil {
			failed = append(failed, i)
			if firstErr == nil {
				firstErr = errs[i]
			}
		} else {
			succeeded = append(succeeded, i)
		}
	}

	if firstErr == nil {
		for _, co := range cross {
			c.locals[co.a].boundary.Add(co.delta)
			c.locals[co.b].boundary.Add(co.delta)
		}
		for _, o := range newOwners {
			c.locals[o].localVerts.Add(1)
		}
		c.mutBatches.Add(1)
		res.Epochs = c.EpochVector()
		return res, nil
	}

	c.mutFailed.Add(1)
	if len(succeeded) == 0 {
		// Nothing applied anywhere: withdraw the optimistic ownership growth.
		if len(newOwners) > 0 {
			c.own.truncate(base)
		}
		return BatchResult{}, fmt.Errorf("shard: batch rejected: %w", firstErr)
	}
	// Partial failure: repair toward "all adds applied, no edge ops". The
	// repair context survives caller cancellation — leaving shards with
	// diverged vertex sets is worse than finishing a few appends.
	rctx := context.WithoutCancel(ctx)
	var repairErrs []error
	if len(newOwners) > 0 {
		adds := make([]live.Mutation, 0, len(newOwners))
		for _, m := range muts {
			if m.Op == live.OpAddVertex {
				adds = append(adds, m)
			}
		}
		for _, i := range failed {
			if _, err := c.shards[i].ApplyBatch(rctx, adds); err != nil {
				repairErrs = append(repairErrs, fmt.Errorf("re-add vertices on shard %d: %w", i, err))
			}
		}
		for _, o := range newOwners {
			c.locals[o].localVerts.Add(1)
		}
	}
	for _, i := range succeeded {
		comp := invertEdgeOps(batches[i])
		if len(comp) == 0 {
			continue
		}
		if _, err := c.shards[i].ApplyBatch(rctx, comp); err != nil {
			repairErrs = append(repairErrs, fmt.Errorf("compensate shard %d: %w", i, err))
		}
	}
	if len(repairErrs) > 0 {
		return BatchResult{}, fmt.Errorf("shard: batch failed (%w) and repair incomplete: %v", firstErr, repairErrs)
	}
	return BatchResult{}, fmt.Errorf("shard: batch rejected, edge ops rolled back (vertex adds kept): %w", firstErr)
}

// applyParallel fans sub-batches out to their shards, one goroutine each.
func applyParallel(ctx context.Context, shards []Shard, batches [][]live.Mutation, touched []int) []error {
	errs := make([]error, len(shards))
	done := make(chan int, len(touched))
	for _, i := range touched {
		go func(i int) {
			_, errs[i] = shards[i].ApplyBatch(ctx, batches[i])
			done <- i
		}(i)
	}
	for range touched {
		<-done
	}
	return errs
}

// invertEdgeOps builds the compensation batch for one shard: the inverse
// of each applied edge op, in reverse order. Vertex adds are kept.
func invertEdgeOps(batch []live.Mutation) []live.Mutation {
	var out []live.Mutation
	for i := len(batch) - 1; i >= 0; i-- {
		m := batch[i]
		switch m.Op {
		case live.OpInsertEdge:
			m.Op = live.OpDeleteEdge
		case live.OpDeleteEdge:
			m.Op = live.OpInsertEdge
		default:
			continue
		}
		out = append(out, m)
	}
	return out
}
