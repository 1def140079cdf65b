package pbft

import (
	"bytes"
	"fmt"

	"sbft/internal/core"
)

// NewRecoveredReplica rebuilds a PBFT replica from its durable block log
// (the baseline's counterpart of the replay in core.NewReplica): every
// stored block is replayed through the application (which must be at genesis),
// the recomputed results are verified against the stored ones, and the
// reply cache and execution frontier are primed. The replica then rejoins
// at its durable frontier; blocks committed by the rest of the cluster
// while it was down arrive through gap repair (f+1 matching
// retransmissions, see onCommitInfo).
func NewRecoveredReplica(id int, cfg Config, app core.Application, env core.Env, store core.RecoverableStore) (*Replica, error) {
	r, err := NewReplica(id, cfg, app, env, store)
	if err != nil {
		return nil, err
	}
	frontier := store.NextSeq() - 1
	for seq := uint64(1); seq <= frontier; seq++ {
		payload, err := store.Get(seq)
		if err != nil {
			return nil, fmt.Errorf("pbft: recovering block %d: %w", seq, err)
		}
		rec, err := core.DecodeBlockPayload(payload)
		if err != nil {
			return nil, fmt.Errorf("pbft: recovering block %d: %w", seq, err)
		}
		ops := make([][]byte, len(rec.Reqs))
		for i, req := range rec.Reqs {
			ops[i] = req.Op
		}
		results := app.ExecuteBlock(seq, ops)
		if len(results) != len(rec.Results) {
			return nil, fmt.Errorf("pbft: block %d replay produced %d results, stored %d", seq, len(results), len(rec.Results))
		}
		for i := range results {
			if !bytes.Equal(results[i], rec.Results[i]) {
				return nil, fmt.Errorf("pbft: block %d result %d diverged on replay (corrupt store or non-deterministic app)", seq, i)
			}
		}
		for i, req := range rec.Reqs {
			r.replyCache[req.Client] = replyEntry{timestamp: req.Timestamp, seq: seq, l: i, val: results[i]}
			if ts := r.seen[req.Client]; ts < req.Timestamp {
				r.seen[req.Client] = req.Timestamp
			}
		}
		r.lastExecuted = seq
		r.Metrics.Executions++
	}
	// Resume proposing above the durable frontier if this replica comes
	// back as a primary. lastStable stays 0: stability is a quorum
	// property re-learned from checkpoint gossip.
	if r.nextSeq <= frontier {
		r.nextSeq = frontier + 1
	}
	return r, nil
}
