package harness

import (
	"fmt"
	"math/rand"
	"time"

	"sbft/internal/cluster"
	"sbft/internal/core"
)

// This file is the collusion-and-degradation scenario generator (ROADMAP
// item 4): every seed runs the paper-scale configuration f=2, c=1 (n = 9)
// under the scaled crypto cost model and arms the two adversary classes
// the independent-corrupter generator cannot express:
//
//   - a colluding key-share set of exactly f replicas — always including
//     replica 1, the view-0 primary, the strongest dealing position —
//     jointly signing partial quorums, checkpoint shares or snapshot
//     metas for one fault window;
//   - an adaptive role-targeting attack window AFTER the colluders are
//     restored (the collusion set holds f sticky slots; the attacker's
//     anonymous at-once slots need the full f+c budget to themselves).
//
// Both windows close before the settle phase so the audit measures a
// cluster that was attacked, not one still under attack. The generator
// validates its own schedule with ValidateBudget and panics on a
// violation: a schedule over budget is a generator bug, not a scenario.

// colludeKinds cycles the collusion flavor with the seed.
var colludeKinds = [...]cluster.FaultKind{
	cluster.FaultByzColludeEquivocate,
	cluster.FaultByzColludeCkpt,
	cluster.FaultByzColludeSnapshot,
}

// attackKinds cycles the adaptive attack flavor with the seed.
var attackKinds = [...]cluster.FaultKind{
	cluster.FaultAttackCollectors,
	cluster.FaultAttackFastPath,
	cluster.FaultAttackPartition,
}

// ColludingGen generates one paper-scale colluding-adversary scenario per
// seed. The colluding member set is {1, x} with x drawn per seed: exactly
// the f = 2 sticky budget, counted as one adversary by ValidateBudget.
func ColludingGen(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed*0x5851f42d4c957f2d + 0x165667b19e3779f9))

	f, c := 2, 1 // n = 9, the §IX failure-experiment scale
	n := 3*f + 2*c + 1
	cm := cluster.DefaultCosts().ScaledCrypto(3)
	opts := cluster.Options{
		Protocol: cluster.ProtoSBFT,
		F:        f, C: c,
		Clients:       3,
		Seed:          seed,
		ClientTimeout: 2 * time.Second,
		Costs:         &cm,
		CryptoPool:    1, // certificates are combined and checked on the modeled pool worker
		Tune: func(cc *core.Config) {
			// A short fast timer keeps the 8× fast-path straggle well under
			// the view-change timeout: the attack forces the linear
			// fallback, not a view-change storm.
			cc.FastPathTimeout = 50 * time.Millisecond
			cc.ViewChangeTimeout = time.Second
		},
	}

	colludeKind := colludeKinds[int(uint64(seed)%uint64(len(colludeKinds)))]
	attackKind := attackKinds[int(uint64(seed/3)%uint64(len(attackKinds)))]
	members := []int{1, 2 + rng.Intn(n-1)} // {1, x}, x ∈ [2, n]

	colludeStart := 200*time.Millisecond + time.Duration(rng.Int63n(int64(300*time.Millisecond)))
	colludeEnd := colludeStart + 500*time.Millisecond + time.Duration(rng.Int63n(int64(time.Second)))
	attackStart := colludeEnd + 200*time.Millisecond
	attackEnd := attackStart + 500*time.Millisecond + time.Duration(rng.Int63n(int64(time.Second)))

	sched := cluster.Schedule{
		{At: colludeStart, Kind: colludeKind, Node: members[0], Peers: members[1:]},
	}
	for _, m := range members {
		sched = append(sched, cluster.Fault{At: colludeEnd, Kind: cluster.FaultByzRestore, Node: m})
	}
	// The adaptive attacker retargets at a cadence the recovery timeouts
	// can absorb: faster churn than gap repair and view changes can heal
	// is an outage, not degradation.
	sched = append(sched,
		cluster.Fault{At: attackStart, Kind: attackKind, Extra: 750 * time.Millisecond},
		cluster.Fault{At: attackEnd, Kind: cluster.FaultAttackStop},
	)

	if err := ValidateBudget(sched, n, f, c); err != nil {
		panic(fmt.Sprintf("harness: ColludingGen(%d) violated its budget: %v\nschedule:\n%v", seed, err, sched))
	}

	return Scenario{
		Name:               fmt.Sprintf("colluding-%s-%s", colludeKind, attackKind),
		Opts:               opts,
		Schedule:           sched,
		OpsPerClient:       4,
		Horizon:            30 * time.Minute, // virtual time; generous on purpose
		Settle:             30 * time.Second,
		ExpectAllCommitted: true,
	}
}
