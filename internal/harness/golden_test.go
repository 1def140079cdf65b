package harness

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sbft/internal/cluster"
)

// goldenRuns pins the default path bit for bit: seeds 1–20 of five chaos
// generators, each run reduced to a fingerprint line and the twenty lines
// of a generator hashed into one constant. The constants were captured at
// the commit before the retired-arms deletion pass (two separate
// processes agreeing) and a zero-behaviour-change refactor must leave
// them alone; a PR that moves one on purpose says so in CHANGES.md. On a
// mismatch the test logs every seed's line, so diffing the log of this
// commit against its parent's names the first seed that moved.
//
// Re-captured with the commit-clocked proposal rule (DESIGN.md "Proposal
// rule" quotes the lines that moved): byzantine and reads, the generators
// with three or more clients, by the rule itself; recovery by the
// execute-ack fix that came with it — with a checkpoint every 4 blocks,
// 6% of the operations of a failure-free run of its configuration sat out
// a retry for a lost ack. default and evm have two clients, whom the rule
// never holds, and no checkpoint: bit-identical.
//
// Held through the replica.go carve (PR 19, every commit but its last), then
// re-captured once more, all five, with that PR's one behaviour change: an
// E-collector's own π(d) certifies its slot, so the execution fallback no
// longer answers clients nobody is failing. A run loses the redundant
// ReplyMsgs (SBFT lines only; DESIGN.md "Stages" quotes the lines).
var goldenRuns = []struct {
	name string
	gen  ScenarioGen
	want string
}{
	{"default", DefaultGen, "134abe0bb5271bb88b8f753f6a8ebd4b835be5726d9730fcf81cad037fdb34e3"},
	{"byzantine", ByzantineGen, "178fd28145ef9a5fa3e5c7edbf69ec88124d6ac70ae9aa340ed122a238463d9c"},
	{"recovery", RecoveryGen, "65c48d860429e93a26ba8ef0b0ec3d519b351c6fc2b272ec30bad622291919ea"},
	{"reads", ReadGen, "95f1fdd823b14672d9e34ac60bd39bceb293d733c465dce40a06592fc4768a1b"},
	{"evm", EVMGen, "c99a83e4d62d888884a1f5f5a061a3391e760e98830836c8fe7b074ab04f53c4"},
}

// runFingerprint runs one scenario and renders what the run did: client
// operations completed, simulated time consumed (to the last completion
// and in total), messages sent, sequences audited, and every replica's
// last-executed sequence, view and application state digest.
func runFingerprint(s Scenario) (string, error) {
	var replicas strings.Builder
	var msgs uint64
	var now int64
	check := s.Check
	s.Check = func(cl *cluster.Cluster) string {
		msgs, now = cl.Net.MsgsSent, int64(cl.Sched.Now())
		for id := 1; id <= cl.N; id++ {
			var last, view uint64
			switch {
			case cl.Replicas != nil && cl.Replicas[id] != nil:
				last, view = cl.Replicas[id].LastExecuted(), cl.Replicas[id].View()
			case cl.PBFTReplicas != nil && cl.PBFTReplicas[id] != nil:
				last, view = cl.PBFTReplicas[id].LastExecuted(), cl.PBFTReplicas[id].View()
			}
			fmt.Fprintf(&replicas, " r%d=%d/%d/%x", id, last, view, cl.Apps[id].Digest())
		}
		if check != nil {
			return check(cl)
		}
		return ""
	}
	rep, err := Run(s)
	if err != nil {
		return "", err
	}
	if rep.Failed() {
		return "", errors.New(rep.Summary())
	}
	return fmt.Sprintf("%s ops=%d/%d dur=%d now=%d msgs=%d seqs=%d%s",
		s.Name, rep.Completed, rep.Expected, int64(rep.Result.Duration), now, msgs,
		rep.Audit.SeqsAudited, replicas.String()), nil
}

func TestGoldenRunFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("100 chaos runs skipped in -short mode")
	}
	for _, g := range goldenRuns {
		g := g
		t.Run(g.name, func(t *testing.T) {
			h := sha256.New()
			var lines []string
			for _, seed := range SeedRange(1, 20) {
				fp, err := runFingerprint(g.gen(seed))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				line := fmt.Sprintf("seed %d: %s", seed, fp)
				lines = append(lines, line)
				fmt.Fprintln(h, line)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != g.want {
				t.Errorf("fingerprint %s, want %s\n%s", got, g.want, strings.Join(lines, "\n"))
			}
		})
	}
}
