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
// Re-captured with the commit-clocked proposal rule: byzantine and reads,
// the generators with three or more clients, by the rule itself; recovery
// by the execute-ack fix that came with it — with a checkpoint every 4
// blocks, 6% of the operations of a failure-free run of its configuration
// sat out a retry for a lost ack. default and evm have two clients, whom the rule
// never holds, and no checkpoint: bit-identical.
//
// Held through the replica.go carve (PR 19, every commit but its last), then
// re-captured once more, all five, with that PR's one behaviour change: an
// E-collector's own π(d) certifies its slot, so the execution fallback no
// longer answers clients nobody is failing. A run loses the redundant
// ReplyMsgs (SBFT lines only).
//
// Held through the wire codec (PR 22: the simulator never serialises), then
// default, byzantine, recovery and evm re-captured with that PR's proof
// codec: an execute-ack proof is 146 bytes where gob's was 430,
// ExecuteAckMsg.WireSize() counted it and the simulator charged bandwidth
// per byte, so the SBFT lines (the variant with execute-acks) end a
// microsecond earlier. Only dur and now moved, on 35 lines; one of them,
// recovery seed 6, also sends 189 fewer messages (its transfer races
// differently); every ops, seqs, view and digest field is unchanged and
// reads did not move.
//
// recovery and reads re-captured with state transfer against the certified
// leaf list: a meta carries 32 bytes per chunk, chunks carry no proof, and
// a fetcher reuses every chunk it holds under an equal leaf. Only runs with
// a state transfer moved: 14 recovery lines and reads seed 14.
//
// All five re-captured when the simulator began charging each delivery the
// length of its wire.AppendFrame frame instead of a hand-set WireSize()
// estimate (a PBFT prepare is 41 bytes, not 120). Every line moved: dur on
// all but the reads lines (−5.3 to +41.9 µs), now on 45 lines, and reads
// seed 12 runs 262 operations where it ran 253 (msgs 2517 → 2527, seqs 83
// → 84). Every line still completes all its operations with replicas
// agreeing on their digests (DESIGN.md "One size per message").
//
// All five re-captured when replicas began holding τ_i(h) back once the
// fast path carries their commits (DESIGN.md "Lazy τ"): a σ-only
// sign-share's frame is 32 bytes shorter and charged one Sign, a τ-only
// one (the fast path off) one Sign instead of two. Every SBFT-engine line
// moved and no PBFT line did: dur by −1.1 to +0.3 ms on the default,
// byzantine and evm lines (default and evm seed 19, whose collector asked
// for τ, +52 ms and 8 more messages), every recovery line (dur within
// ±1.1 s, seed 13 ending in view 0 where it ended in view 1) and every
// reads line, whose operation counts are time-bounded (80–384). Every
// line still completes all its operations with replicas agreeing.
//
// recovery re-captured when the state fetcher's chunk requests began to
// expire at the constant 500 ms deadline, with servers picked by requests
// in flight, then strikes, then id (no latency model, no demotion of a
// server answering with an older snapshot). 19 of 20 lines moved, seed 11
// did not: dur by −1.96 to +2.19 s (mean 12.15 → 12.31 s), msgs by −64 to
// +103. Every line still runs 96/96 operations in view 0 with replicas
// agreeing; seeds 2, 9, 14, 17 and 18 end at the other of the two final
// digests the generator reaches.
//
// recovery re-captured when a server stopped answering a chunk request for
// a snapshot newer than its own with its older metadata. 5 lines moved
// (seeds 1, 8, 10, 16, 18): dur by −3.42 to +0.50 s, msgs by −122 to +27;
// seed 18 ends at the other final digest. Every line still runs 96/96
// operations in view 0 with replicas agreeing.
//
// All five re-captured with two behaviour changes. A backup sends the
// primary its sign-share only while it carries τ, and the primary asks
// for the shares when its turn comes. A replica whose execution stops
// probes a peer, seven times with back-off, and a peer answers with its
// stable checkpoint's certificate for a decision it collected. Every PBFT
// line held; every SBFT-engine line moved:
//   - default and evm: 15 lines each. dur by −100 to +5 ms, msgs by −2
//     to +28. Seed 11 ends at another digest, and seed 19's replica 3
//     now catches up to 10 where it ended at 8.
//   - byzantine: 15 lines. dur by −347 to +268 ms, msgs by −2 to +41.
//     Seeds 9 and 11 end at other digests, seed 14 runs 11 sequences,
//     and seed 18's replica 2 catches up to 10.
//   - recovery: all 20. Mean dur 12.14 → 11.50 s, msgs by −315 to +65.
//     Six seeds end at the other final digest, seed 16 in view 1, and
//     seed 11's victim catches up alone in a view change (view 34).
//   - reads: all 20, whose operations are time-bounded (89–374 a line,
//     3998 → 4047 in all).
//
// Every line still completes all its operations with replicas agreeing.
//
// All five re-captured when the application digest became a hash chain
// over the executed blocks (d_s = H(tag ‖ s ‖ d_{s−1} ‖ execution-tree
// root), from a genesis digest of the state root). With the 64-hex digests
// stripped, all 100 lines are byte-identical to the parent's: only the
// digest field moved.
var goldenRuns = []struct {
	name string
	gen  ScenarioGen
	want string
}{
	{"default", DefaultGen, "1221845ce6152077d41c46276ff1496444eb2addbee9be00c26fd4612b703462"},
	{"byzantine", ByzantineGen, "90e53adc95d7369e8efd0ae8a4356b46627f493b094f57b185a7fc386582120a"},
	{"recovery", RecoveryGen, "5e82ab9e9cba0bc62dcac47742de6bb08df58dfe1f2a6b76e297fed464970ad7"},
	{"reads", ReadGen, "10fd13240a9897b24f9bbf8ee5c58a05b7f3834f501e231bb6fb58859438a68c"},
	{"evm", EVMGen, "2bcf1db99b4e4a319f44d067c58133ff7790974767e4cfaead20820744ea4a83"},
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
