package transport_test

import (
	"testing"
	"time"

	"sbft/internal/core"
	"sbft/internal/transport"
)

// TestClientDialBackWithoutPeersEntry pins the cmd-level deployment fix:
// replicas whose peers files do not list the client must still be able to
// reply, via the listen address announced in the hello handshake. Before
// the fix this shape committed its first block and then hung forever —
// every reply was dropped as "unknown peer".
func TestClientDialBackWithoutPeersEntry(t *testing.T) {
	d := boot(t, false)
	if _, listed := d.peers[core.ClientBase]; listed {
		t.Fatal("the replicas' peers book lists the client")
	}
	d.runClient(t, core.ClientBase, puts("k", 8), 60*time.Second)
}

// TestTCPClusterSurvivesShellFaults runs a small fault scenario over real
// TCP: one replica's outbound codec drops 30% of messages and delays the
// rest by up to 15ms for a window, then heals. The protocol's retry,
// re-transmit and collector layers must still commit every operation.
func TestTCPClusterSurvivesShellFaults(t *testing.T) {
	d := boot(t, false)
	// Replica 2 again, at genesis as before, on a shell this test holds.
	if err := d.replicas[2].Close(); err != nil {
		t.Fatal(err)
	}
	faulty := listen(t, 2, d.peers[2], d.peers)
	faulty.SetFaults(transport.ShellFaults{Drop: 0.3, MaxDelay: 15 * time.Millisecond, Seed: 7})
	d.restart(t, 2, faulty)
	healer := time.AfterFunc(3*time.Second, func() {
		faulty.SetFaults(transport.ShellFaults{})
	})
	defer healer.Stop()
	d.runClient(t, core.ClientBase, puts("k", 10), 90*time.Second)
}
