// Command sbft-client drives a TCP SBFT deployment with key-value
// operations and reports latency/throughput. The default mode is a
// closed loop (-n sequential operations); -openloop <rate> switches to
// real-time Poisson arrivals multiplexed over -slots TCP clients,
// sharing internal/load's shed accounting so live runs can find the
// saturation knee. See cmd/sbft-node for a complete local deployment
// walkthrough.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/node"
	"sbft/internal/transport"
)

// requestTimeout is the §V-A retry timeout of every client this binary
// starts.
const requestTimeout = 4 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "sbft-client: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		peerFile = flag.String("peers", "peers.txt", "peers file")
		f        = flag.Int("f", 1, "fault threshold f")
		c        = flag.Int("c", 0, "redundant servers c")
		seed     = flag.String("seed", "sbft-demo", "shared key seed (must match nodes)")
		nFlag    = flag.Int("n", 100, "operations to send")
		rFlag    = flag.Int("reads", 0, "certified single-replica reads to issue after the writes")
		listen   = flag.String("listen", "127.0.0.1:0", "client listen address")
		openloop = flag.Float64("openloop", 0, "open-loop mode: Poisson arrivals at this rate (req/s) over a slot pool instead of the closed loop")
		slots    = flag.Int("slots", 8, "open-loop client slot pool size")
		duration = flag.Duration("duration", 10*time.Second, "open-loop measurement window")
		warmup   = flag.Duration("warmup", time.Second, "open-loop warmup before measurement")
	)
	flag.Parse()
	n, reads := *nFlag, *rFlag

	cfg := core.DefaultConfig(*f, *c)
	peers, err := node.LoadPeers(*peerFile, cfg.N())
	if err != nil {
		return err
	}
	suite, _, err := core.InsecureSuite(cfg, *seed)
	if err != nil {
		return err
	}
	if *openloop > 0 {
		return runOpenLoop(peers, cfg, suite, *openloop, *slots, *warmup, *duration, 5*time.Second, *listen)
	}
	client, err := startClient(core.ClientBase, *listen, peers, cfg, suite)
	if err != nil {
		return err
	}
	defer client.Close()

	writes := make([][]byte, n)
	for i := range writes {
		writes[i] = kvstore.Put(fmt.Sprintf("bench/%d", i), []byte("value"))
	}
	start := time.Now()
	results, err := client.Run(context.Background(), writes)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	latencies := make([]time.Duration, len(results))
	fastAcks := 0
	for i, res := range results {
		latencies[i] = res.Latency
		if res.FastAck {
			fastAcks++
		}
	}
	fmt.Printf("completed %d ops in %v: %.1f op/s\n", n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	if n > 0 {
		fmt.Printf("latency: %s  single-message acks: %d/%d\n", percentiles(latencies), fastAcks, n)
	}
	if reads == 0 || n == 0 {
		return nil
	}

	// Certified reads over the keys the write phase populated: how many
	// completed on the consensus-free path (verified value + Merkle proof
	// from one replica) versus falling back to ordering.
	readOps := make([][]byte, reads)
	for i := range readOps {
		readOps[i] = kvstore.GetUnique(fmt.Sprintf("bench/%d", i%n), uint64(i+1))
	}
	start = time.Now()
	readResults, err := client.RunReads(context.Background(), readOps)
	if err != nil {
		return err
	}
	elapsed = time.Since(start)
	latencies = make([]time.Duration, len(readResults))
	failovers, ordered := 0, 0
	for i, res := range readResults {
		latencies[i] = res.Latency
		failovers += res.Failovers
		if res.Ordered {
			ordered++
		}
	}
	fmt.Printf("completed %d certified reads in %v: %.1f op/s (%d ordered fallbacks, %d failovers)\n",
		reads, elapsed.Round(time.Millisecond), float64(reads)/elapsed.Seconds(), ordered, failovers)
	fmt.Printf("read latency: %s\n", percentiles(latencies))
	return nil
}

// startClient is one client process of this binary: its own shell on
// listen, the key-value verifier and read mapping.
func startClient(id int, listen string, peers map[int]string, cfg core.Config, suite core.CryptoSuite) (*node.Client, error) {
	shell, err := transport.NewShell(id, listen, peers)
	if err != nil {
		return nil, err
	}
	return node.StartClient(id, shell, cfg, suite, apps.VerifyKV, kvstore.ReadKey, requestTimeout)
}

// percentiles renders the mean, median and 95th percentile of a non-empty
// set of latencies, sorting it.
func percentiles(latencies []time.Duration) string {
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	count := len(latencies)
	return fmt.Sprintf("mean=%v p50=%v p95=%v",
		(sum / time.Duration(count)).Round(time.Microsecond),
		latencies[count/2].Round(time.Microsecond),
		latencies[count*95/100].Round(time.Microsecond))
}
