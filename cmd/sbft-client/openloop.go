package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/load"
	"sbft/internal/node"
)

// runOpenLoop drives the deployment with real-time Poisson arrivals
// multiplexed over a pool of TCP client slots — the live counterpart of
// internal/load.Run, sharing its Book slot/shed/latency ledger. A live
// run at increasing -openloop rates finds the deployment's saturation
// knee: the rate where Dropped turns nonzero is where the system stopped
// keeping up with offered load.
func runOpenLoop(peers map[int]string, cfg core.Config, suite core.CryptoSuite, rate float64, slots int, warmup, window, drain time.Duration, listen string) error {
	clients := make([]*node.Client, slots)
	var mu sync.Mutex
	book := load.NewBook(slots)
	for s := 0; s < slots; s++ {
		s := s
		client, err := startClient(core.ClientBase+s, listen, peers, cfg, suite)
		if err != nil {
			return err
		}
		defer client.Close()
		client.Do(func(cc *core.Client) {
			cc.SetOnResult(func(res core.Result) {
				mu.Lock()
				book.Complete(s, res.Latency, res.FastAck, res.Retried)
				mu.Unlock()
			})
		})
		clients[s] = client
	}

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	start := time.Now()
	measureFrom := start.Add(warmup)
	measureTo := measureFrom.Add(window)
	fmt.Printf("open loop: %.0f req/s over %d slots (%v warmup, %v window)\n", rate, slots, warmup, window)

	for {
		gap := time.Duration(rng.ExpFloat64() * float64(time.Second) / rate)
		time.Sleep(gap)
		now := time.Now()
		if now.After(measureTo) {
			break
		}
		mu.Lock()
		slot, i, ok := book.Arrive(now.After(measureFrom))
		mu.Unlock()
		if !ok {
			continue // shed: every slot busy
		}
		op := kvstore.Put(fmt.Sprintf("ol/c%d/k%d", slot, i), []byte("v"))
		clients[slot].Do(func(cc *core.Client) {
			mu.Lock()
			defer mu.Unlock()
			if err := cc.Submit(op); err != nil {
				book.Requeue(slot)
			} else {
				book.Submitted()
			}
		})
	}

	// Drain: let measured in-flight requests finish.
	drainEnd := time.Now().Add(drain)
	for time.Now().Before(drainEnd) {
		mu.Lock()
		inflight := book.InFlight()
		mu.Unlock()
		if inflight == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	mu.Lock()
	res := book.Finalize(window)
	mu.Unlock()
	fmt.Printf("offered %d, submitted %d, shed %d, completed %d (%d total): %.1f op/s\n",
		res.Offered, res.Submitted, res.Dropped, res.Completed, res.CompletedAll, res.Throughput)
	if res.Completed > 0 {
		fmt.Printf("latency: mean=%v p50=%v p95=%v p99=%v  single-message acks: %d/%d, retries %d\n",
			res.MeanLatency.Round(time.Microsecond), res.P50Latency.Round(time.Microsecond),
			res.P95Latency.Round(time.Microsecond), res.P99Latency.Round(time.Microsecond),
			res.FastAcks, res.Completed, res.Retries)
	}
	if res.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "sbft-client: %d arrivals shed — offered load exceeds the deployment's capacity at %d slots\n",
			res.Dropped, slots)
	}
	return nil
}
