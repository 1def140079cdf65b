package node

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sbft/internal/core"
	"sbft/internal/transport"
)

// Client is one SBFT client hosted on a shell: one client process.
type Client struct {
	shell *transport.Shell
	core  *core.Client
}

// StartClient builds client id on shell and starts it. retry is the §V-A
// request timeout; readKey is the application's op→key mapping for
// certified reads (nil when the client issues none). The client announces
// its dial-back address to every replica up front: replicas otherwise
// learn it only from the forwarded first request, and any reply sent
// before that is dropped as "unknown peer", costing a full retry timeout
// on the first operation. The client owns shell from here on: Close closes
// it, and so does a failed StartClient.
func StartClient(id int, shell *transport.Shell, cfg core.Config, suite core.CryptoSuite, verify core.ProofVerifier, readKey func(op []byte) (string, error), retry time.Duration) (*Client, error) {
	cc, err := core.NewClient(id, cfg, suite, shell, verify)
	if err != nil {
		shell.Close()
		return nil, err
	}
	cc.RequestTimeout = retry
	cc.SetReadKey(readKey)
	shell.Start(cc)
	shell.AnnounceAll()
	return &Client{shell: shell, core: cc}, nil
}

// Do runs fn on the client's event loop and waits for it. After Close it
// returns without running fn.
func (c *Client) Do(fn func(*core.Client)) {
	c.shell.Do(func() { fn(c.core) })
}

// Close stops the client's shell.
func (c *Client) Close() error { return c.shell.Close() }

// Run submits ops one after the other — the next from the completion of
// the one before, on the event loop — and returns their results in order.
// When ctx ends first it returns the results so far and an error that
// counts them.
func (c *Client) Run(ctx context.Context, ops [][]byte) ([]core.Result, error) {
	return closedLoop(ctx, c, ops, (*core.Client).SetOnResult, (*core.Client).Submit)
}

// RunReads is Run for certified reads (core.Client.SubmitRead): each is
// answered by one replica from its certified snapshot, or falls back to
// ordering.
func (c *Client) RunReads(ctx context.Context, ops [][]byte) ([]core.ReadResult, error) {
	return closedLoop(ctx, c, ops, (*core.Client).SetOnReadResult, (*core.Client).SubmitRead)
}

// closedLoop is the one closed-loop driver: a core.Client allows one
// outstanding request, so the result callback submits the next.
func closedLoop[R any](ctx context.Context, c *Client, ops [][]byte, setCallback func(*core.Client, func(R)), submit func(*core.Client, []byte) error) ([]R, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	// mu guards results and stopped: the event loop appends, this
	// goroutine reads and stops the loop when ctx ends first.
	var mu sync.Mutex
	results := make([]R, 0, len(ops))
	stopped := false
	done := make(chan error, 1) // one send: the last result or the first refused submit
	c.Do(func(cc *core.Client) {
		setCallback(cc, func(res R) {
			mu.Lock()
			if stopped || len(results) == len(ops) {
				mu.Unlock()
				return
			}
			results = append(results, res)
			k := len(results)
			mu.Unlock()
			if k == len(ops) {
				done <- nil
			} else if err := submit(cc, ops[k]); err != nil {
				done <- err
			}
		})
		if err := submit(cc, ops[0]); err != nil {
			done <- err
		}
	})
	select {
	case err := <-done:
		return results, err
	case <-ctx.Done():
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		return results, fmt.Errorf("%d of %d operations completed: %w", len(results), len(ops), ctx.Err())
	}
}
