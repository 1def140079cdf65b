package node

import (
	"context"
	"fmt"
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

// Do runs fn under the client's node lock, on the caller. After Close it
// returns without running fn.
func (c *Client) Do(fn func(*core.Client)) {
	c.shell.Do(func() { fn(c.core) })
}

// Close stops the client's shell.
func (c *Client) Close() error { return c.shell.Close() }

// Run submits ops one after the other, each when the one before has
// completed, and returns their results in order. When ctx ends first it
// returns the results so far and an error that counts them.
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
// outstanding request, so each operation is submitted when the result of
// the one before has come back from the node.
func closedLoop[R any](ctx context.Context, c *Client, ops [][]byte, setCallback func(*core.Client, func(R)), submit func(*core.Client, []byte) error) ([]R, error) {
	// One slot: with one request outstanding the delivering callback never
	// blocks here, not even on the result that arrives after ctx has ended.
	got := make(chan R, 1)
	c.Do(func(cc *core.Client) { setCallback(cc, func(res R) { got <- res }) })
	results := make([]R, 0, len(ops))
	for _, op := range ops {
		var err error
		c.Do(func(cc *core.Client) { err = submit(cc, op) })
		if err != nil {
			return results, err
		}
		select {
		case res := <-got:
			results = append(results, res)
		case <-ctx.Done():
			return results, fmt.Errorf("%d of %d operations completed: %w", len(results), len(ops), ctx.Err())
		}
	}
	return results, nil
}
