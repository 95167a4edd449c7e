package engine

import "context"

// Context-aware execution: the serving layer runs statements with
// per-request deadlines, and a long scan or join must notice
// cancellation mid-flight instead of running to the end of its input.
// Cancellation is polled at checkpoints every cancelStride rows, so the
// uncancelled hot path pays one increment and a modulo per row — and a
// cancelled statement returns the context's error with no partial
// result.

// cancelStride is the row interval between cancellation polls.
const cancelStride = 512

// cancelCheck polls a context's done channel at a fixed row stride. A
// nil *cancelCheck (no context, or a context that can never be
// cancelled) checks nothing.
type cancelCheck struct {
	ctx context.Context
	n   int
}

// newCancelCheck returns a checker for ctx, or nil when ctx can never
// be cancelled (context.Background() and friends).
func newCancelCheck(ctx context.Context) *cancelCheck {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &cancelCheck{ctx: ctx}
}

// step accounts one row and polls the context every cancelStride rows.
func (c *cancelCheck) step() error {
	if c == nil {
		return nil
	}
	c.n++
	if c.n%cancelStride != 0 {
		return nil
	}
	return c.now()
}

// now polls the context immediately.
func (c *cancelCheck) now() error {
	if c == nil {
		return nil
	}
	select {
	case <-c.ctx.Done():
		return c.ctx.Err()
	default:
		return nil
	}
}
