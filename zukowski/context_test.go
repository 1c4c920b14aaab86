package zukowski_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/zukowski"
)

// buildCtxSet builds a small multi-block two-column set for the context
// tests.
func buildCtxSet(t *testing.T) (*zukowski.ColumnSet[int64], zukowski.Query[int64]) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	n := 40_000
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = int64(i) // sorted: zone maps prune
		b[i] = rng.Int63n(1000)
	}
	ca, err := zukowski.OpenColumn[int64](buildColumn(t, zukowski.PFORDelta[int64]{}, 1024, a))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := zukowski.OpenColumn[int64](buildColumn(t, zukowski.PFOR[int64]{}, 1024, b))
	if err != nil {
		t.Fatal(err)
	}
	set, err := zukowski.NewColumnSet(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	preds := []zukowski.Pred[int64]{{Col: 0, Lo: 0, Hi: int64(n)}, {Col: 1, Lo: 0, Hi: 999}}
	return set, zukowski.Query[int64]{Preds: preds}
}

// TestRunContextCancelled: a pre-cancelled context stops the scan before
// any delivery, returning context.Canceled.
func TestRunContextCancelled(t *testing.T) {
	set, q := buildCtxSet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := set.Run(ctx, q, func(int, []int64, [][]int64) bool { calls++; return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("fn called %d times under a dead context", calls)
	}
	if _, err := set.RunAggregate(ctx, q, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate err = %v, want context.Canceled", err)
	}
	q.Workers = 4
	err = set.Run(ctx, q, func(int, []int64, [][]int64) bool { return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want context.Canceled", err)
	}
}

// TestRunContextMidScan: cancelling from inside fn stops the
// scan at the next block boundary — fn sees no delivery after the cancel
// — and the scan returns context.Canceled, distinguishing budget kills
// from fn's own voluntary early stop (which returns nil).
func TestRunContextMidScan(t *testing.T) {
	set, q := buildCtxSet(t)
	ctx, cancel := context.WithCancel(context.Background())
	deliveries, after := 0, 0
	err := set.Run(ctx, q, func(int, []int64, [][]int64) bool {
		if ctx.Err() != nil {
			after++
		}
		deliveries++
		if deliveries == 2 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if deliveries != 2 || after != 0 {
		t.Fatalf("deliveries = %d (want 2), deliveries after cancel = %d (want 0)", deliveries, after)
	}
}

// TestRunContextDeadline: an already-expired deadline surfaces as
// context.DeadlineExceeded from Run and RunAggregate.
func TestRunContextDeadline(t *testing.T) {
	set, q := buildCtxSet(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := set.Run(ctx, q, func(int, []int64, [][]int64) bool { return true }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if _, err := set.RunAggregate(ctx, q, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("aggregate err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunWorkersContextMidScan: cancelling mid-flight stops a parallel
// scan with context.Canceled and no deliveries after the pool drains.
func TestRunWorkersContextMidScan(t *testing.T) {
	set, q := buildCtxSet(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var deliveries int
	q.Workers = 4
	err := set.Run(ctx, q, func(int, []int64, [][]int64) bool {
		deliveries++
		if deliveries == 2 {
			cancel()
		}
		return true
	})
	// The cancel can race the last block claims: either every remaining
	// block had already been claimed (nil) or the context stopped the scan.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
	if deliveries < 2 {
		t.Fatalf("deliveries = %d before cancel could fire", deliveries)
	}
}

// TestFrameDecoderRoundTrip: FrameDecoder decodes the standalone frames
// every registered codec emits, identically to the codec's own Decode.
func TestFrameDecoderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	src := make([]int64, 5000)
	for i := range src {
		src[i] = rng.Int63n(1 << 20)
	}
	var dec zukowski.FrameDecoder[int64]
	for _, name := range zukowski.Codecs() {
		codec, err := zukowski.Lookup[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := codec.Encode(nil, src)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := dec.Decode(nil, frame)
		if err != nil {
			t.Fatalf("%s: FrameDecoder: %v", name, err)
		}
		if len(got) != len(src) {
			t.Fatalf("%s: decoded %d values, want %d", name, len(got), len(src))
		}
		for i := range src {
			if got[i] != src[i] {
				t.Fatalf("%s: value %d: got %d want %d", name, i, got[i], src[i])
			}
		}
	}
	// Corrupt and unknown frames fail typed, never panic.
	if _, err := zukowski.DecodeFrame[int64](nil, []byte{0x7f, 1, 2, 3}); !errors.Is(err, zukowski.ErrCorruptSegment) {
		t.Fatalf("unknown frame: err = %v, want ErrCorruptSegment", err)
	}
	if _, err := zukowski.DecodeFrame[int64](nil, nil); !errors.Is(err, zukowski.ErrCorruptSegment) {
		t.Fatalf("empty frame: err = %v, want ErrCorruptSegment", err)
	}
}
