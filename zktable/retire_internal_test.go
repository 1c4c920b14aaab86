package zktable

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"repro/zukowski"
)

// TestConcurrentCompactReleasesSegments runs append+compact rounds on one
// long-lived handle beside a looping scan and pins the two halves of the
// pinning contract: a compacted-away segment's files are closed as soon
// as the last scan that pinned them finishes — so the number of open
// segments stays bounded however many compactions a handle lives through
// — and never before, so every scan sees exactly one committed
// generation. Column k holds the global row number, which makes "one
// committed generation" checkable from the scan's output alone.
func TestConcurrentCompactReleasesSegments(t *testing.T) {
	const rounds, perAppend = 50, 200
	tb, err := Create[int64](filepath.Join(t.TempDir(), "tbl"), []string{"k", "v"}, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	// Every segment the table ever published, to count the open ones.
	seen := map[*segment[int64]]bool{}
	openSegments := func() (open int) {
		tb.mu.RLock()
		defer tb.mu.RUnlock()
		for _, s := range tb.segs {
			seen[s] = true
		}
		for s := range seen {
			if len(s.files) > 0 {
				open++
			}
		}
		return open
	}
	appendRows := func(base int64) {
		k := make([]int64, perAppend)
		v := make([]int64, perAppend)
		for i := range k {
			k[i] = base + int64(i)
			v[i] = k[i] % 7
		}
		if _, err := tb.Append([][]int64{k, v}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	appendRows(0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			next := int64(0)
			err := tb.Run(context.Background(), zukowski.Query[int64]{Cols: []int{0}}, func(_ int, rows []int64, cols [][]int64) bool {
				for j, row := range rows {
					if row != next || cols[0][j] != next {
						t.Errorf("scan delivered row %d (k=%d), want %d", row, cols[0][j], next)
						return false
					}
					next++
				}
				return true
			})
			if err != nil {
				t.Errorf("scan beside compaction: %v", err)
				return
			}
			if next == 0 || next%perAppend != 0 {
				t.Errorf("scan saw %d rows: not a committed total", next)
				return
			}
		}
	}()

	for r := 1; r <= rounds && !t.Failed(); r++ {
		appendRows(int64(r) * perAppend)
		openSegments() // note the appended segment before it is compacted away
		if _, err := tb.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		// Live: the compacted segment. Pinned: at most what the one
		// in-flight scan started on — the previous compaction's output and
		// this round's append.
		if open := openSegments(); open > 3 {
			t.Fatalf("round %d: %d segments hold open files; retired segments are leaking", r, open)
		}
	}
	close(stop)
	wg.Wait()
	if open := openSegments(); open != 1 {
		t.Fatalf("%d segments hold open files after every scan finished, want only the live one", open)
	}
	if len(seen) < 2*rounds {
		t.Fatalf("only %d segments observed across %d rounds; the test lost track", len(seen), rounds)
	}
}
