package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

var sinkGather []int64

// BenchmarkGatherCrossover is the measurement behind denseGatherMin: one
// 4096-value block of each patched shape of the benchmark table (a, b, d),
// every 128-value group holding the same number of selected rows at random
// positions, materialized once with every group forced through the sparse
// walk and once with every group decoded whole. Sixteen selections take
// turns, so the bit walk's branches see fresh positions the way a scan's
// do and not one pattern the predictor has learned. It reports ns per
// group; the threshold belongs where the two columns cross. Run as
//
//	go test ./internal/core -run '^$' -bench GatherCrossover -benchtime 20000x -count 3
//
// and paste the table beside the constant when either path changes.
func BenchmarkGatherCrossover(b *testing.B) {
	shapes := benchShapes(1, 4096)
	rng := rand.New(rand.NewSource(2))
	for _, name := range []string{"a", "b", "d"} {
		vals := shapes[name]
		blk := core.Choose(core.Sample(vals, core.DefaultSampleSize)).Compress(vals)
		for _, live := range []int{2, 4, 8, 16, 24, 32, 40, 48, 64, 128} {
			var svs [16]core.SelectionVector
			for s := range svs {
				svs[s].Reset(blk.N)
				for g := 0; g < blk.NumGroups(); g++ {
					for _, i := range rng.Perm(core.GroupSize)[:live] {
						svs[s].Set(g*core.GroupSize + i)
					}
				}
			}
			for _, regime := range []struct {
				name     string
				denseMin int
			}{{"sparse", core.ForceSparse}, {"dense", core.ForceDense}} {
				b.Run(fmt.Sprintf("%s/%s/live=%d/%s", name, blk.Scheme, live, regime.name), func(b *testing.B) {
					var d core.Decoder[int64]
					out := make([]int64, 0, blk.N)
					for i := 0; b.Loop(); i++ {
						sinkGather = d.GatherSelected(blk, &svs[i%len(svs)], out, regime.denseMin)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(blk.NumGroups()), "ns/group")
				})
			}
		}
	}
}
