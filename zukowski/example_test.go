package zukowski_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/zukowski"
)

// ExampleFrameDecoder decodes standalone block frames — the shape in
// which a scan service ships compressed blocks over the wire, stripped
// of their container.
func ExampleFrameDecoder() {
	// Write a column of 8 values in blocks of 4.
	var buf bytes.Buffer
	cw, err := zukowski.NewColumnWriter[int64](&buf, nil, 4)
	if err != nil {
		log.Fatal(err)
	}
	if err := cw.Write([]int64{10, 11, 12, 13, 1000, 1001, 1002, 1003}); err != nil {
		log.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		log.Fatal(err)
	}

	// Pull each block's raw frame out of the container, as a server
	// would, and decode them standalone, as a client would. One decoder
	// reuses its scratch across frames.
	cr, err := zukowski.OpenColumn[int64](buf.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	var dec zukowski.FrameDecoder[int64]
	for b := 0; b < cr.NumBlocks(); b++ {
		frame, err := cr.FrameBytes(b)
		if err != nil {
			log.Fatal(err)
		}
		vals, err := dec.Decode(nil, frame)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("block %d: %v\n", b, vals)
	}
	// Output:
	// block 0: [10 11 12 13]
	// block 1: [1000 1001 1002 1003]
}

// ExampleColumnSet_Run runs a conjunctive predicate over two columns:
// only rows passing every range predicate are materialized, and blocks
// the zone maps rule out are never touched.
func ExampleColumnSet_Run() {
	encode := func(vals []int64) []byte {
		var buf bytes.Buffer
		cw, err := zukowski.NewColumnWriter[int64](&buf, nil, 4)
		if err != nil {
			log.Fatal(err)
		}
		if err := cw.Write(vals); err != nil {
			log.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			log.Fatal(err)
		}
		return buf.Bytes()
	}
	// Two columns with the same geometry: a sorted key and a value.
	keys := encode([]int64{1, 2, 3, 4, 5, 6, 7, 8})
	vals := encode([]int64{50, 40, 30, 20, 25, 35, 45, 55})

	keyCol, err := zukowski.OpenColumn[int64](keys)
	if err != nil {
		log.Fatal(err)
	}
	valCol, err := zukowski.OpenColumn[int64](vals)
	if err != nil {
		log.Fatal(err)
	}
	cs, err := zukowski.NewColumnSet(keyCol, valCol)
	if err != nil {
		log.Fatal(err)
	}

	// key in [3, 7] AND value in [25, 45].
	q := zukowski.Query[int64]{Preds: []zukowski.Pred[int64]{
		{Col: 0, Lo: 3, Hi: 7},
		{Col: 1, Lo: 25, Hi: 45},
	}}
	err = cs.Run(context.Background(), q, func(_ int, rows []int64, cols [][]int64) bool {
		for i, row := range rows {
			fmt.Printf("row %d: key=%d value=%d\n", row, cols[0][i], cols[1][i])
		}
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output:
	// row 2: key=3 value=30
	// row 4: key=5 value=25
	// row 5: key=6 value=35
	// row 6: key=7 value=45
}
