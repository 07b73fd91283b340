package icl

import (
	"bytes"
	"testing"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/rsn"
)

var sinkNet *rsn.Network

func benchmarkParse(b *testing.B, net *rsn.Network) {
	var buf bytes.Buffer
	if err := Write(&buf, net); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := Parse(bytes.NewReader(src))
		if err != nil {
			b.Fatal(err)
		}
		sinkNet = got
	}
}

func BenchmarkParseICL(b *testing.B) {
	for _, name := range []string{"MBIST_5_100_20", "MBIST_20_20_20"} {
		b.Run(name, func(b *testing.B) {
			net, err := benchnets.Generate(name)
			if err != nil {
				b.Fatal(err)
			}
			benchmarkParse(b, net)
		})
	}
}

// BenchmarkParseICLControls parses a 70k-node network with about 2,600
// control clauses, each naming its source segment.
func BenchmarkParseICLControls(b *testing.B) {
	benchmarkParse(b, benchnets.Random(benchnets.RandomOptions{Seed: 1, TargetPrims: 60000, SegmentControls: true}))
}
