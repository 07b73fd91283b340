package moea

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint
// decoder. Corrupted, truncated or hostile inputs must fail with an
// error — never panic, never over-allocate on a forged length field —
// and any input that decodes must re-encode to the same bytes
// (canonical form round trip).
func FuzzCheckpointDecode(f *testing.F) {
	// Seed the corpus with genuine checkpoints of both algorithms plus
	// systematic damage: truncation, a flipped header bit, a flipped
	// payload bit, and a forged length field.
	seeds := [][]byte{
		EncodeCheckpoint(&Checkpoint{Algorithm: "spea2", Seed: 1, NumBits: 40, Population: 2,
			NumObjectives: 2, Generation: 3,
			Pop: []CheckpointIndividual{
				{Genome: Genome{1}, Obj: []float64{1, 2}, Fitness: 0.5, Density: 1},
				{Genome: Genome{2}, Obj: []float64{3, 4}, Fitness: 1, Density: 0},
			},
			Archive: []CheckpointIndividual{{Genome: Genome{3}, Obj: []float64{5, 6}}},
		}),
		EncodeCheckpoint(&Checkpoint{Algorithm: "nsga2", Seed: -9, NumBits: 130, Population: 2,
			NumObjectives: 2, Generation: 1, RNGDraws: 77, Evaluations: 60, DeltaEvals: 55, FullEvals: 5,
			Pop: []CheckpointIndividual{
				{Genome: Genome{1, 2, 3}, Obj: []float64{0, 0}},
				{Genome: Genome{4, 5, 2}, Obj: []float64{1, 1}},
			},
		}),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
		flipped := append([]byte(nil), s...)
		flipped[9] ^= 0x10
		f.Add(flipped)
		flipped = append([]byte(nil), s...)
		flipped[len(flipped)/2] ^= 0x01
		f.Add(flipped)
	}
	// A genome bit beyond NumBits under a valid checksum.
	f.Add(EncodeCheckpoint(&Checkpoint{Algorithm: "spea2", Seed: 1, NumBits: 48, Population: 1,
		NumObjectives: 2, Generation: 10,
		Pop: []CheckpointIndividual{{Genome: Genome{1 << 60}, Obj: []float64{1, 2}}},
	}))
	f.Add([]byte{})
	f.Add([]byte("RSNCKPT\x04"))
	// A forged genome-length field claiming gigabytes of payload.
	forged := append([]byte("RSNCKPT\x04"), bytes.Repeat([]byte{0xFF}, 64)...)
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeCheckpoint(cp), data) {
			t.Fatalf("decoded checkpoint does not re-encode to its input (%d bytes)", len(data))
		}
	})
}

// FuzzParetoFilter holds the two-objective sweep of ParetoFilter to the
// pairwise reference on arbitrary finite point sets. Narrow inputs read
// each coordinate from one byte, so ties and duplicates abound (every
// built-in objective is an integer sum); wide inputs read float64 bits,
// skipping NaN and infinities.
func FuzzParetoFilter(f *testing.F) {
	f.Add([]byte{1, 5, 2, 2, 5, 1, 3, 3, 2, 2}, false)
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0}, false)
	f.Add(bytes.Repeat([]byte{7, 200, 8, 100}, 16), true)
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		var vals []float64
		if wide {
			for ; len(data) >= 8; data = data[8:] {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					vals = append(vals, v)
				}
			}
		} else {
			for _, b := range data {
				vals = append(vals, float64(int8(b)))
			}
		}
		pop := make([]Individual, len(vals)/2)
		for i := range pop {
			pop[i] = Individual{G: Genome{uint64(i)}, Obj: vals[2*i : 2*i+2]}
		}
		checkParetoFilter(t, pop)
	})
}

// FuzzGeometricGap holds the gap sampler to int(math.Log(u)/logq), the
// variate it replaces, for every success probability p in (0, 1) and
// every u in (0, 1).
func FuzzGeometricGap(f *testing.F) {
	for _, p := range gapSamplerPs {
		f.Add(p, 0.5)
		f.Add(p, 0x1p-63)
		f.Add(p, math.Nextafter(1, 0))
		f.Add(p, math.Pow(1-p, 3)) // near the step from 3 to 2
	}
	f.Add(0x1p-1074, 0.25)
	f.Add(0.01, 0x1p-1070)
	f.Fuzz(func(t *testing.T, p, u float64) {
		if !(p > 0 && p < 1 && u > 0 && u < 1) {
			return
		}
		s := newGapSampler(p)
		if got, want := s.gap(u), refGap(u, s.logq); got != want {
			t.Fatalf("p=%g u=%g: gap %d, int(math.Log(u)/logq) %d", p, u, got, want)
		}
	})
}
