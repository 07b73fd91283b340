package moea

import (
	"math/rand"
	"testing"
)

// BenchmarkSelection exercises SPEA-2's whole selection step — raw
// fitness, archive choice, truncation and density — on two-objective
// unions shaped like a converged selective-hardening population: obj0
// spread over a wide integer range with heavy ties and exact
// duplicates. In the underfull case obj1 takes a narrow independent
// range, so few members are nondominated and the archive of capacity
// n/2 is filled by F, which needs the density of the archive entries
// and of the members that share their R class with another above the
// cut, not of lone members above it. In the truncate case obj1 falls as
// obj0 rises, so nearly every member is nondominated and the same
// capacity truncates along the front chain.
func BenchmarkSelection(b *testing.B) {
	for _, shape := range []string{"truncate", "underfull"} {
		for _, n := range []int{128, 416} {
			b.Run(shape+"/"+itoa(n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(7))
				union := make([]Individual, n)
				for i := range union {
					obj0 := 1e6 * float64(rng.Intn(n/4)) * (1 + rng.Float64()*0.001)
					obj1 := float64(rng.Intn(80))
					if shape == "truncate" {
						obj1 = 80 - obj0/(1e6*float64(n/4))*80
					}
					union[i] = Individual{Obj: []float64{obj0, obj1}}
				}
				var s selScratch
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					environmentalSelection(union, n/2, 2, 1, &s)
				}
			})
		}
	}
}

// BenchmarkParetoFilter times the per-generation front extraction the
// progress hooks run, on archive-shaped two-objective sets: a front
// with duplicates, a third of the members lifted off it.
func BenchmarkParetoFilter(b *testing.B) {
	for _, n := range []int{100, 300, 600} {
		b.Run(itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			pop := make([]Individual, n)
			for i := range pop {
				x := float64(rng.Intn(n / 2))
				obj := []float64{x, float64(n/2) - x}
				if rng.Intn(3) == 0 {
					obj[1] += float64(1 + rng.Intn(20))
				}
				pop[i] = Individual{G: Genome{uint64(i)}, Obj: obj}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkFront = ParetoFilter(pop)
			}
		})
	}
}

var sinkFront []Individual

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
