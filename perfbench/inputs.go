package main

import (
	"fmt"
	"strings"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/icl"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
)

// mix derives a stream seed from the workload seed: splitmix64 over the
// parts, folded into [1, 2^31) so it survives every JSON round trip.
func mix(seed int64, parts ...uint64) int64 {
	x := uint64(seed)
	for _, p := range append([]uint64{0x5eed}, parts...) {
		x += 0x9e3779b97f4a7c15 ^ p
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return int64(x%(1<<31-1)) + 1
}

// entry looks up a Table I row.
func entry(name string) benchnets.Entry {
	e, ok := benchnets.Lookup(name)
	if !ok {
		panic("perfbench: unknown Table I row " + name)
	}
	return e
}

// quickBudget is the generation budget of `table1 -quick`: 150, or 60
// above 10k primitives, never more than the row's own budget.
func quickBudget(e benchnets.Entry) int {
	limit := 150
	if e.Segments+e.Muxes > 10000 {
		limit = 60
	}
	return min(e.Generations, limit)
}

// iclText renders a Table I row as the ICL a client would upload.
func iclText(e benchnets.Entry) (string, error) {
	net, err := benchnets.GenerateEntry(e)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := icl.Write(&b, net); err != nil {
		return "", fmt.Errorf("%s: %w", e.Name, err)
	}
	return b.String(), nil
}

// input is one distinct network of a workload, built before timing:
// the ICL text (empty for by-name requests) and the reference answer
// under the run's spec seed.
type input struct {
	entry benchnets.Entry
	icl   string
	ref   *reference
}

// loadInput builds an input and its reference. byName mirrors the
// server's by-name path (benchnets generates the network); otherwise
// the network is parsed from the ICL text, as an upload is.
func loadInput(name string, specSeed int64, byName bool) (*input, error) {
	in := &input{entry: entry(name)}
	var net *rsn.Network
	var err error
	if byName {
		net, err = benchnets.GenerateEntry(in.entry)
	} else {
		if in.icl, err = iclText(in.entry); err != nil {
			return nil, err
		}
		net, err = icl.Parse(strings.NewReader(in.icl))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(specSeed))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if in.ref, err = newReference(net, sp); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return in, nil
}
