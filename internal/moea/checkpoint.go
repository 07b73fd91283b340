package moea

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
)

// This file is the checkpoint subsystem: a checksummed snapshot of an
// evolutionary run at a generation boundary, sufficient to resume the
// run so that the continuation is bit-identical to the uninterrupted
// run — same front, same evaluation accounting, same stdout when driven
// by the CLIs.
//
// The captured state is exactly what the generation loop reads at its
// top: the population and archive (genomes, objectives and the
// algorithm scratch NSGA-II's tournament consumes), the RNG position
// expressed as a draw count (replayed on resume — math/rand sources
// are not serializable) and the exact evaluation counts. Nothing else
// is carried, so a checkpoint's size is fixed by the run's shape and
// does not grow with the generation it was taken at.

// Checkpoint is the resumable state of a run at the top of a
// generation. Instances handed to Params.CheckpointFn alias live engine
// buffers and are only valid for the duration of the callback — encode
// or deep-copy before returning. Instances produced by DecodeCheckpoint
// own their memory.
type Checkpoint struct {
	// Algorithm is "spea2" or "nsga2"; a checkpoint resumes only the
	// algorithm that wrote it.
	Algorithm string
	// Seed, NumBits and Population identify the run; resuming under
	// different values is a mismatch, not a continuation.
	Seed       int64
	NumBits    int
	Population int
	// NumObjectives is the objective-vector length of every serialized
	// individual. It is part of the header, so an empty population
	// cannot misreport the run's objective count; when zero, the encoder
	// infers it from the first serialized vector (for hand-built
	// checkpoints).
	NumObjectives int
	// Generation is the loop index the checkpoint was captured at; the
	// resumed run re-enters the loop there.
	Generation int
	// RNGDraws is the number of values drawn from the seeded source so
	// far; resume replays exactly this many draws.
	RNGDraws uint64
	// Evaluations restores the exact accounting of the interrupted
	// prefix; DeltaEvals and FullEvals split it by evaluation path.
	Evaluations           int
	DeltaEvals, FullEvals int
	// Islands is the island count of an island-model run (zero for a
	// single population's checkpoint: a one-island run writes its
	// island's own record). An island checkpoint
	// carries the whole lockstep state in IslandCkpts — one nested
	// single-population checkpoint per island, in ring order — and its
	// own Pop/Archive are empty: the top level records only the
	// aggregate accounting.
	Islands     int
	IslandCkpts []*Checkpoint
	// Pop and Archive are the live individuals at the loop top (Archive
	// is empty for NSGA-II).
	Pop, Archive []CheckpointIndividual
}

// CheckpointIndividual is one serialized individual: genome, objectives
// and the algorithm scratch (SPEA-2 fitness / NSGA-II rank, and the
// density / crowding distance) that survives across the loop boundary.
type CheckpointIndividual struct {
	Genome           Genome
	Obj              []float64
	Fitness, Density float64
}

// ckptMagic identifies the format; the trailing byte is its version.
// There is one format, version 4: the header (algorithm, the
// fixed-width run and accounting fields, then the population, archive
// and island counts), the population and archive individuals, one
// length-prefixed nested checkpoint blob per island, and a trailing
// FNV-1a checksum. Any other version byte is rejected as corrupt.
var ckptMagic = [8]byte{'R', 'S', 'N', 'C', 'K', 'P', 'T', 4}

const (
	// ckptFixedBytes is the size of a checkpoint without its algorithm
	// name, individuals and island blobs: magic and version (8), the
	// algorithm-name length (1), the fixed-width header fields (68) and
	// the checksum (8).
	ckptFixedBytes = 8 + 1 + 68 + 8
	// ckptMaxIslands bounds the island count accepted by the decoder;
	// far above any real configuration.
	ckptMaxIslands = 4096
)

// ckptMaxBits bounds NumBits accepted by the decoder — far above any
// real network, low enough that a hostile count cannot drive huge
// allocations before the size consistency check.
const ckptMaxBits = 1 << 28

// ckptIndividualBytes is the serialized size of one individual: the
// genome words, the objective vector, fitness and density.
func ckptIndividualBytes(numBits, m int) int {
	return (numBits+63)/64*8 + m*8 + 16
}

// EncodeCheckpoint serializes a checkpoint: magic+version, the header,
// the individuals, the island blobs and a trailing FNV-1a checksum over
// everything before it.
func EncodeCheckpoint(cp *Checkpoint) []byte {
	nwords := (cp.NumBits + 63) / 64
	m := cp.headerObjectives()
	size := ckptFixedBytes + len(cp.Algorithm) +
		(len(cp.Pop)+len(cp.Archive))*ckptIndividualBytes(cp.NumBits, m)
	b := make([]byte, 0, size)
	b = append(b, ckptMagic[:]...)
	b = append(b, byte(len(cp.Algorithm)))
	b = append(b, cp.Algorithm...)
	b = le64(b, uint64(cp.Seed))
	b = le32(b, uint32(cp.NumBits))
	b = le32(b, uint32(cp.Population))
	b = le32(b, uint32(m))
	b = le32(b, uint32(cp.Generation))
	b = le64(b, cp.RNGDraws)
	b = le64(b, uint64(cp.Evaluations))
	b = le64(b, uint64(cp.DeltaEvals))
	b = le64(b, uint64(cp.FullEvals))
	b = le32(b, uint32(len(cp.Pop)))
	b = le32(b, uint32(len(cp.Archive)))
	b = le32(b, uint32(len(cp.IslandCkpts)))
	for _, set := range [][]CheckpointIndividual{cp.Pop, cp.Archive} {
		for _, in := range set {
			b = appendGenome(b, in.Genome, nwords)
			b = appendFloats(b, in.Obj)
			b = le64(b, math.Float64bits(in.Fitness))
			b = le64(b, math.Float64bits(in.Density))
		}
	}
	for _, ic := range cp.IslandCkpts {
		blob := EncodeCheckpoint(ic)
		b = le32(b, uint32(len(blob)))
		b = append(b, blob...)
	}
	return le64(b, fnv1a(b))
}

// headerObjectives is the objective count written into the header: the
// explicit field when set, otherwise the length of the first serialized
// vector.
func (cp *Checkpoint) headerObjectives() int {
	if cp.NumObjectives > 0 {
		return cp.NumObjectives
	}
	for _, set := range [][]CheckpointIndividual{cp.Pop, cp.Archive} {
		if len(set) > 0 {
			return len(set[0].Obj)
		}
	}
	return 0
}

// DecodeCheckpoint parses and validates a serialized checkpoint. Any
// structural defect — short input, wrong magic or version, checksum
// mismatch, counts inconsistent with the payload size, a genome bit at
// or beyond NumBits — returns an error wrapping ErrCheckpointCorrupt; no
// input panics.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	return decodeCheckpoint(data, 0)
}

// decodeCheckpoint is DecodeCheckpoint with a nesting depth: island
// sub-checkpoints (depth 1) are single-population runs and may not
// carry islands of their own, which bounds the recursion.
func decodeCheckpoint(data []byte, depth int) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+8 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCheckpointCorrupt, len(data))
	}
	if [8]byte(data[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic or version", ErrCheckpointCorrupt)
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if fnv1a(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpointCorrupt)
	}
	r := ckptReader{b: body[8:]}
	cp := &Checkpoint{}
	alen := int(r.u8())
	cp.Algorithm = string(r.take(alen))
	cp.Seed = int64(r.u64())
	cp.NumBits = int(r.u32())
	cp.Population = int(r.u32())
	m := int(r.u32())
	cp.NumObjectives = m
	cp.Generation = int(r.u32())
	cp.RNGDraws = r.u64()
	cp.Evaluations = int(r.u64())
	cp.DeltaEvals = int(r.u64())
	cp.FullEvals = int(r.u64())
	npop := int(r.u32())
	narch := int(r.u32())
	nislands := int(r.u32())
	if r.bad {
		return nil, fmt.Errorf("%w: truncated header", ErrCheckpointCorrupt)
	}
	if cp.NumBits < 0 || cp.NumBits > ckptMaxBits || m < 0 || m > 64 ||
		cp.Generation < 0 || cp.Population < 0 || cp.Evaluations < 0 ||
		cp.DeltaEvals < 0 || cp.FullEvals < 0 || nislands > ckptMaxIslands {
		return nil, fmt.Errorf("%w: implausible header values", ErrCheckpointCorrupt)
	}
	if nislands > 0 && depth > 0 {
		return nil, fmt.Errorf("%w: nested island checkpoint", ErrCheckpointCorrupt)
	}
	cp.Islands = nislands
	nwords := (cp.NumBits + 63) / 64
	// The island blobs that follow the individuals are length-prefixed,
	// so only a lower bound is known here; the trailing-bytes check
	// below closes the envelope.
	want := uint64(npop+narch) * uint64(ckptIndividualBytes(cp.NumBits, m))
	if uint64(len(r.b)) < want {
		return nil, fmt.Errorf("%w: payload is %d bytes, header implies at least %d", ErrCheckpointCorrupt, len(r.b), want)
	}
	// A genome bit at or beyond NumBits would index past the problem's
	// primitives; only the last word can hold one.
	var stray uint64
	if tail := cp.NumBits & 63; tail != 0 {
		stray = ^uint64(0) << tail
	}
	strayBits := false
	readInds := func(n int) []CheckpointIndividual {
		ins := make([]CheckpointIndividual, n)
		for i := range ins {
			ins[i].Genome = r.genome(nwords)
			ins[i].Obj = r.floats(m)
			ins[i].Fitness = math.Float64frombits(r.u64())
			ins[i].Density = math.Float64frombits(r.u64())
			if nwords > 0 && ins[i].Genome[nwords-1]&stray != 0 {
				strayBits = true
			}
		}
		return ins
	}
	cp.Pop = readInds(npop)
	cp.Archive = readInds(narch)
	if strayBits {
		return nil, fmt.Errorf("%w: a genome sets a bit at or beyond NumBits %d", ErrCheckpointCorrupt, cp.NumBits)
	}
	if nislands > 0 {
		cp.IslandCkpts = make([]*Checkpoint, nislands)
		for i := range cp.IslandCkpts {
			blob := r.take(int(r.u32()))
			if r.bad {
				return nil, fmt.Errorf("%w: truncated island section", ErrCheckpointCorrupt)
			}
			ic, err := decodeCheckpoint(blob, depth+1)
			if err != nil {
				return nil, fmt.Errorf("island %d: %w", i, err)
			}
			cp.IslandCkpts[i] = ic
		}
	}
	if r.bad || len(r.b) != 0 {
		return nil, fmt.Errorf("%w: trailing or missing payload bytes", ErrCheckpointCorrupt)
	}
	return cp, nil
}

// SaveCheckpoint atomically and durably writes the encoded checkpoint:
// the bytes land in a temp file in the target directory, the file is
// fsynced BEFORE the rename, the temp file is renamed over the
// destination, and the parent directory is fsynced after. The ordering
// matters: rename-before-fsync lets a power loss publish an empty (or
// partially written) file under the final name as a "successful"
// checkpoint, because the rename can reach the disk before the data
// does. With the write→fsync→rename→fsync(dir) order, a kill at any
// instant leaves either the previous valid checkpoint or the new valid
// one — never a truncated hybrid.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	data := EncodeCheckpoint(cp)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("moea: checkpoint write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("moea: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("moea: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("moea: checkpoint write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("moea: checkpoint write: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename inside it is
// durable. Filesystems that refuse to fsync directories (some network
// and FUSE mounts) degrade gracefully: the rename itself already
// succeeded, so the checkpoint is valid, just not yet guaranteed on
// stable storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// LoadCheckpoint reads and decodes a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("moea: checkpoint read: %w", err)
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cp, nil
}

// validateResume checks that a checkpoint belongs to the run par
// describes on a problem of nbits bits and m objectives: the same
// island count, algorithm, seed, genome size, population and objective
// count, and a generation inside the budget. An island run's checkpoint
// must carry one record per island (each island's engine validates its
// own); a single population's record — Islands 0 — must carry its
// population.
func validateResume(algo string, cp *Checkpoint, par *Params, nbits, m int) error {
	islands := par.Islands
	if islands == 1 {
		islands = 0
	}
	switch {
	case cp.Islands != islands:
		return fmt.Errorf("%w: checkpoint has %d islands, run has %d (0: a single population)", ErrCheckpointMismatch, cp.Islands, islands)
	case len(cp.IslandCkpts) != cp.Islands:
		return fmt.Errorf("%w: island checkpoint carries %d of %d island states", ErrCheckpointMismatch, len(cp.IslandCkpts), cp.Islands)
	case cp.Algorithm != algo:
		return fmt.Errorf("%w: checkpoint is a %s run, resuming %s", ErrCheckpointMismatch, cp.Algorithm, algo)
	case cp.Seed != par.Seed:
		return fmt.Errorf("%w: checkpoint seed %d, run seed %d", ErrCheckpointMismatch, cp.Seed, par.Seed)
	case cp.NumBits != nbits:
		return fmt.Errorf("%w: checkpoint genome is %d bits, problem has %d", ErrCheckpointMismatch, cp.NumBits, nbits)
	case cp.Population != par.Population:
		return fmt.Errorf("%w: checkpoint population %d, run population %d", ErrCheckpointMismatch, cp.Population, par.Population)
	case cp.Generation >= par.Generations:
		return fmt.Errorf("%w: checkpoint generation %d is beyond the %d-generation budget", ErrCheckpointMismatch, cp.Generation, par.Generations)
	case islands == 0 && len(cp.Pop) == 0:
		return fmt.Errorf("%w: checkpoint has no population", ErrCheckpointMismatch)
	case cp.headerObjectives() != m:
		return fmt.Errorf("%w: checkpoint has %d objectives, problem has %d", ErrCheckpointMismatch, cp.headerObjectives(), m)
	}
	return nil
}

// countedSource wraps the seeded math/rand source, counting every draw
// so the RNG position can be checkpointed and replayed. It implements
// Source64 by delegation, so rand.Rand consumes it exactly like the
// bare source — same sequences, same determinism guarantees.
type countedSource struct {
	src   rand.Source64
	draws uint64
}

func newCountedSource(seed int64) *countedSource {
	return &countedSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countedSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countedSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countedSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// skip replays n draws. The underlying source advances by exactly one
// internal step per draw regardless of which method was called (Int63
// is Uint64 masked), so replaying by Uint64 restores the exact
// position.
func (s *countedSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.draws = n
}

// fnv1a is the 64-bit FNV-1a hash over a byte slice (the checkpoint
// checksum).
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// le32/le64 append little-endian integers.
func le32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func le64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// appendGenome writes exactly nwords words (genomes of a run share one
// length; a short slice would indicate a caller bug and is padded with
// zero words to keep the format self-consistent).
func appendGenome(b []byte, g Genome, nwords int) []byte {
	for i := 0; i < nwords; i++ {
		var w uint64
		if i < len(g) {
			w = g[i]
		}
		b = le64(b, w)
	}
	return b
}

func appendFloats(b []byte, fs []float64) []byte {
	for _, f := range fs {
		b = le64(b, math.Float64bits(f))
	}
	return b
}

// ckptReader is a bounds-checked little-endian cursor; out-of-range
// reads set bad instead of panicking and return zero values.
type ckptReader struct {
	b   []byte
	bad bool
}

func (r *ckptReader) take(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *ckptReader) u8() byte {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (r *ckptReader) u32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (r *ckptReader) u64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (r *ckptReader) genome(nwords int) Genome {
	g := make(Genome, nwords)
	for i := range g {
		g[i] = r.u64()
	}
	return g
}

func (r *ckptReader) floats(m int) []float64 {
	fs := make([]float64, m)
	for i := range fs {
		fs[i] = math.Float64frombits(r.u64())
	}
	return fs
}
