package mc

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"unsafe"
)

// The search is organized as depth-synchronized rounds over a hash-sharded
// visited set. Each round expands the entire depth-d frontier (split
// across workers by stride), then merges the candidate successors
// shard-by-shard (split across workers by shard ownership), then checks
// invariants on the accepted depth-(d+1) states, then accounts states and
// budgets sequentially. The phases are separated by WaitGroup barriers, so
// within a phase the visited shards are read-only (expansion) or
// partitioned (merge) — no locks, and the race detector agrees.
//
// Determinism is by construction, independent of worker count:
//   - The frontier is globally sorted by canonical key, so "earliest
//     frontier index" (the tie-break for semantics problems and deadlocks
//     found at the same depth) means "least canonical key".
//   - Candidates merge in (key, parent frontier index, action index)
//     order and the first wins; frontier index order is key order, so
//     when several depth-d parents reach the same new state, the
//     recorded predecessor is the lexicographically least — every
//     counterexample trace is reproducible run to run.
//   - States are counted, and the MaxStates budget charged, in one
//     sequential sweep over the key-sorted accepted list, so the budget
//     cuts at exactly the same state no matter how many workers expanded.

// numShards fixes the visited-set sharding. It is a constant, not a
// function of Workers, so the shard assignment of a state — and with it
// per-shard stats — is identical across worker counts.
const numShards = 64

// A ref names a visited state: its index in its shard's edge slice times
// numShards, plus the shard. noRef is the initial state's parent; maxRefs
// keeps every real ref below it.
const (
	shardBits = 6 // log2(numShards)
	maxRefs   = 1<<(32-shardBits) - 1
	noRef     = ^uint32(0)
)

// seg locates bytes in an arena.
type seg struct{ off, n uint32 }

func (s seg) of(arena []byte) []byte { return arena[s.off : s.off+s.n] }

// edge records a visited state: where its canonical key sits in its
// shard's key arena, and how it was first reached — the ref of its
// predecessor, the index of the action taken in Actions of the
// predecessor's representative (the state the search expanded), and the
// index of the permutation that canonicalized the successor. Traces
// replay through these, composing the permutations back to original PIDs.
type edge struct {
	key    seg
	parent uint32
	action int32
	sigma  uint16
}

// edgeBytes is the retained size of one edge.
const edgeBytes = int(unsafe.Sizeof(edge{}))

// visited is the visited set, split across numShards shards by key hash.
type visited [numShards]shard

// shard holds its states' keys back to back in one arena, their edges,
// and an open-addressing table over them. A table entry is the key hash's
// high 32 bits (its tag) above the edge index + 1; 0 marks an empty
// entry. The table is at most half full, and a tag hit is confirmed on
// the full key bytes, so membership is exact.
type shard struct {
	keys  []byte
	edges []edge
	table []uint64
	// bits is log2(len(table)).
	bits uint8
}

// hashKey is FNV-1a over a canonical key: its low shardBits pick the
// shard, its high 32 bits are the table tag.
func hashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// home is a tag's first probe position in a table of 1<<bits entries
// (Fibonacci hashing), so that growing the table needs only the tags.
func home(tag uint32, bits uint8) int {
	return int((tag * 0x9E3779B9) >> (32 - bits))
}

// find returns the position of key in the table, or of the empty entry
// where it belongs.
func (s *shard) find(tag uint32, key []byte) (int, bool) {
	mask := len(s.table) - 1
	for i := home(tag, s.bits); ; i = (i + 1) & mask {
		e := s.table[i]
		if e == 0 {
			return i, false
		}
		if uint32(e>>32) == tag && bytes.Equal(s.edges[uint32(e)-1].key.of(s.keys), key) {
			return i, true
		}
	}
}

// has reports whether the key with hash h is visited.
func (v *visited) has(h uint64, key []byte) bool {
	s := &v[h&(numShards-1)]
	if len(s.table) == 0 {
		return false
	}
	_, ok := s.find(uint32(h>>32), key)
	return ok
}

// insert adds the key with hash h, reached by e, unless it is visited. It
// returns the key's ref and whether it was added; ok is false when the
// shard is full.
func (v *visited) insert(h uint64, key []byte, e edge) (ref uint32, added, ok bool) {
	sh := int(h & (numShards - 1))
	s := &v[sh]
	idx := len(s.edges)
	if 2*(idx+1) > len(s.table) {
		s.grow()
	}
	tag := uint32(h >> 32)
	at, found := s.find(tag, key)
	if found {
		return 0, false, true
	}
	if idx >= maxRefs || len(s.keys)+len(key) > math.MaxUint32 {
		return 0, false, false
	}
	e.key = seg{uint32(len(s.keys)), uint32(len(key))}
	s.keys = append(s.keys, key...)
	s.edges = append(s.edges, e)
	s.table[at] = uint64(tag)<<32 | uint64(idx+1)
	return uint32(idx)<<shardBits | uint32(sh), true, true
}

// grow doubles the table (16 entries at first) and re-places every entry
// by its tag.
func (s *shard) grow() {
	old := s.table
	s.bits = max(4, s.bits+1)
	s.table = make([]uint64, 1<<s.bits)
	mask := len(s.table) - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := home(uint32(e>>32), s.bits)
		for s.table[i] != 0 {
			i = (i + 1) & mask
		}
		s.table[i] = e
	}
}

func (v *visited) edge(ref uint32) edge {
	return v[ref&(numShards-1)].edges[ref>>shardBits]
}

// key returns the canonical key of a visited state.
func (v *visited) key(ref uint32) []byte {
	s := &v[ref&(numShards-1)]
	return s.edges[ref>>shardBits].key.of(s.keys)
}

// counts returns the per-shard visited sizes.
func (v *visited) counts() []int {
	out := make([]int, numShards)
	for i := range v {
		out[i] = len(v[i].edges)
	}
	return out
}

// bytes is the memory the visited set retains: key arenas, tables and
// edges, at their allocated capacity.
func (v *visited) bytes() int64 {
	var n int64
	for i := range v {
		s := &v[i]
		n += int64(cap(s.keys) + 8*len(s.table) + edgeBytes*cap(s.edges))
	}
	return n
}

// frontEnt is one frontier state: its visited ref, its orbit size under
// the PID symmetry group, and its representative vector (the canonical
// frame when symmetry reduction applies, the state itself otherwise),
// held in the round's frontier arena number arena.
type frontEnt struct {
	ref   uint32
	orbit int32
	arena uint16
	vec   seg
}

// candidate is a successor produced during expansion, waiting for the
// merge phase to decide whether it is new and which parent edge wins.
// Its key and representative vector sit in the arena of the worker w
// that produced it; parent is the expanding state's frontier index.
type candidate struct {
	hash     uint64
	key, vec seg
	parent   int32
	action   int32
	orbit    int32
	sigma    uint16
	w        uint16
}

// sortCandidates orders candidates by (key, parent, action index): the
// first candidate per key after this sort is the deterministic winner.
// The frontier is key-sorted, so parent index order is parent key order.
func sortCandidates(cands []candidate, arenas [][]byte) {
	slices.SortFunc(cands, func(a, b candidate) int {
		if c := bytes.Compare(a.key.of(arenas[a.w]), b.key.of(arenas[b.w])); c != 0 {
			return c
		}
		if a.parent != b.parent {
			return cmp.Compare(a.parent, b.parent)
		}
		return cmp.Compare(a.action, b.action)
	})
}

// sortFrontier orders a frontier by canonical key: the round-global order
// that "least index" tie-breaks refer to.
func sortFrontier(f []frontEnt, v *visited) {
	slices.SortFunc(f, func(a, b frontEnt) int { return bytes.Compare(v.key(a.ref), v.key(b.ref)) })
}

// problemAt is a semantics problem or deadlock found at a frontier index;
// the least index (= least canonical key) wins the round.
type problemAt struct {
	idx      int
	deadlock bool
	name     string
	detail   string
}

// violAt is an invariant violation at an index of the accepted list, with
// the violated invariant's position (invariants are checked in order, so
// the least invariant index at the least state index mirrors the
// sequential checker).
type violAt struct {
	idx    int
	inv    int
	detail string
}
