package mc

import (
	"cmp"
	"slices"
	"strings"

	"transit/internal/efsm"
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

// edge records how a state was first reached: the ref of its
// predecessor, the index of the action taken in Actions of the
// predecessor's representative (the state the search expanded), and the
// permutation that canonicalized the successor. Traces replay through
// these, composing the permutations back to original PIDs.
type edge struct {
	parent uint32
	action int32
	sigma  efsm.Perm
}

// shardSet is the visited set split across numShards shards by key hash:
// each maps a canonical key to its ref and holds its states' edges.
type shardSet struct {
	refs  [numShards]map[string]uint32
	edges [numShards][]edge
}

func newShardSet() *shardSet {
	s := &shardSet{}
	for i := range s.refs {
		s.refs[i] = make(map[string]uint32)
	}
	return s
}

// shardOf hashes a canonical key to its shard (FNV-1a).
func shardOf[K string | []byte](key K) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h & (numShards - 1))
}

// seen reports whether a key is visited; a []byte key is looked up
// without copying it.
func (s *shardSet) seen(key []byte) bool {
	_, ok := s.refs[shardOf(key)][string(key)]
	return ok
}

// add records a new state in shard sh (which must be shardOf(key)) and
// returns its ref, or false when the shard is full.
func (s *shardSet) add(sh int, key string, e edge) (uint32, bool) {
	idx := len(s.edges[sh])
	if idx >= maxRefs {
		return 0, false
	}
	ref := uint32(idx)<<shardBits | uint32(sh)
	s.refs[sh][key] = ref
	s.edges[sh] = append(s.edges[sh], e)
	return ref, true
}

func (s *shardSet) edge(ref uint32) edge {
	return s.edges[ref&(numShards-1)][ref>>shardBits]
}

// counts returns the per-shard visited sizes.
func (s *shardSet) counts() []int {
	out := make([]int, numShards)
	for i := range s.edges {
		out[i] = len(s.edges[i])
	}
	return out
}

// frontEnt is one frontier state: its canonical key and visited ref, its
// representative state (the canonical frame when symmetry reduction
// applies, the state itself otherwise), and its orbit size under the PID
// symmetry group.
type frontEnt struct {
	key   string
	ref   uint32
	st    *efsm.State
	orbit int
}

// candidate is a successor produced during expansion, waiting for the
// merge phase to decide whether it is new and which parent edge wins.
// parent is the expanding state's frontier index.
type candidate struct {
	key    string
	parent int32
	actIdx int32
	sigma  efsm.Perm
	orbit  int
	st     *efsm.State
}

// sortCandidates orders candidates by (key, parent, action index): the
// first candidate per key after this sort is the deterministic winner.
// The frontier is key-sorted, so parent index order is parent key order.
func sortCandidates(cands []candidate) {
	slices.SortFunc(cands, func(a, b candidate) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		if a.parent != b.parent {
			return cmp.Compare(a.parent, b.parent)
		}
		return cmp.Compare(a.actIdx, b.actIdx)
	})
}

// sortFrontier orders a frontier by canonical key: the round-global order
// that "least index" tie-breaks refer to.
func sortFrontier(f []frontEnt) {
	slices.SortFunc(f, func(a, b frontEnt) int { return strings.Compare(a.key, b.key) })
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
