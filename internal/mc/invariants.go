package mc

import (
	"fmt"

	"transit/internal/efsm"
)

// Predicate wraps an arbitrary check as an Invariant.
func Predicate(name string, check func(r *efsm.Runtime, st *efsm.State) (bool, string)) Invariant {
	return Invariant{Name: name, Check: check}
}

// ctlSet resolves control-state names of def to a set indexed by control
// ordinal; names def does not declare match no state.
func ctlSet(def *efsm.ProcDef, states ...[]string) []bool {
	set := make([]bool, len(def.States.Values))
	for _, names := range states {
		for _, s := range names {
			if ord := def.States.Ord(s); ord >= 0 {
				set[ord] = true
			}
		}
	}
	return set
}

// AtMostOne asserts that at most one instance of def occupies any of the
// given control states at a time.
func AtMostOne(def *efsm.ProcDef, states ...string) Invariant {
	inSet := ctlSet(def, states)
	name := fmt.Sprintf("at-most-one %s in %v", def.Name, states)
	return Invariant{Name: name, Check: func(r *efsm.Runtime, st *efsm.State) (bool, string) {
		holder := -1
		for _, idx := range r.InstancesOf(def) {
			if inSet[st.Procs[idx].Ctl] {
				if holder >= 0 {
					return false, fmt.Sprintf("%s and %s both in %v",
						r.Insts[holder].Name(), r.Insts[idx].Name(), states)
				}
				holder = idx
			}
		}
		return true, ""
	}}
}

// SWMR is the single-writer/multiple-reader coherence invariant: whenever
// some instance of cacheDef is in a writer state, no other instance holds a
// valid (writer or reader) copy.
func SWMR(cacheDef *efsm.ProcDef, writerStates, readerStates []string) Invariant {
	writer := ctlSet(cacheDef, writerStates)
	valid := ctlSet(cacheDef, writerStates, readerStates)
	return Invariant{Name: "SWMR", Check: func(r *efsm.Runtime, st *efsm.State) (bool, string) {
		writerIdx := -1
		for _, idx := range r.InstancesOf(cacheDef) {
			if writer[st.Procs[idx].Ctl] {
				writerIdx = idx
				break
			}
		}
		if writerIdx < 0 {
			return true, ""
		}
		for _, idx := range r.InstancesOf(cacheDef) {
			if idx == writerIdx {
				continue
			}
			if valid[st.Procs[idx].Ctl] {
				return false, fmt.Sprintf("%s holds write permission (%s) while %s holds a valid copy (%s)",
					r.Insts[writerIdx].Name(), r.CtlOf(st, writerIdx),
					r.Insts[idx].Name(), r.CtlOf(st, idx))
			}
		}
		return true, ""
	}}
}
