package efsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"transit/internal/expr"
)

// Symmetry reduction for replicated processes. Cache-coherence protocols
// are symmetric in cache identity: permuting the PIDs of the replicated
// instances (and every PID-valued datum — process variables, in-flight
// message fields, by-field network slots) maps reachable states to
// reachable states. The model checker exploits that by exploring one
// canonical representative per orbit, which shrinks the reachable set by
// up to |caches|! (Alur et al., "Automatic Completion of Distributed
// Protocols with Symmetry"). This file provides the group machinery: PID
// permutations, their action on states and actions, the symmetry check on
// a System, and an exact minimum-encoding canonicalizer.

// Perm is a permutation of the PID domain 0..n-1, mapping old PID p to new
// PID Perm[p]. A nil Perm acts as the identity everywhere it is accepted.
type Perm []int

// IdentityPerm returns the identity permutation on n PIDs.
func IdentityPerm(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// IsIdentity reports whether the permutation fixes every PID (nil counts).
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if v != i {
			return false
		}
	}
	return true
}

// Apply maps one PID (identity on a nil Perm).
func (p Perm) Apply(pid int) int {
	if p == nil {
		return pid
	}
	return p[pid]
}

// Inverse returns the inverse permutation (nil for nil).
func (p Perm) Inverse() Perm {
	if p == nil {
		return nil
	}
	inv := make(Perm, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// Compose returns p∘q: the permutation applying q first, then p. Either
// operand may be nil (identity).
func (p Perm) Compose(q Perm) Perm {
	if p == nil {
		return q
	}
	if q == nil {
		return p
	}
	out := make(Perm, len(p))
	for i := range out {
		out[i] = p[q[i]]
	}
	return out
}

// permuteValue applies a PID permutation to a value: PIDs map through the
// permutation, sets permute element-wise, everything else is fixed.
func permuteValue(v expr.Value, pi Perm) expr.Value {
	if pi == nil {
		return v
	}
	switch v.Type().Kind {
	case expr.KindPID:
		return expr.PIDVal(pi[v.PID()])
	case expr.KindSet:
		return expr.SetVal(permutePayload(expr.KindSet, v.Set(), pi))
	}
	return v
}

// permutePayload is permuteValue on a raw payload of the given kind.
func permutePayload(k expr.Kind, x uint64, pi Perm) uint64 {
	switch k {
	case expr.KindPID:
		return uint64(pi[x])
	case expr.KindSet:
		low := uint64(1)<<uint(len(pi)) - 1
		out := x &^ low
		for p := 0; p < len(pi); p++ {
			if x&(1<<uint(p)) != 0 {
				out |= 1 << uint(pi[p])
			}
		}
		return out
	}
	return x
}

// permuteMsg value-permutes every field of a message.
func permuteMsg(m Msg, pi Perm) Msg {
	out := make(Msg, len(m))
	for i, v := range m {
		out[i] = permuteValue(v, pi)
	}
	return out
}

// Permute applies a PID permutation to a whole state: the replicated
// instance with PID q takes the (value-permuted) local state of the
// instance with PID pi⁻¹(q), singleton instances keep their slot with
// values permuted, and by-field network slots relocate the same way with
// per-slot message order preserved.
func (r *Runtime) Permute(st *State, pi Perm) *State {
	if pi == nil || pi.IsIdentity() {
		return st.Clone()
	}
	inv := pi.Inverse()
	out := &State{
		Procs: make([]ProcState, len(st.Procs)),
		Nets:  make([][][]Msg, len(st.Nets)),
	}
	for _, inst := range r.Insts {
		src := inst.Idx
		if inst.Def.Replicated {
			src = r.procs[inst.Idx].peers[inv[inst.PID]]
		}
		sp := st.Procs[src]
		vars := make([]expr.Value, len(sp.Vars))
		for j, v := range sp.Vars {
			vars[j] = permuteValue(v, pi)
		}
		out.Procs[inst.Idx] = ProcState{Ctl: sp.Ctl, Vars: vars}
	}
	for n, slots := range st.Nets {
		byField := r.Sys.Networks[n].Route == RouteByField
		out.Nets[n] = make([][]Msg, len(slots))
		for q := range slots {
			srcSlot := q
			if byField {
				srcSlot = inv[q]
			}
			msgs := make([]Msg, len(slots[srcSlot]))
			for m, msg := range slots[srcSlot] {
				msgs[m] = permuteMsg(msg, pi)
			}
			out.Nets[n][q] = msgs
		}
	}
	return out
}

// PermuteAction maps an action through a PID permutation, so that
// Apply/Permute commute: Permute(Apply(st, a), pi) equals
// Apply(Permute(st, pi), PermuteAction(a, pi)).
func (r *Runtime) PermuteAction(a Action, pi Perm) Action {
	if pi == nil || pi.IsIdentity() {
		return a
	}
	out := a
	inst := r.Insts[a.Inst]
	if inst.Def.Replicated {
		out.Inst = r.byDef[inst.Def][pi[inst.PID]]
	}
	if a.Net >= 0 {
		if r.Sys.Networks[a.Net].Route == RouteByField {
			out.Slot = pi[a.Slot]
		}
		out.Msg = permuteMsg(a.Msg, pi)
	}
	return out
}

// PIDSymmetric reports whether the system's behaviour is invariant under
// PID permutation: there is at least one replicated definition, none opted
// out via Asymmetric, and no transition expression singles out a concrete
// PID (a PID literal, or a set literal other than {} and the full set).
// Initial values are deliberately NOT checked: an asymmetric initial state
// (e.g. a PID variable defaulting to C0) only seeds the search, it does
// not break the soundness of orbit canonicalization, which needs the
// transition relation — not the initial state — to be symmetric.
// Invariants are arbitrary Go functions and cannot be checked here; the
// model checker documents the requirement that they be PID-symmetric.
func (s *System) PIDSymmetric() error {
	if s.U.NumCaches() < 2 {
		return fmt.Errorf("efsm: %s: symmetry needs at least 2 caches", s.Name)
	}
	replicated := false
	for _, d := range s.Defs {
		if d.Replicated {
			if d.Asymmetric {
				return fmt.Errorf("efsm: process %s is declared asymmetric", d.Name)
			}
			replicated = true
		}
		for _, t := range d.Transitions {
			ctx := fmt.Sprintf("efsm: %s transition (%s, %s)", d.Name, t.From, t.Event)
			if err := symmetricExpr(s.U, t.Guard, ctx+" guard"); err != nil {
				return err
			}
			for _, u := range t.Updates {
				if err := symmetricExpr(s.U, u.Rhs, ctx+" update "+u.Var); err != nil {
					return err
				}
			}
			for _, snd := range t.Sends {
				if err := symmetricExpr(s.U, snd.TargetSet, ctx+" multicast target"); err != nil {
					return err
				}
				for _, f := range snd.Fields {
					if err := symmetricExpr(s.U, f.Rhs, ctx+" send field "+f.Field); err != nil {
						return err
					}
				}
			}
		}
	}
	if !replicated {
		return fmt.Errorf("efsm: %s has no replicated processes", s.Name)
	}
	return nil
}

// symmetricExpr scans one expression for PID-distinguishing literals:
// Const nodes and nullary function symbols (C0, C1, ... are nullary funcs
// in the vocabulary) whose value names a concrete PID or a set other than
// {} and the full set.
func symmetricExpr(u *expr.Universe, e expr.Expr, ctx string) error {
	if e == nil {
		return nil
	}
	check := func(v expr.Value) error {
		switch v.Type().Kind {
		case expr.KindPID:
			return fmt.Errorf("%s: PID literal %s breaks symmetry", ctx, v)
		case expr.KindSet:
			if m := v.Set(); m != 0 && m != u.SetMask() {
				return fmt.Errorf("%s: set literal %s breaks symmetry", ctx, v)
			}
		}
		return nil
	}
	switch n := e.(type) {
	case *expr.Const:
		return check(n.Val)
	case *expr.Apply:
		if len(n.Args) == 0 {
			return check(n.Eval(u, nil))
		}
		for _, a := range n.Args {
			if err := symmetricExpr(u, a, ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// MaxSymmetryPIDs caps the exact canonicalizer: it scans all n!
// permutations per state, which stops being a win past 8 PIDs (40320
// permutations).
const MaxSymmetryPIDs = 8

// Byte classes of a vector: how a PID permutation acts on one byte. A PID
// or Set field is exactly one byte while n ≤ MaxSymmetryPIDs (a PID fits
// a byte up to 256 PIDs, a Set up to 8); every byte of any other field,
// and of the control ordinals and counts, is fixed.
const (
	clsPlain = iota
	clsPID
	clsSet
	numClasses
)

// permMapsSize is the size of one permutation's byte maps: 256 entries
// per class, indexed class<<8 | byte.
const permMapsSize = numClasses << 8

// SymGroup is the full symmetric group over the PID domain, precomputed
// for a runtime whose system passed PIDSymmetric as tables over the
// runtime's vector layout. It is immutable and safe to share across
// goroutines; each goroutine takes its own Encoder.
type SymGroup struct {
	r     *Runtime
	perms []Perm
	// maps holds each permutation's byte maps, permMapsSize bytes per
	// permutation: plain (the identity), PID and Set.
	maps []byte
	// src holds, for each permutation, the source instance of each
	// instance block and then the source slot of each network slot:
	// Permute moves that block or slot to this position.
	src  []int32
	nsrc int
	// instOff is the offset of each instance block in a vector (the last
	// entry is the end of the blocks), instCls the class of each of their
	// bytes. A replicated block relocates only between instances of one
	// definition, whose blocks share one layout.
	instOff []int
	instCls []byte
	// slotNet is each slot's network; recCls the class of each byte of a
	// network's message record.
	slotNet []int
	recCls  [][]byte
}

// byteClasses appends the classes of the key bytes of a value of type t.
func byteClasses(dst []byte, u *expr.Universe, t expr.Type) []byte {
	cls := byte(clsPlain)
	switch t.Kind {
	case expr.KindPID:
		cls = clsPID
	case expr.KindSet:
		cls = clsSet
	}
	for w := keyWidth(u, t); w > 0; w-- {
		dst = append(dst, cls)
	}
	return dst
}

// NewSymGroup validates that the runtime's system is PID-symmetric and
// within the exact canonicalizer's domain cap, then precomputes the
// permutation group in lexicographic order (perms[0] is the identity)
// and each permutation's byte maps and relocations.
func NewSymGroup(r *Runtime) (*SymGroup, error) {
	if err := r.Sys.PIDSymmetric(); err != nil {
		return nil, err
	}
	n := r.Sys.U.NumCaches()
	if n > MaxSymmetryPIDs {
		return nil, fmt.Errorf("efsm: %d caches exceeds the %d-PID exact canonicalization cap", n, MaxSymmetryPIDs)
	}
	g := &SymGroup{r: r}
	var gen func(prefix Perm, rest []int)
	gen = func(prefix Perm, rest []int) {
		if len(rest) == 0 {
			g.perms = append(g.perms, append(Perm(nil), prefix...))
			return
		}
		for i, v := range rest {
			next := make([]int, 0, len(rest)-1)
			next = append(next, rest[:i]...)
			next = append(next, rest[i+1:]...)
			gen(append(prefix, v), next)
		}
	}
	gen(make(Perm, 0, n), IdentityPerm(n))

	u := r.Sys.U
	for _, inst := range r.Insts {
		g.instOff = append(g.instOff, len(g.instCls))
		g.instCls = byteClasses(g.instCls, u, expr.EnumOf(inst.Def.States))
		for _, v := range inst.Def.Vars {
			g.instCls = byteClasses(g.instCls, u, v.VT)
		}
	}
	g.instOff = append(g.instOff, len(g.instCls))
	for n, net := range r.Sys.Networks {
		var cls []byte
		for _, f := range net.Msg.Fields {
			cls = byteClasses(cls, u, f.T)
		}
		g.recCls = append(g.recCls, cls)
		for q := 0; q < r.nets[n].slots; q++ {
			g.slotNet = append(g.slotNet, n)
		}
	}

	g.nsrc = len(r.Insts) + len(g.slotNet)
	g.maps = make([]byte, 0, len(g.perms)*permMapsSize)
	g.src = make([]int32, 0, len(g.perms)*g.nsrc)
	for _, pi := range g.perms {
		for cls := 0; cls < numClasses; cls++ {
			for b := 0; b < 256; b++ {
				x := uint64(b)
				switch {
				case cls == clsPID && b < n:
					x = uint64(pi[b])
				case cls == clsSet:
					x = permutePayload(expr.KindSet, x, pi)
				}
				g.maps = append(g.maps, byte(x))
			}
		}
		inv := pi.Inverse()
		for _, inst := range r.Insts {
			src := inst.Idx
			if inst.Def.Replicated {
				src = r.procs[inst.Idx].peers[inv[inst.PID]]
			}
			g.src = append(g.src, int32(src))
		}
		slot := 0
		for n, net := range r.Sys.Networks {
			for q := 0; q < r.nets[n].slots; q++ {
				src := q
				if net.Route == RouteByField {
					src = inv[q]
				}
				g.src = append(g.src, int32(slot+src))
			}
			slot += r.nets[n].slots
		}
	}
	return g, nil
}

// Degree is the number of PIDs the group acts on.
func (g *SymGroup) Degree() int { return g.r.Sys.U.NumCaches() }

// Size is the group order, n!.
func (g *SymGroup) Size() int { return len(g.perms) }

// Perm returns the permutation with index i in lexicographic order (0 is
// the identity).
func (g *SymGroup) Perm(i int) Perm { return g.perms[i] }

// Encoder returns a canonicalizer with its own scratch buffers. Encoders
// are cheap; take one per goroutine (they are not safe for concurrent
// use, the group behind them is).
func (g *SymGroup) Encoder() *CanonEncoder {
	return &CanonEncoder{g: g}
}

// CanonEncoder computes a state's canonical key: the lexicographically
// least Runtime.Encode image over every PID permutation. Exactness
// matters twice over — it makes the key a true orbit invariant (permuted
// runs of a whole system reach the same canonical set), and it lets the
// orbit size be counted in the same scan: the permutations achieving the
// minimum form a coset of the stabilizer, so |orbit| = n! / #minima.
//
// It works on vectors (Runtime.AppendVector), never on States: each
// permutation's image is built from the vector's bytes by relocating
// instance blocks and slots and mapping every byte through the
// permutation's map for its class.
type CanonEncoder struct {
	g    *SymGroup
	best []byte
	// hdr, recs and cnt are, per slot of the vector being canonicalized,
	// the offset of its count, the offset of its first record, and its
	// record count.
	hdr, recs, cnt []int
	rec            []byte // an unordered slot's mapped records, unsorted
	sorted         []byte // and sorted, for compare
	vec            []byte // Canonicalize's vector
	sort           msgSorter
}

// Canonicalize returns the canonical key of st, the permutation sigma
// with Encode(Permute(st, sigma)) == key (the lexicographically first
// such permutation, so the choice is deterministic), and the orbit size
// |S_n| / |stabilizer(st)|.
func (e *CanonEncoder) Canonicalize(st *State) (string, Perm, int) {
	e.vec = e.g.r.AppendVector(e.vec[:0], st)
	key, sigma, orbit := e.Canon(nil, e.vec)
	return string(key), e.g.perms[sigma], orbit
}

// Canon appends to dst the canonical key of the state whose vector is
// vec, and returns the index of sigma, the lexicographically first
// permutation whose image has that key, and the orbit size. Each
// permutation's image is compared to the running minimum byte by byte
// without being written, and abandoned at the first byte that differs
// unless it is smaller; that prunes almost all of the n! scan.
func (e *CanonEncoder) Canon(dst, vec []byte) ([]byte, int, int) {
	e.parse(vec)
	minima, sigma := 1, 0
	e.best = e.image(e.best[:0], vec, 0, true)
	for p := 1; p < len(e.g.perms); p++ {
		switch e.compare(vec, p, e.best) {
		case -1:
			e.best = e.image(e.best[:0], vec, p, true)
			sigma = p
			minima = 1
		case 0:
			minima++
		}
	}
	return append(dst, e.best...), sigma, len(e.g.perms) / minima
}

// AppendRep appends the representative vector of vec under the
// permutation with index p: the vector of Permute(decoded vec, perms[p]),
// message order kept. Canon returns the index that makes it the
// representative of the canonical key; it is a separate call because
// only a state not yet visited needs one.
func (e *CanonEncoder) AppendRep(dst, vec []byte, p int) []byte {
	if p == 0 {
		return append(dst, vec...)
	}
	e.parse(vec)
	return e.image(dst, vec, p, false)
}

// appendPermEncoding writes Encode(Permute(st, pi)) through the
// permutation's tables (inv, pi's inverse, is implied by pi).
func (e *CanonEncoder) appendPermEncoding(dst []byte, st *State, pi, _ Perm) []byte {
	p := slices.IndexFunc(e.g.perms, func(q Perm) bool { return slices.Equal(q, pi) })
	e.vec = e.g.r.AppendVector(e.vec[:0], st)
	e.parse(e.vec)
	return e.image(dst, e.vec, p, true)
}

// parse locates every slot of vec.
func (e *CanonEncoder) parse(vec []byte) {
	g := e.g
	e.hdr, e.recs, e.cnt = e.hdr[:0], e.recs[:0], e.cnt[:0]
	pos := g.instOff[len(g.instOff)-1]
	for _, n := range g.slotNet {
		cnt, k := binary.Uvarint(vec[pos:])
		e.hdr = append(e.hdr, pos)
		pos += k + 1
		e.recs = append(e.recs, pos)
		e.cnt = append(e.cnt, int(cnt))
		pos += int(cnt) * len(g.recCls[n])
	}
}

// image appends to dst the image of the parsed vector vec under the
// permutation with index p: the key of Permute(st, perms[p]) when sorted,
// its vector otherwise.
func (e *CanonEncoder) image(dst, vec []byte, p int, sorted bool) []byte {
	g := e.g
	if p == 0 {
		// The identity: vec itself, unordered slots sorted in place.
		start := len(dst)
		dst = append(dst, vec...)
		for q, n := range g.slotNet {
			if sorted && e.sortedSlot(n, int32(q)) {
				recs := dst[start+e.recs[q] : start+e.recs[q]+e.cnt[q]*len(g.recCls[n])]
				e.rec = append(e.rec[:0], recs...)
				e.sort.appendSorted(recs[:0], e.rec, len(g.recCls[n]))
			}
		}
		return dst
	}
	tab := g.maps[p*permMapsSize : (p+1)*permMapsSize]
	src := g.src[p*g.nsrc : (p+1)*g.nsrc]
	ni := len(g.instOff) - 1
	for i := 0; i < ni; i++ {
		from := g.instOff[src[i]]
		cls := g.instCls[g.instOff[i]:g.instOff[i+1]]
		dst = mapRecords(dst, vec[from:from+len(cls)], cls, tab)
	}
	for q, n := range g.slotNet {
		s := src[ni+q]
		cls := g.recCls[n]
		recs := vec[e.recs[s] : e.recs[s]+e.cnt[s]*len(cls)]
		dst = append(dst, vec[e.hdr[s]:e.recs[s]]...)
		if sorted && e.sortedSlot(n, s) {
			e.rec = mapRecords(e.rec[:0], recs, cls, tab)
			dst = e.sort.appendSorted(dst, e.rec, len(cls))
		} else {
			dst = mapRecords(dst, recs, cls, tab)
		}
	}
	return dst
}

// sortedSlot reports whether slot s, of network n, sorts its records in
// a key.
func (e *CanonEncoder) sortedSlot(n int, s int32) bool {
	return e.cnt[s] > 1 && e.g.r.Sys.Networks[n].Kind == Unordered
}

// compare returns the sign of the comparison of the key image of the
// parsed vector vec under the permutation with index p (image with sorted
// set) against best, a key image of the same vector. It reads the image
// byte by byte as it maps it and returns at the first difference.
func (e *CanonEncoder) compare(vec []byte, p int, best []byte) int {
	g := e.g
	tab := g.maps[p*permMapsSize : (p+1)*permMapsSize]
	src := g.src[p*g.nsrc : (p+1)*g.nsrc]
	ni := len(g.instOff) - 1
	for i := 0; i < ni; i++ {
		from := g.instOff[src[i]]
		lo, hi := g.instOff[i], g.instOff[i+1]
		if c := compareMapped(vec[from:from+hi-lo], g.instCls[lo:hi], tab, best[lo:hi]); c != 0 {
			return c
		}
	}
	o := g.instOff[ni]
	for q, n := range g.slotNet {
		s := src[ni+q]
		hdr := vec[e.hdr[s]:e.recs[s]]
		if c := bytes.Compare(hdr, best[o:o+len(hdr)]); c != 0 {
			return c
		}
		o += len(hdr)
		cls := g.recCls[n]
		recs := vec[e.recs[s] : e.recs[s]+e.cnt[s]*len(cls)]
		ref := best[o : o+len(recs)]
		o += len(recs)
		if e.sortedSlot(n, s) {
			e.rec = mapRecords(e.rec[:0], recs, cls, tab)
			e.sorted = e.sort.appendSorted(e.sorted[:0], e.rec, len(cls))
			if c := bytes.Compare(e.sorted, ref); c != 0 {
				return c
			}
			continue
		}
		for len(recs) > 0 {
			if c := compareMapped(recs[:len(cls)], cls, tab, ref[:len(cls)]); c != 0 {
				return c
			}
			recs, ref = recs[len(cls):], ref[len(cls):]
		}
	}
	return 0
}

// compareMapped compares b, bytes of the classes cls mapped through tab,
// with ref, which has b's length.
func compareMapped(b, cls, tab, ref []byte) int {
	ref = ref[:len(b)]
	cls = cls[:len(b)]
	for j, x := range b {
		if m := tab[int(cls[j])<<8|int(x)]; m != ref[j] {
			if m < ref[j] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// mapRecords appends recs, records of the byte classes cls, with every
// byte mapped through tab.
func mapRecords(dst, recs, cls []byte, tab []byte) []byte {
	for len(recs) > 0 {
		for j, b := range recs[:len(cls)] {
			dst = append(dst, tab[int(cls[j])<<8|int(b)])
		}
		recs = recs[len(cls):]
	}
	return dst
}
