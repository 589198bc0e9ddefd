package efsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"transit/internal/expr"
)

// Instance is one running process: a definition plus, for replicated
// definitions, its PID.
type Instance struct {
	Def *ProcDef
	// Idx is the instance's global index in the runtime.
	Idx int
	// PID is the cache identity for replicated instances, 0 for
	// singletons (whose Self variable is never meaningful).
	PID int
}

// Name renders "Dir" or "Cache1".
func (in *Instance) Name() string {
	if in.Def.Replicated {
		return fmt.Sprintf("%s%d", in.Def.Name, in.PID)
	}
	return in.Def.Name
}

// Msg is a message value: field values in MessageType order.
type Msg []expr.Value

// ProcState is one instance's local state.
type ProcState struct {
	Ctl  int // ordinal in Def.States
	Vars []expr.Value
}

// State is a global protocol state: per-instance local states and
// per-network, per-receiver-slot pending messages.
type State struct {
	Procs []ProcState
	// Nets is indexed [network][receiver slot][message]. Static routes
	// have one slot; by-field routes have one slot per PID.
	Nets [][][]Msg
}

// Runtime instantiates a System and implements its execution semantics.
// A Runtime is safe for concurrent use: its tables are built once by
// NewRuntime and only read afterwards, and each call takes its evaluation
// scratch from a pool.
type Runtime struct {
	Sys    *System
	Insts  []*Instance
	byDef  map[*ProcDef][]int
	netIdx map[*Network]int
	// procs holds each instance's definition tables (shared by the
	// instances of one definition); nets each network's.
	procs []*procTable
	nets  []netTable
	// info holds the precomputed indices of every indexed transition.
	info    map[*Transition]*transInfo
	scratch sync.Pool
}

// procTable is a definition's transition index and key layout.
type procTable struct {
	// trans groups the transitions by (control ordinal, event ordinal) at
	// trans[ctl*numEv+ev]. Event ordinals number the definition's
	// triggers first (a repeated trigger name shares its first ordinal),
	// then the system's networks.
	trans  [][]*transInfo
	numEv  int
	trigEv []int // event ordinal of each entry of Def.Triggers
	// ctlW and varW are the key widths in bytes of the control ordinal
	// and of each process variable.
	ctlW int
	varW []int
	// peers lists the definition's instances; Permute and the
	// canonicalizer relocate replicated local states through it.
	peers []int
}

// netTable is a network's message layout.
type netTable struct {
	// fieldW is the key width of each field; recW their sum.
	fieldW []int
	recW   int
}

// transInfo is a transition with its names resolved to indices.
type transInfo struct {
	t      *Transition
	to     int   // ordinal of t.To
	upd    []int // variable index of each update
	fields []string
	sends  []sendInfo
}

type sendInfo struct {
	net    int
	dest   int   // index of the routing field, -1 for static routes
	fields []int // message field index of each SendField
}

// scratch is one goroutine's reusable evaluation state.
type scratch struct {
	env expr.Env
	// envInst is the instance whose variables env holds (-1: none),
	// envDef the definition whose variable names it holds.
	envInst int
	envDef  *ProcDef
	vals    []expr.Value
	owned   []bool
	sort    msgSorter
}

// NewRuntime validates the system and builds its instances: one per PID
// for each replicated definition, one for each singleton.
func NewRuntime(sys *System) (*Runtime, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	r := &Runtime{
		Sys:    sys,
		byDef:  make(map[*ProcDef][]int),
		netIdx: make(map[*Network]int),
		nets:   make([]netTable, len(sys.Networks)),
		info:   make(map[*Transition]*transInfo),
	}
	netByName := make(map[string]int, len(sys.Networks))
	// fields shares the scope names of a network's fields among the
	// transitions binding the same message variable.
	type netVar struct {
		net    int
		msgVar string
	}
	fields := map[netVar][]string{}
	for i, n := range sys.Networks {
		r.netIdx[n] = i
		netByName[n.Name] = i
		nt := &r.nets[i]
		for _, f := range n.Msg.Fields {
			w := keyWidth(sys.U, f.T)
			nt.fieldW = append(nt.fieldW, w)
			nt.recW += w
		}
	}
	for _, d := range sys.Defs {
		n := 1
		if d.Replicated {
			n = sys.U.NumCaches()
		}
		for pid := 0; pid < n; pid++ {
			inst := &Instance{Def: d, Idx: len(r.Insts), PID: pid}
			r.Insts = append(r.Insts, inst)
			r.byDef[d] = append(r.byDef[d], inst.Idx)
		}
		pt := &procTable{numEv: len(d.Triggers) + len(sys.Networks), peers: r.byDef[d]}
		first := map[string]int{}
		for i, trig := range d.Triggers {
			if _, ok := first[trig]; !ok {
				first[trig] = i
			}
			pt.trigEv = append(pt.trigEv, first[trig])
		}
		pt.ctlW = keyWidth(sys.U, expr.EnumOf(d.States))
		for _, v := range d.Vars {
			pt.varW = append(pt.varW, keyWidth(sys.U, v.VT))
		}
		pt.trans = make([][]*transInfo, len(d.States.Values)*pt.numEv)
		for _, t := range d.Transitions {
			ev, ok := -1, false
			if t.Event.IsTrigger() {
				ev, ok = first[t.Event.Trigger]
			} else if ev, ok = netByName[t.Event.Net.Name]; ok {
				ev += len(d.Triggers)
			}
			if !ok {
				continue // an event this definition never receives
			}
			var names []string
			if !t.Event.IsTrigger() {
				nv := netVar{ev - len(d.Triggers), t.Event.MsgVar}
				if names = fields[nv]; names == nil {
					names = fieldNames(sys.Networks[nv.net], nv.msgVar)
					fields[nv] = names
				}
			}
			ti := r.newTransInfo(d, t, names)
			r.info[t] = ti
			at := d.States.Ord(t.From)*pt.numEv + ev
			pt.trans[at] = append(pt.trans[at], ti)
		}
		for range r.byDef[d] {
			r.procs = append(r.procs, pt)
		}
	}
	for _, n := range sys.Networks {
		if len(r.byDef[n.Receiver]) == 0 {
			return nil, fmt.Errorf("efsm: network %s receiver %s has no instances", n.Name, n.Receiver.Name)
		}
	}
	return r, nil
}

// keyWidth is the number of low payload bytes that distinguish the values
// of a type in a state key: 1 for Bool and PID, enough for the largest
// ordinal of an Enum, ⌈n/8⌉ for a Set over n PIDs, ⌈W/8⌉ for a W-bit Int
// (its sign-extended high bytes follow from the low ones).
func keyWidth(u *expr.Universe, t expr.Type) int {
	bytesFor := func(bits int) int { return max(1, (bits+7)/8) }
	switch t.Kind {
	case expr.KindInt:
		return bytesFor(int(u.IntWidth()))
	case expr.KindSet:
		return bytesFor(u.NumCaches())
	case expr.KindEnum:
		return bytesFor(bits.Len(uint(len(t.Enum.Values) - 1)))
	}
	return bytesFor(bits.Len(uint(u.NumCaches() - 1)))
}

// newTransInfo resolves a transition's names; fields are the scope names
// of the received message's fields (nil for triggers).
func (r *Runtime) newTransInfo(d *ProcDef, t *Transition, fields []string) *transInfo {
	ti := &transInfo{t: t, to: d.States.Ord(t.To), fields: fields}
	for _, u := range t.Updates {
		ti.upd = append(ti.upd, d.VarIndex(u.Var))
	}
	for _, snd := range t.Sends {
		si := sendInfo{net: r.netIdx[snd.Net], dest: -1}
		if snd.Net.Route == RouteByField {
			si.dest = snd.Net.Msg.FieldIndex(snd.Net.DestField)
		}
		for _, fa := range snd.Fields {
			si.fields = append(si.fields, snd.Net.Msg.FieldIndex(fa.Field))
		}
		ti.sends = append(ti.sends, si)
	}
	return ti
}

// fieldNames returns the scope names of a network's fields under msgVar.
func fieldNames(net *Network, msgVar string) []string {
	fields := make([]string, len(net.Msg.Fields))
	for i, f := range net.Msg.Fields {
		fields[i] = msgVar + "." + f.Name
	}
	return fields
}

func (r *Runtime) getScratch() *scratch {
	sc, _ := r.scratch.Get().(*scratch)
	if sc == nil {
		sc = &scratch{env: expr.Env{}, owned: make([]bool, len(r.Sys.Networks))}
	}
	sc.envInst = -1
	clear(sc.owned)
	return sc
}

func (r *Runtime) putScratch(sc *scratch) { r.scratch.Put(sc) }

// procEnv binds sc.env to an instance's pre-state scope: its variables
// and Self. Message fields are bound per candidate by bindMsg.
func (r *Runtime) procEnv(sc *scratch, st *State, inst *Instance) expr.Env {
	if sc.envInst == inst.Idx {
		return sc.env
	}
	d := inst.Def
	if sc.envDef != d {
		clear(sc.env)
		sc.envDef = d
	}
	for j, v := range d.Vars {
		sc.env[v.Name] = st.Procs[inst.Idx].Vars[j]
	}
	sc.env[SelfVar] = expr.PIDVal(inst.PID)
	sc.envInst = inst.Idx
	return sc.env
}

func bindMsg(env expr.Env, fields []string, msg Msg) {
	for j, name := range fields {
		env[name] = msg[j]
	}
}

// Initial builds the initial global state.
func (r *Runtime) Initial() *State {
	st := &State{
		Procs: make([]ProcState, len(r.Insts)),
		Nets:  make([][][]Msg, len(r.Sys.Networks)),
	}
	for i, inst := range r.Insts {
		d := inst.Def
		vars := make([]expr.Value, len(d.Vars))
		for j, v := range d.Vars {
			if init, ok := d.InitVals[v.Name]; ok {
				vars[j] = init
			} else {
				vars[j] = expr.ZeroOf(v.VT)
			}
		}
		st.Procs[i] = ProcState{Ctl: d.States.Ord(d.Init), Vars: vars}
	}
	for n, net := range r.Sys.Networks {
		slots := 1
		if net.Route == RouteByField {
			slots = r.Sys.U.NumCaches()
		}
		st.Nets[n] = make([][]Msg, slots)
	}
	return st
}

// Clone deep-copies a state. A State is immutable once built — Apply
// shares the parts of its input it does not change with the successor —
// so Clone is the way to get a state that may be modified.
func (st *State) Clone() *State {
	out := &State{
		Procs: make([]ProcState, len(st.Procs)),
		Nets:  make([][][]Msg, len(st.Nets)),
	}
	for i, p := range st.Procs {
		out.Procs[i] = ProcState{Ctl: p.Ctl, Vars: append([]expr.Value(nil), p.Vars...)}
	}
	for n, slots := range st.Nets {
		out.Nets[n] = make([][]Msg, len(slots))
		for s, msgs := range slots {
			out.Nets[n][s] = make([]Msg, len(msgs))
			for m, msg := range msgs {
				out.Nets[n][s][m] = append(Msg(nil), msg...)
			}
		}
	}
	return out
}

// Action is one enabled step: an instance handling a trigger or consuming
// a specific pending message via a specific transition.
type Action struct {
	Inst  int
	Trans *Transition
	// Net/Slot/Pos locate the consumed message; Net < 0 for triggers.
	Net, Slot, Pos int
	Msg            Msg
}

// ProblemKind classifies execution-semantics violations detected while
// enumerating actions.
type ProblemKind int

const (
	// UnexpectedMessage: a deliverable message has no matching transition
	// (and no stall rule) in the receiver's current state — the error the
	// paper's case studies repeatedly hit for underspecified protocols.
	UnexpectedMessage ProblemKind = iota
	// NonDeterministic: more than one guard of a (state, event) group is
	// simultaneously true, violating the §5.2 determinism requirement.
	NonDeterministic
)

func (k ProblemKind) String() string {
	if k == UnexpectedMessage {
		return "unexpected message"
	}
	return "nondeterministic guards"
}

// Problem is a semantics violation at a state.
type Problem struct {
	Kind   ProblemKind
	Inst   int
	Event  Event
	Msg    Msg
	Detail string
}

// Actions enumerates the enabled actions of a state and any semantics
// problems. For ordered networks only the head of each slot is
// deliverable; for unordered networks every distinct pending message is.
func (r *Runtime) Actions(st *State) ([]Action, []Problem) {
	var acts []Action
	var probs []Problem
	sc := r.getScratch()
	defer r.putScratch(sc)

	// External triggers.
	for _, inst := range r.Insts {
		pt := r.procs[inst.Idx]
		for ti, trig := range inst.Def.Triggers {
			t, prob := r.match(sc, st, inst, pt.trigEv[ti], Event{Trigger: trig}, nil)
			if prob != nil {
				// Triggers with ambiguous guards are still an error;
				// absent transitions are not (the environment simply
				// cannot fire the trigger here).
				if prob.Kind == NonDeterministic {
					probs = append(probs, *prob)
				}
				continue
			}
			if t == nil || t.Defer {
				continue
			}
			acts = append(acts, Action{Inst: inst.Idx, Trans: t, Net: -1})
		}
	}

	// Message deliveries.
	for n, net := range r.Sys.Networks {
		for slot, msgs := range st.Nets[n] {
			if len(msgs) == 0 {
				continue
			}
			limit := len(msgs)
			if net.Kind == Ordered {
				limit = 1
			}
			inst := r.Insts[r.receiverOf(net, slot)]
			ev := Event{Net: net, MsgVar: "Msg"}
			evOrd := len(inst.Def.Triggers) + n
		next:
			for pos := 0; pos < limit; pos++ {
				msg := msgs[pos]
				for _, earlier := range msgs[:pos] {
					if slices.Equal(earlier, msg) {
						continue next // identical pending messages branch identically
					}
				}
				t, prob := r.match(sc, st, inst, evOrd, ev, msg)
				if prob != nil {
					probs = append(probs, *prob)
					continue
				}
				if t == nil || t.Defer {
					continue // stalled
				}
				acts = append(acts, Action{Inst: inst.Idx, Trans: t, Net: n, Slot: slot, Pos: pos, Msg: msg})
			}
		}
	}
	return acts, probs
}

// receiverOf resolves a network slot to an instance index.
func (r *Runtime) receiverOf(net *Network, slot int) int {
	ids := r.byDef[net.Receiver]
	if net.Route == RouteStatic {
		return ids[0]
	}
	return ids[slot]
}

// match finds the unique enabled transition for (instance state, event),
// or a stall, or a problem; evOrd is the event's ordinal in the
// instance's transition table. For message events the candidate
// transitions' own MsgVar binds the fields.
func (r *Runtime) match(sc *scratch, st *State, inst *Instance, evOrd int, ev Event, msg Msg) (*Transition, *Problem) {
	d := inst.Def
	pt := r.procs[inst.Idx]
	ctl := st.Procs[inst.Idx].Ctl
	cands := pt.trans[ctl*pt.numEv+evOrd]
	if len(cands) == 0 {
		if ev.IsTrigger() {
			return nil, nil
		}
		return nil, &Problem{
			Kind: UnexpectedMessage, Inst: inst.Idx, Event: ev, Msg: msg,
			Detail: fmt.Sprintf("%s in state %s cannot handle %s message %s",
				inst.Name(), d.States.Values[ctl], ev.Net.Name, r.FormatMsg(ev.Net, msg)),
		}
	}
	var hit *Transition
	var catchAllDefer *Transition
	for _, c := range cands {
		t := c.t
		if t.Defer && t.Guard == nil {
			// An unguarded stall rule is a lowest-priority catch-all:
			// it applies only when no guarded transition matches.
			catchAllDefer = t
			continue
		}
		if t.Guard != nil {
			env := r.procEnv(sc, st, inst)
			bindMsg(env, c.fields, msg)
			if !t.Guard.Eval(r.Sys.U, env).Bool() {
				continue
			}
		}
		if hit != nil {
			return nil, &Problem{
				Kind: NonDeterministic, Inst: inst.Idx, Event: ev, Msg: msg,
				Detail: fmt.Sprintf("%s in state %s: guards %s and %s both enabled",
					inst.Name(), d.States.Values[ctl], hit.GuardString(), t.GuardString()),
			}
		}
		hit = t
	}
	if hit == nil {
		if catchAllDefer != nil {
			return catchAllDefer, nil
		}
		if ev.IsTrigger() {
			return nil, nil
		}
		return nil, &Problem{
			Kind: UnexpectedMessage, Inst: inst.Idx, Event: ev, Msg: msg,
			Detail: fmt.Sprintf("%s in state %s: no guard accepts %s message %s",
				inst.Name(), d.States.Values[ctl], ev.Net.Name, r.FormatMsg(ev.Net, msg)),
		}
	}
	return hit, nil
}

// Apply executes an action, returning the successor state. The successor
// shares every part of st the action leaves unchanged: only the acting
// instance's variables and the network slots it consumes from or sends
// to are copied, so st and every other successor of st stay intact.
func (r *Runtime) Apply(st *State, a Action) *State {
	sc := r.getScratch()
	defer r.putScratch(sc)
	inst := r.Insts[a.Inst]
	ti := r.info[a.Trans]
	if ti == nil {
		// A transition NewRuntime did not index (not reachable through
		// Actions): resolve its names now.
		var fields []string
		if a.Net >= 0 {
			fields = fieldNames(r.Sys.Networks[a.Net], a.Trans.Event.MsgVar)
		}
		ti = r.newTransInfo(inst.Def, a.Trans, fields)
	}
	env := r.procEnv(sc, st, inst)
	if a.Net >= 0 {
		bindMsg(env, ti.fields, a.Msg)
	}
	// Parallel assignment: evaluate all RHS in the pre-state.
	vals := sc.vals[:0]
	for _, u := range a.Trans.Updates {
		vals = append(vals, u.Rhs.Eval(r.Sys.U, env))
	}
	sc.vals = vals

	next := &State{Procs: slices.Clone(st.Procs), Nets: st.Nets}
	ps := &next.Procs[a.Inst]
	if len(vals) > 0 {
		ps.Vars = slices.Clone(ps.Vars)
		for i, v := range vals {
			ps.Vars[ti.upd[i]] = v
		}
	}
	ps.Ctl = ti.to

	// own gives net n a slot array of its own in next.
	ownedAny := false
	own := func(n int) [][]Msg {
		if !ownedAny {
			next.Nets = slices.Clone(st.Nets)
			ownedAny = true
		}
		if !sc.owned[n] {
			next.Nets[n] = slices.Clone(st.Nets[n])
			sc.owned[n] = true
		}
		return next.Nets[n]
	}
	if a.Net >= 0 {
		// Consume the message.
		slots := own(a.Net)
		old := slots[a.Slot]
		rest := make([]Msg, 0, len(old)-1)
		slots[a.Slot] = append(append(rest, old[:a.Pos]...), old[a.Pos+1:]...)
	}
	// Sends: field RHS evaluate in the pre-state scope as well.
	for k, snd := range a.Trans.Sends {
		si := ti.sends[k]
		msg := make(Msg, len(snd.Net.Msg.Fields))
		for j, f := range snd.Net.Msg.Fields {
			msg[j] = expr.ZeroOf(f.T)
		}
		for j, fa := range snd.Fields {
			msg[si.fields[j]] = fa.Rhs.Eval(r.Sys.U, env)
		}
		slots := own(si.net)
		if snd.TargetSet != nil {
			// Multicast: one copy per member, routed to that member.
			mask := snd.TargetSet.Eval(r.Sys.U, env).Set()
			for pid := 0; pid < r.Sys.U.NumCaches(); pid++ {
				if mask&(1<<uint(pid)) == 0 {
					continue
				}
				copyMsg := slices.Clone(msg)
				copyMsg[si.dest] = expr.PIDVal(pid)
				slots[pid] = appendExact(slots[pid], copyMsg)
			}
			continue
		}
		slot := 0
		if si.dest >= 0 {
			slot = msg[si.dest].PID()
		}
		slots[slot] = appendExact(slots[slot], msg)
	}
	return next
}

// appendExact returns a new exact-capacity slice holding msgs and m, so
// that successors appending to the same parent slot never share an array.
func appendExact(msgs []Msg, m Msg) []Msg {
	out := make([]Msg, len(msgs)+1)
	copy(out, msgs)
	out[len(msgs)] = m
	return out
}

// Encode renders a state as its key: per instance the control ordinal and
// each variable's payload, each as its low keyWidth bytes, then per
// network slot the message count as a uvarint, a '|' and the messages'
// payload bytes, with unordered slots sorted into canonical order. Within
// one runtime every field sits at a fixed width and the counts are
// prefix-free, so the key is injective.
func (r *Runtime) Encode(st *State) string {
	return string(r.AppendEncode(nil, st))
}

// AppendEncode appends Encode(st) to dst.
func (r *Runtime) AppendEncode(dst []byte, st *State) []byte {
	sc := r.getScratch()
	defer r.putScratch(sc)
	return r.appendKey(dst, st, nil, nil, &sc.sort)
}

// appendKey appends the key of Permute(st, pi) without building the
// permuted state (pi and its inverse inv both nil: the key of st).
func (r *Runtime) appendKey(dst []byte, st *State, pi, inv Perm, ms *msgSorter) []byte {
	for i := range r.Insts {
		dst = r.appendProc(dst, st, i, pi, inv)
	}
	for n, slots := range st.Nets {
		for q := range slots {
			dst = r.appendSlot(dst, st, n, q, pi, inv, ms)
		}
	}
	return dst
}

// appendProc appends instance i's part of the key of Permute(st, pi): a
// replicated instance reads the local state of the instance with PID
// inv[PID], values mapped through pi.
func (r *Runtime) appendProc(dst []byte, st *State, i int, pi, inv Perm) []byte {
	src := i
	inst := r.Insts[i]
	pt := r.procs[i]
	if inv != nil && inst.Def.Replicated {
		src = pt.peers[inv[inst.PID]]
	}
	p := st.Procs[src]
	dst = appendLow(dst, uint64(p.Ctl), pt.ctlW)
	for j, v := range p.Vars {
		dst = appendValue(dst, v, pt.varW[j], pi)
	}
	return dst
}

// appendSlot appends receiver slot q of network n's part of the key of
// Permute(st, pi): by-field slots relocate through inv.
func (r *Runtime) appendSlot(dst []byte, st *State, n, q int, pi, inv Perm, ms *msgSorter) []byte {
	net := r.Sys.Networks[n]
	src := q
	if inv != nil && net.Route == RouteByField {
		src = inv[q]
	}
	msgs := st.Nets[n][src]
	dst = binary.AppendUvarint(dst, uint64(len(msgs)))
	dst = append(dst, '|')
	nt := &r.nets[n]
	if net.Kind == Ordered || len(msgs) < 2 {
		for _, m := range msgs {
			dst = appendMsg(dst, m, nt.fieldW, pi)
		}
		return dst
	}
	return ms.appendSorted(dst, msgs, nt.fieldW, nt.recW, pi)
}

// appendValue appends the low w bytes of v's (pi-permuted) payload, least
// significant first.
func appendValue(dst []byte, v expr.Value, w int, pi Perm) []byte {
	x := v.Payload()
	if pi != nil {
		x = permutePayload(v.Type().Kind, x, pi)
	}
	return appendLow(dst, x, w)
}

// appendLow appends the low w bytes of x, least significant first.
func appendLow(dst []byte, x uint64, w int) []byte {
	for ; w > 0; w-- {
		dst = append(dst, byte(x))
		x >>= 8
	}
	return dst
}

func appendMsg(dst []byte, m Msg, w []int, pi Perm) []byte {
	for j, v := range m {
		dst = appendValue(dst, v, w[j], pi)
	}
	return dst
}

// msgSorter sorts an unordered slot's fixed-width message records in
// reusable buffers.
type msgSorter struct {
	rec  []byte
	idx  []int
	recW int
	cmp  func(a, b int) int
}

// appendSorted appends the records of msgs (width recW each) in byte
// order.
func (ms *msgSorter) appendSorted(dst []byte, msgs []Msg, w []int, recW int, pi Perm) []byte {
	ms.rec, ms.idx, ms.recW = ms.rec[:0], ms.idx[:0], recW
	for i, m := range msgs {
		ms.rec = appendMsg(ms.rec, m, w, pi)
		ms.idx = append(ms.idx, i)
	}
	if ms.cmp == nil {
		ms.cmp = ms.compare
	}
	slices.SortFunc(ms.idx, ms.cmp)
	for _, i := range ms.idx {
		dst = append(dst, ms.rec[i*recW:(i+1)*recW]...)
	}
	return dst
}

func (ms *msgSorter) compare(a, b int) int {
	w := ms.recW
	return bytes.Compare(ms.rec[a*w:a*w+w], ms.rec[b*w:b*w+w])
}

// FormatMsg renders a message with field names.
func (r *Runtime) FormatMsg(net *Network, msg Msg) string {
	parts := make([]string, len(net.Msg.Fields))
	for i, f := range net.Msg.Fields {
		parts[i] = fmt.Sprintf("%s:%s", f.Name, msg[i])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// FormatAction renders an action for counterexample traces.
func (r *Runtime) FormatAction(a Action) string {
	inst := r.Insts[a.Inst]
	var evt string
	if a.Net < 0 {
		evt = a.Trans.Event.Trigger
	} else {
		net := r.Sys.Networks[a.Net]
		evt = fmt.Sprintf("recv %s %s", net.Name, r.FormatMsg(net, a.Msg))
	}
	return fmt.Sprintf("%s: %s [%s -> %s]", inst.Name(), evt, a.Trans.From, a.Trans.To)
}

// FormatState renders a state for counterexample traces.
func (r *Runtime) FormatState(st *State) string {
	var sb strings.Builder
	for i, inst := range r.Insts {
		p := st.Procs[i]
		fmt.Fprintf(&sb, "%s{%s", inst.Name(), inst.Def.States.Values[p.Ctl])
		for j, v := range inst.Def.Vars {
			fmt.Fprintf(&sb, " %s=%s", v.Name, p.Vars[j])
		}
		sb.WriteString("} ")
	}
	for n, slots := range st.Nets {
		net := r.Sys.Networks[n]
		for slot, msgs := range slots {
			for _, m := range msgs {
				fmt.Fprintf(&sb, "%s[%d]%s ", net.Name, slot, r.FormatMsg(net, m))
			}
		}
	}
	return strings.TrimSpace(sb.String())
}

// InstancesOf returns the instance indices of a definition.
func (r *Runtime) InstancesOf(d *ProcDef) []int { return r.byDef[d] }

// VarOf reads a process variable of an instance in a state.
func (r *Runtime) VarOf(st *State, instIdx int, name string) expr.Value {
	inst := r.Insts[instIdx]
	i := inst.Def.VarIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("efsm: instance %s has no variable %s", inst.Name(), name))
	}
	return st.Procs[instIdx].Vars[i]
}

// CtlOf reads an instance's control-state name in a state.
func (r *Runtime) CtlOf(st *State, instIdx int) string {
	inst := r.Insts[instIdx]
	return inst.Def.States.Values[st.Procs[instIdx].Ctl]
}
