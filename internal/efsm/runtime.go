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
	// instW is the byte length of a vector's instance blocks, instOff
	// each instance's block offset.
	instW   int
	instOff []int
	// numRegs is the register-file size every compiled program fits:
	// the most variables of a definition, Self, and the most fields of a
	// message type.
	numRegs int
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
	// and of each process variable; varOff is each variable's offset in
	// the instance block (the control ordinal is at 0).
	ctlW   int
	varW   []int
	varOff []int
	// peers lists the definition's instances; Permute and the
	// canonicalizer relocate replicated local states through it.
	peers []int
}

// netTable is a network's message layout.
type netTable struct {
	// fieldW is the key width of each field, fieldOff its offset in a
	// message record; recW their sum.
	fieldW   []int
	fieldOff []int
	recW     int
	// slots is the number of receiver slots: one per PID for a by-field
	// route, one otherwise.
	slots int
}

// transInfo is a transition with its names resolved to indices and its
// expressions compiled over its definition's register layout: variables
// at 0..k-1, Self at k, the received message's fields from k+1.
type transInfo struct {
	t     *Transition
	to    int // ordinal of t.To
	guard expr.Prog
	upd   []int       // variable index of each update
	rhs   []expr.Prog // each update's right-hand side
	sends []sendInfo
}

type sendInfo struct {
	net    int
	dest   int         // index of the routing field, -1 for static routes
	fields []int       // message field index of each SendField
	rhs    []expr.Prog // each SendField's right-hand side
	// target is the multicast's member set, when multicast is set.
	target    expr.Prog
	multicast bool
}

// scratch is one goroutine's reusable evaluation state.
type scratch struct {
	// regs is the register file; regInst is the instance whose variables
	// and Self it holds (-1: none).
	regs    []expr.Value
	regInst int
	stack   []expr.Value
	vals    []expr.Value
	// recs holds the records an action sends, sent where each goes.
	recs []byte
	sent []sentRec
	sort msgSorter
}

// sentRec places the record at recs[off:] in receiver slot slot of
// network net.
type sentRec struct{ net, slot, off int }

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
	maxFields := 0
	for i, n := range sys.Networks {
		r.netIdx[n] = i
		netByName[n.Name] = i
		nt := &r.nets[i]
		nt.slots = 1
		if n.Route == RouteByField {
			nt.slots = sys.U.NumCaches()
		}
		for _, f := range n.Msg.Fields {
			w := keyWidth(sys.U, f.T)
			nt.fieldW = append(nt.fieldW, w)
			nt.fieldOff = append(nt.fieldOff, nt.recW)
			nt.recW += w
		}
		maxFields = max(maxFields, len(n.Msg.Fields))
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
		blockW := pt.ctlW
		for _, v := range d.Vars {
			pt.varOff = append(pt.varOff, blockW)
			pt.varW = append(pt.varW, keyWidth(sys.U, v.VT))
			blockW += pt.varW[len(pt.varW)-1]
		}
		for range n {
			r.instOff = append(r.instOff, r.instW)
			r.instW += blockW
		}
		r.numRegs = max(r.numRegs, len(d.Vars)+1+maxFields)
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
			ti := r.newTransInfo(d, t)
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

// newTransInfo resolves a transition's names and compiles its guard,
// update and send expressions over d's register layout.
func (r *Runtime) newTransInfo(d *ProcDef, t *Transition) *transInfo {
	k := len(d.Vars)
	// slot resolves a scope name the way the scope binds it: a message
	// field shadows Self, which shadows a process variable.
	slot := func(name string) (int, expr.Type, bool) {
		if net := t.Event.Net; net != nil {
			for j := len(net.Msg.Fields) - 1; j >= 0; j-- {
				if f := net.Msg.Fields[j]; t.Event.MsgVar+"."+f.Name == name {
					return k + 1 + j, f.T, true
				}
			}
		}
		if name == SelfVar {
			return k, expr.PIDType, true
		}
		for j := k - 1; j >= 0; j-- {
			if d.Vars[j].Name == name {
				return j, d.Vars[j].VT, true
			}
		}
		return 0, expr.Type{}, false
	}
	ti := &transInfo{t: t, to: d.States.Ord(t.To)}
	if t.Guard != nil {
		ti.guard = expr.Compile(t.Guard, slot)
	}
	for _, u := range t.Updates {
		ti.upd = append(ti.upd, d.VarIndex(u.Var))
		ti.rhs = append(ti.rhs, expr.Compile(u.Rhs, slot))
	}
	for _, snd := range t.Sends {
		si := sendInfo{net: r.netIdx[snd.Net], dest: -1, multicast: snd.TargetSet != nil}
		if snd.Net.Route == RouteByField {
			si.dest = snd.Net.Msg.FieldIndex(snd.Net.DestField)
		}
		for _, fa := range snd.Fields {
			si.fields = append(si.fields, snd.Net.Msg.FieldIndex(fa.Field))
			si.rhs = append(si.rhs, expr.Compile(fa.Rhs, slot))
		}
		if si.multicast {
			si.target = expr.Compile(snd.TargetSet, slot)
		}
		ti.sends = append(ti.sends, si)
	}
	return ti
}

func (r *Runtime) getScratch() *scratch {
	sc, _ := r.scratch.Get().(*scratch)
	if sc == nil {
		sc = &scratch{regs: make([]expr.Value, r.numRegs)}
	}
	sc.regInst = -1
	return sc
}

func (r *Runtime) putScratch(sc *scratch) { r.scratch.Put(sc) }

// loadProc loads an instance's pre-state variables and Self into the
// registers. Message fields are loaded per message by loadMsg.
func (r *Runtime) loadProc(sc *scratch, st *State, inst *Instance) {
	if sc.regInst == inst.Idx {
		return
	}
	k := copy(sc.regs[:len(inst.Def.Vars)], st.Procs[inst.Idx].Vars)
	sc.regs[k] = expr.PIDVal(inst.PID)
	sc.regInst = inst.Idx
}

// loadMsg loads a received message's fields into the registers after
// inst's variables and Self.
func loadMsg(sc *scratch, inst *Instance, msg Msg) {
	copy(sc.regs[len(inst.Def.Vars)+1:], msg)
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
	for n := range st.Nets {
		st.Nets[n] = make([][]Msg, r.nets[n].slots)
	}
	return st
}

// Clone deep-copies a state.
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
// An action's Msg shares st's storage.
func (r *Runtime) Actions(st *State) ([]Action, []Problem) {
	return r.AppendActions(nil, st)
}

// AppendActions appends the enabled actions of st to dst and returns them
// with st's semantics problems, as Actions does.
func (r *Runtime) AppendActions(dst []Action, st *State) ([]Action, []Problem) {
	acts := dst
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
	loaded := false
	for _, c := range cands {
		t := c.t
		if t.Defer && t.Guard == nil {
			// An unguarded stall rule is a lowest-priority catch-all:
			// it applies only when no guarded transition matches.
			catchAllDefer = t
			continue
		}
		if t.Guard != nil {
			if !loaded {
				r.loadProc(sc, st, inst)
				loadMsg(sc, inst, msg)
				loaded = true
			}
			if !c.guard.Eval(r.Sys.U, sc.regs, &sc.stack).Bool() {
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

// Apply executes an action, returning the successor state: st's vector
// advanced by AppendSuccessor and decoded into a fresh State, which shares
// no storage with st.
func (r *Runtime) Apply(st *State, a Action) *State {
	next := &State{}
	r.DecodeInto(next, r.AppendSuccessor(nil, r.AppendVector(nil, st), st, a))
	return next
}

// AppendSuccessor appends to dst the vector of the state that action a
// leads to from the state whose vector is vec; st is vec decoded and a one
// of its Actions. It builds no State: the compiled guard, update and send
// programs read st's acting instance and a's message from a register file,
// and the successor is vec patched in place. The instance blocks are
// copied with the acting instance's control ordinal and updated variables
// overwritten at their fixed offsets. The sends are evaluated, in the
// pre-state like the updates, into fixed-width records in send order (a
// multicast makes one copy per member, in ascending PID order, with the
// routing field set per copy). Then every slot the action neither consumes
// from nor sends to is copied byte for byte, and a touched slot is
// rewritten as its new count, '|', the parent's records less the one
// consumed at a.Pos, and the new records in send order. Keeping storage
// order is what keeps the successor's Actions, and so the action indices
// that traces replay, those of the decoded state.
func (r *Runtime) AppendSuccessor(dst, vec []byte, st *State, a Action) []byte {
	ti := r.info[a.Trans]
	inst := r.Insts[a.Inst]
	if ti == nil {
		panic(fmt.Sprintf("efsm: %s: transition (%s, %s) -> %s is not indexed by this runtime",
			inst.Name(), a.Trans.From, a.Trans.Event, a.Trans.To))
	}
	sc := r.getScratch()
	defer r.putScratch(sc)
	u := r.Sys.U
	r.loadProc(sc, st, inst)
	if a.Net >= 0 {
		loadMsg(sc, inst, a.Msg)
	}
	// Parallel assignment: evaluate all RHS in the pre-state.
	vals := sc.vals[:0]
	for _, p := range ti.rhs {
		vals = append(vals, p.Eval(u, sc.regs, &sc.stack))
	}
	sc.vals = vals
	// Sends: field RHS evaluate in the pre-state scope as well; unset
	// fields keep their zero value, whose payload is 0.
	recs, sent := sc.recs[:0], sc.sent[:0]
	for _, si := range ti.sends {
		nt := &r.nets[si.net]
		off := len(recs)
		recs = append(recs, make([]byte, nt.recW)...)
		slot := 0
		for j, p := range si.rhs {
			v := p.Eval(u, sc.regs, &sc.stack)
			f := si.fields[j]
			putLow(recs[off+nt.fieldOff[f]:], v.Payload(), nt.fieldW[f])
			if f == si.dest {
				slot = v.PID()
			}
		}
		if !si.multicast {
			sent = append(sent, sentRec{si.net, slot, off})
			continue
		}
		// Multicast: one copy of the record at off per member.
		mask := si.target.Eval(u, sc.regs, &sc.stack).Set()
		for pid := 0; pid < u.NumCaches(); pid++ {
			if mask&(1<<uint(pid)) == 0 {
				continue
			}
			c := len(recs)
			recs = append(recs, recs[off:off+nt.recW]...)
			putLow(recs[c+nt.fieldOff[si.dest]:], uint64(pid), nt.fieldW[si.dest])
			sent = append(sent, sentRec{si.net, pid, c})
		}
	}
	sc.recs, sc.sent = recs, sent

	base := len(dst)
	dst = append(dst, vec[:r.instW]...)
	b := base + r.instOff[a.Inst]
	pt := r.procs[a.Inst]
	putLow(dst[b:], uint64(ti.to), pt.ctlW)
	for i, v := range vals {
		j := ti.upd[i]
		putLow(dst[b+pt.varOff[j]:], v.Payload(), pt.varW[j])
	}

	// Copy the slots between touched ones verbatim, from vec[from:].
	from, pos := r.instW, r.instW
	left := len(sent)
	if a.Net >= 0 {
		left++
	}
	for n := 0; n < len(r.nets) && left > 0; n++ {
		nt := &r.nets[n]
		for q := 0; q < nt.slots && left > 0; q++ {
			cnt, k := binary.Uvarint(vec[pos:])
			hdr, body := pos, pos+k+1
			end := body + int(cnt)*nt.recW
			pos = end
			consumed := a.Net == n && a.Slot == q
			added := 0
			for _, s := range sent {
				if s.net == n && s.slot == q {
					added++
				}
			}
			if !consumed && added == 0 {
				continue
			}
			dst = append(dst, vec[from:hdr]...)
			from = end
			cnt += uint64(added)
			if consumed {
				cnt--
				left--
			}
			left -= added
			dst = binary.AppendUvarint(dst, cnt)
			dst = append(dst, '|')
			if consumed {
				at := body + a.Pos*nt.recW
				dst = append(dst, vec[body:at]...)
				dst = append(dst, vec[at+nt.recW:end]...)
			} else {
				dst = append(dst, vec[body:end]...)
			}
			for _, s := range sent {
				if s.net == n && s.slot == q {
					dst = append(dst, recs[s.off:s.off+nt.recW]...)
				}
			}
		}
	}
	return append(dst, vec[from:]...)
}

// Encode renders a state as its key: the state's vector (AppendVector)
// with every unordered slot's message records sorted into byte order, so
// that states differing only in the order of unordered messages share a
// key. Within one runtime every field sits at a fixed width and the
// counts are prefix-free, so the key is injective.
func (r *Runtime) Encode(st *State) string {
	return string(r.AppendEncode(nil, st))
}

// AppendEncode appends Encode(st) to dst.
func (r *Runtime) AppendEncode(dst []byte, st *State) []byte {
	sc := r.getScratch()
	defer r.putScratch(sc)
	return r.appendKey(dst, st, &sc.sort)
}

// AppendVector appends st's vector to dst: per instance the control
// ordinal and each variable's payload, each as its low keyWidth bytes,
// then per network slot the message count as a uvarint, a '|' and the
// messages' payload bytes in storage order. DecodeInto inverts it; the
// storage order is what keeps a decoded state's Actions, and so action
// indices and traces, those of the state encoded.
func (r *Runtime) AppendVector(dst []byte, st *State) []byte {
	return r.appendKey(dst, st, nil)
}

// appendKey appends st's key, or with ms nil its vector.
func (r *Runtime) appendKey(dst []byte, st *State, ms *msgSorter) []byte {
	for i := range r.Insts {
		dst = r.appendProc(dst, st, i)
	}
	for n, slots := range st.Nets {
		for q := range slots {
			dst = r.appendSlot(dst, st, n, q, ms)
		}
	}
	return dst
}

// appendProc appends instance i's block: its control ordinal, then its
// variables.
func (r *Runtime) appendProc(dst []byte, st *State, i int) []byte {
	pt := r.procs[i]
	p := st.Procs[i]
	dst = appendLow(dst, uint64(p.Ctl), pt.ctlW)
	for j, v := range p.Vars {
		dst = appendLow(dst, v.Payload(), pt.varW[j])
	}
	return dst
}

// appendSlot appends receiver slot q of network n, sorting the records of
// an unordered slot through ms (nil: storage order).
func (r *Runtime) appendSlot(dst []byte, st *State, n, q int, ms *msgSorter) []byte {
	msgs := st.Nets[n][q]
	dst = binary.AppendUvarint(dst, uint64(len(msgs)))
	dst = append(dst, '|')
	nt := &r.nets[n]
	if ms == nil || r.Sys.Networks[n].Kind == Ordered || len(msgs) < 2 {
		for _, m := range msgs {
			dst = appendMsg(dst, m, nt.fieldW, nil)
		}
		return dst
	}
	ms.buf = ms.buf[:0]
	for _, m := range msgs {
		ms.buf = appendMsg(ms.buf, m, nt.fieldW, nil)
	}
	return ms.appendSorted(dst, ms.buf, nt.recW)
}

// VectorKey appends the key of the state whose vector is vec: vec with
// every unordered slot's records sorted. It equals AppendEncode of the
// decoded state.
func (r *Runtime) VectorKey(dst, vec []byte) []byte {
	sc := r.getScratch()
	defer r.putScratch(sc)
	dst = append(dst, vec[:r.instW]...)
	pos := r.instW
	for n, net := range r.Sys.Networks {
		recW := r.nets[n].recW
		for q := 0; q < r.nets[n].slots; q++ {
			cnt, k := binary.Uvarint(vec[pos:])
			hdr := pos
			pos += k + 1
			end := pos + int(cnt)*recW
			dst = append(dst, vec[hdr:pos]...)
			if net.Kind == Ordered || cnt < 2 {
				dst = append(dst, vec[pos:end]...)
			} else {
				dst = sc.sort.appendSorted(dst, vec[pos:end], recW)
			}
			pos = end
		}
	}
	return dst
}

// DecodeInto decodes a vector written by AppendVector into dst, reusing
// dst's slices. The decoded state equals the one encoded, Ints
// sign-extended from the universe's width. dst must share no storage with
// a state still in use (an action's Msg shares its state's), so it is
// typically a fresh state or a scratch state that only DecodeInto fills.
func (r *Runtime) DecodeInto(dst *State, vec []byte) {
	pos := 0
	dst.Procs = resize(dst.Procs, len(r.Insts))
	for i, inst := range r.Insts {
		pt := r.procs[i]
		p := &dst.Procs[i]
		p.Ctl = int(readLow(vec[pos : pos+pt.ctlW]))
		pos += pt.ctlW
		p.Vars = resize(p.Vars, len(pt.varW))
		for j, v := range inst.Def.Vars {
			p.Vars[j] = r.decodeValue(v.VT, vec[pos:pos+pt.varW[j]])
			pos += pt.varW[j]
		}
	}
	dst.Nets = resize(dst.Nets, len(r.Sys.Networks))
	for n, net := range r.Sys.Networks {
		nt := &r.nets[n]
		slots := resize(dst.Nets[n], nt.slots)
		for q := range slots {
			cnt, k := binary.Uvarint(vec[pos:])
			pos += k + 1
			msgs := resize(slots[q], int(cnt))
			for m := range msgs {
				msg := resize(msgs[m], len(nt.fieldW))
				for j, f := range net.Msg.Fields {
					msg[j] = r.decodeValue(f.T, vec[pos:pos+nt.fieldW[j]])
					pos += nt.fieldW[j]
				}
				msgs[m] = msg
			}
			slots[q] = msgs
		}
		dst.Nets[n] = slots
	}
}

// decodeValue decodes the key bytes b of a value of type t.
func (r *Runtime) decodeValue(t expr.Type, b []byte) expr.Value {
	x := readLow(b)
	if t.Kind == expr.KindInt {
		x = uint64(r.Sys.U.WrapInt(int64(x)))
	}
	return expr.PayloadVal(t, x)
}

// resize returns s with length n, keeping the elements past len(s) that
// its capacity still holds so that their own slices are reused.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
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

// putLow writes the low w bytes of x to b, least significant first.
func putLow(b []byte, x uint64, w int) {
	for i := range w {
		b[i] = byte(x)
		x >>= 8
	}
}

// appendLow appends the low w bytes of x, least significant first.
func appendLow(dst []byte, x uint64, w int) []byte {
	for ; w > 0; w-- {
		dst = append(dst, byte(x))
		x >>= 8
	}
	return dst
}

// readLow reads the little-endian unsigned integer in b.
func readLow(b []byte) uint64 {
	var x uint64
	for i := len(b) - 1; i >= 0; i-- {
		x = x<<8 | uint64(b[i])
	}
	return x
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
	buf  []byte // records being built for sorting
	rec  []byte // the records appendSorted is sorting
	idx  []int
	recW int
	cmp  func(a, b int) int
}

// appendSorted appends the recW-wide records of rec to dst in byte order.
func (ms *msgSorter) appendSorted(dst, rec []byte, recW int) []byte {
	ms.rec, ms.recW, ms.idx = rec, recW, ms.idx[:0]
	for i := 0; i < len(rec)/recW; i++ {
		ms.idx = append(ms.idx, i)
	}
	if ms.cmp == nil {
		ms.cmp = ms.compare
	}
	slices.SortFunc(ms.idx, ms.cmp)
	for _, i := range ms.idx {
		dst = append(dst, rec[i*recW:(i+1)*recW]...)
	}
	ms.rec = nil
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
