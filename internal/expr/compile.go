package expr

import "fmt"

// Prog is an expression compiled to a postfix program over a register
// file: the form the EFSM runtime evaluates guards, updates and sends in,
// with no environment map and no per-node argument slice. A Prog is
// immutable and safe for concurrent use; each caller brings its own
// registers and stack.
type Prog struct {
	ops []op
	// panics holds the messages of opPanic ops.
	panics []string
}

type opKind uint8

const (
	opReg   opKind = iota // push regs[n]
	opConst               // push val
	opApply               // replace the top n values by fn applied to them
	opPanic               // panic(panics[n])
)

type op struct {
	kind opKind
	n    int32
	fn   *Func
	val  Value
}

// Compile flattens e to a Prog. slot resolves a variable name to its
// register and the type of the values that register holds; ok is false
// for a name with no register. A variable that has no register, or whose
// register holds another type, compiles to an op that panics when
// evaluated with the message Var.Eval gives for the same miss, so a Prog
// fails exactly where the tree evaluator under the equivalent Env would.
func Compile(e Expr, slot func(name string) (reg int, t Type, ok bool)) Prog {
	var p Prog
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case *Var:
			reg, t, ok := slot(n.Name)
			switch {
			case !ok:
				p.panicOp(fmt.Sprintf("expr: unbound variable %s", n.Name))
			case t != n.VT:
				p.panicOp(fmt.Sprintf("expr: variable %s bound to %s, declared %s", n.Name, t, n.VT))
			default:
				p.ops = append(p.ops, op{kind: opReg, n: int32(reg)})
			}
		case *Const:
			p.ops = append(p.ops, op{kind: opConst, val: n.Val})
		case *Apply:
			for _, a := range n.Args {
				walk(a)
			}
			p.ops = append(p.ops, op{kind: opApply, n: int32(len(n.Args)), fn: n.Fn})
		default:
			panic(fmt.Sprintf("expr: Compile on unknown node %T", e))
		}
	}
	walk(e)
	return p
}

func (p *Prog) panicOp(msg string) {
	p.ops = append(p.ops, op{kind: opPanic, n: int32(len(p.panics))})
	p.panics = append(p.panics, msg)
}

// Eval runs the program with variables read from regs, using *stack as
// its operand stack (grown as needed and left for reuse). Like Apply.Eval
// it evaluates every argument of every application, ite, and and or
// included, and calls the same Func.Apply closures on the same values, so
// it returns what Expr.Eval returns under the equivalent Env. Once *stack
// has grown to the program's depth, Eval allocates nothing.
func (p Prog) Eval(u *Universe, regs []Value, stack *[]Value) Value {
	s := (*stack)[:0]
	for i := range p.ops {
		o := &p.ops[i]
		switch o.kind {
		case opReg:
			s = append(s, regs[o.n])
		case opConst:
			s = append(s, o.val)
		case opApply:
			base := len(s) - int(o.n)
			v := o.fn.Apply(u, s[base:])
			s = append(s[:base], v)
		case opPanic:
			panic(p.panics[o.n])
		}
	}
	*stack = s
	return s[0]
}
