package expr

import (
	"fmt"
	"strings"
)

// Pretty renders an expression in TRANSIT surface syntax with infix
// operators, e.g. "Sharers ∪ {Msg.Sender}" style output rendered in ASCII:
// (Sharers + {Msg.Sender}) prints as setunion, comparisons as infix, and so
// on. It is used for generated-code listings in the CLI and EXPERIMENTS.md.
func Pretty(e Expr) string {
	return pretty(e, 0)
}

// Operator binding strengths; larger binds tighter.
const (
	precOr = iota + 1
	precAnd
	precNot
	precCmp
	precAdd
	precAtom
)

func pretty(e Expr, parent int) string {
	switch n := e.(type) {
	case *Var:
		return n.Name
	case *Const:
		return n.Val.String()
	case *Apply:
		return prettyApply(n, parent)
	}
	return e.String()
}

func prettyApply(a *Apply, parent int) string {
	wrap := func(prec int, s string) string {
		if prec < parent {
			return "(" + s + ")"
		}
		return s
	}
	switch a.Fn.Name {
	case "and":
		return wrap(precAnd, pretty(a.Args[0], precAnd)+" & "+pretty(a.Args[1], precAnd))
	case "or":
		return wrap(precOr, pretty(a.Args[0], precOr)+" | "+pretty(a.Args[1], precOr))
	case "not":
		// Render not(equals(a,b)) as a != b.
		if inner, ok := a.Args[0].(*Apply); ok && inner.Fn.Name == "equals" {
			return wrap(precCmp, pretty(inner.Args[0], precCmp+1)+" != "+pretty(inner.Args[1], precCmp+1))
		}
		// The parser's ! binds tighter than every infix operator, so any
		// operand that is not an atom needs parentheses: !a > b parses as
		// (!a) > b.
		return wrap(precNot, "!"+pretty(a.Args[0], precAtom))
	case "equals":
		return wrap(precCmp, pretty(a.Args[0], precCmp+1)+" = "+pretty(a.Args[1], precCmp+1))
	case "gt":
		return wrap(precCmp, pretty(a.Args[0], precCmp+1)+" > "+pretty(a.Args[1], precCmp+1))
	case "ge":
		return wrap(precCmp, pretty(a.Args[0], precCmp+1)+" >= "+pretty(a.Args[1], precCmp+1))
	case "add":
		return wrap(precAdd, pretty(a.Args[0], precAdd)+" + "+pretty(a.Args[1], precAdd))
	case "sub":
		return wrap(precAdd, pretty(a.Args[0], precAdd)+" - "+pretty(a.Args[1], precAdd+1))
	case "setof":
		return "{" + pretty(a.Args[0], 0) + "}"
	case "true", "false", "numcaches", "0", "1", "emptyset":
		if a.Fn.Name == "emptyset" {
			return "{}"
		}
		if a.Fn.Name == "numcaches" {
			return "numcaches()"
		}
		return a.Fn.Name
	}
	if a.Fn.Arity() == 0 {
		// Enum or PID literal constant.
		return a.Fn.Name
	}
	parts := make([]string, len(a.Args))
	for i, arg := range a.Args {
		parts[i] = pretty(arg, 0)
	}
	return fmt.Sprintf("%s(%s)", a.Fn.Name, strings.Join(parts, ", "))
}
