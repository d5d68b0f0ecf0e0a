package keynote

import (
	"sort"
	"strconv"
)

// licExpr is a licensees expression: principals combined with && (all
// must be authorized: minimum value), || (any suffices: maximum value)
// and k-of(...) thresholds (k-th largest value), per RFC 2704 section 5.
type licExpr interface {
	// eval computes the expression's compliance value index given a
	// valuation of principals.
	eval(val func(Principal) int) int
	// principals appends every principal mentioned to dst.
	principals(dst []Principal) []Principal
}

type licPrincipal struct{ p Principal }

type licAnd struct{ l, r licExpr }

type licOr struct{ l, r licExpr }

type licThreshold struct {
	k    int
	args []licExpr
}

func (n licPrincipal) eval(val func(Principal) int) int { return val(n.p) }

func (n licAnd) eval(val func(Principal) int) int {
	l, r := n.l.eval(val), n.r.eval(val)
	if l < r {
		return l
	}
	return r
}

func (n licOr) eval(val func(Principal) int) int {
	l, r := n.l.eval(val), n.r.eval(val)
	if l > r {
		return l
	}
	return r
}

func (n licThreshold) eval(val func(Principal) int) int {
	vals := make([]int, len(n.args))
	for i, a := range n.args {
		vals[i] = a.eval(val)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(vals)))
	if n.k <= 0 || n.k > len(vals) {
		return 0
	}
	return vals[n.k-1] // k-th largest: the value k operands reach together
}

func (n licPrincipal) principals(dst []Principal) []Principal { return append(dst, n.p) }

func (n licAnd) principals(dst []Principal) []Principal {
	return n.r.principals(n.l.principals(dst))
}

func (n licOr) principals(dst []Principal) []Principal {
	return n.r.principals(n.l.principals(dst))
}

func (n licThreshold) principals(dst []Principal) []Principal {
	for _, a := range n.args {
		dst = a.principals(dst)
	}
	return dst
}

// parseLicensees parses a Licensees field body. Grammar:
//
//	expr   := term ('||' term)*
//	term   := factor ('&&' factor)*
//	factor := principal | '(' expr ')' | NUM '-' 'of' '(' expr (',' expr)* ')'
//
// Principals are quoted strings or identifiers; identifiers matching a
// Local-Constants name are substituted first.
func parseLicensees(src string, constants map[string]string) (licExpr, error) {
	lx, err := newLexer("Licensees", src)
	if err != nil {
		return nil, err
	}
	p := &licParser{lx: lx, consts: constants}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if t := lx.peek(); t.kind != tokEOF {
		return nil, lx.errf(t.off, "unexpected %v after licensees expression", t.kind)
	}
	return e, nil
}

type licParser struct {
	lx     *lexer
	consts map[string]string
}

func (p *licParser) expr() (licExpr, error) {
	if err := p.lx.enter(p.lx.peek().off); err != nil {
		return nil, err
	}
	defer p.lx.leave()
	left, err := p.term()
	if err != nil {
		return nil, err
	}
	for p.lx.peek().kind == tokOrOr {
		p.lx.take()
		right, err := p.term()
		if err != nil {
			return nil, err
		}
		left = licOr{left, right}
	}
	return left, nil
}

func (p *licParser) term() (licExpr, error) {
	left, err := p.factor()
	if err != nil {
		return nil, err
	}
	for p.lx.peek().kind == tokAndAnd {
		p.lx.take()
		right, err := p.factor()
		if err != nil {
			return nil, err
		}
		left = licAnd{left, right}
	}
	return left, nil
}

func (p *licParser) factor() (licExpr, error) {
	t := p.lx.peek()
	switch t.kind {
	case tokLParen:
		p.lx.take()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.lx.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokNumber:
		// threshold: NUM '-' of '(' ... ')'
		p.lx.take()
		k, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.lx.errf(t.off, "bad threshold count %q", t.text)
		}
		if _, err := p.lx.expect(tokMinus); err != nil {
			return nil, err
		}
		of, err := p.lx.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if of.text != "of" && of.text != "OF" {
			return nil, p.lx.errf(of.off, "expected 'of' in threshold, found %q", of.text)
		}
		if _, err := p.lx.expect(tokLParen); err != nil {
			return nil, err
		}
		var args []licExpr
		for {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.lx.peek().kind == tokComma {
				p.lx.take()
				continue
			}
			break
		}
		if _, err := p.lx.expect(tokRParen); err != nil {
			return nil, err
		}
		if k < 1 || k > len(args) {
			return nil, p.lx.errf(t.off, "threshold %d out of range for %d operands", k, len(args))
		}
		return licThreshold{k: k, args: args}, nil
	case tokString, tokIdent:
		p.lx.take()
		text := t.text
		if t.kind == tokIdent && p.consts != nil {
			if v, ok := p.consts[text]; ok {
				text = v
			}
		}
		pr, err := canonicalPrincipal(text)
		if err != nil {
			return nil, p.lx.errf(t.off, "bad principal: %v", err)
		}
		return licPrincipal{pr}, nil
	}
	return nil, p.lx.errf(t.off, "unexpected %v in licensees expression", t.kind)
}
