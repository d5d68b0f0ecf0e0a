package keynote

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
)

// The conditions language of RFC 2704 distinguishes string expressions,
// numeric expressions and tests (booleans). We parse with a single
// precedence-climbing grammar into a typed AST and reject mixed-type
// operations at parse time, which matches the RFC's split grammar while
// avoiding backtracking on '('.

// exprType is the static type of a conditions expression node.
type exprType int

const (
	typeBool exprType = iota
	typeStr
	typeNum
)

func (t exprType) String() string {
	switch t {
	case typeBool:
		return "test"
	case typeStr:
		return "string"
	case typeNum:
		return "number"
	}
	return "?"
}

// env is the evaluation environment of a conditions program: the action
// attribute set plus the intrinsic attributes derived from the query.
type env struct {
	attrs func(string) (string, bool) // action attribute lookup
	// softErr records the first runtime evaluation problem (bad regex,
	// division by zero). Such clauses evaluate to false per RFC 2704
	// rather than aborting the query.
	softErr error
}

func (e *env) lookup(name string) string {
	if v, ok := e.attrs(name); ok {
		return v
	}
	return "" // undefined attributes read as the empty string
}

func (e *env) fail(err error) {
	if e.softErr == nil {
		e.softErr = err
	}
}

// expr is a node of the typed conditions AST.
type expr interface {
	typ() exprType
}

// Boolean nodes.

type boolConst struct{ v bool }

type boolAnd struct{ l, r expr }
type boolOr struct{ l, r expr }
type boolNot struct{ e expr }

// boolCmp compares two same-typed operands with a relational operator.
type boolCmp struct {
	op   tokKind // tokEq, tokNe, tokLt, tokLe, tokGt, tokGe
	kind exprType
	l, r expr
}

// boolRegex is the '~=' operator: left string matched against the regular
// expression on the right.
type boolRegex struct{ l, r expr }

func (boolConst) typ() exprType { return typeBool }
func (boolAnd) typ() exprType   { return typeBool }
func (boolOr) typ() exprType    { return typeBool }
func (boolNot) typ() exprType   { return typeBool }
func (boolCmp) typ() exprType   { return typeBool }
func (boolRegex) typ() exprType { return typeBool }

// String nodes.

type strLit struct{ s string }

// strAttr reads an action attribute by name (bare identifier).
type strAttr struct{ name string }

// strDeref is '$e': the attribute named by the value of e.
type strDeref struct{ e expr }

// strConcat is 'l . r'.
type strConcat struct{ l, r expr }

func (strLit) typ() exprType    { return typeStr }
func (strAttr) typ() exprType   { return typeStr }
func (strDeref) typ() exprType  { return typeStr }
func (strConcat) typ() exprType { return typeStr }

// Numeric nodes.

type numLit struct{ f float64 }

// numCoerce is '@e': numeric interpretation of a string expression.
// Non-numeric strings coerce to 0, matching the reference implementation.
type numCoerce struct{ e expr }

type numNeg struct{ e expr }

type numBin struct {
	op   tokKind // + - * / % ^
	l, r expr
}

func (numLit) typ() exprType    { return typeNum }
func (numCoerce) typ() exprType { return typeNum }
func (numNeg) typ() exprType    { return typeNum }
func (numBin) typ() exprType    { return typeNum }

// evalBool evaluates a boolean node.
func evalBool(e *env, x expr) bool {
	switch n := x.(type) {
	case boolConst:
		return n.v
	case boolAnd:
		return evalBool(e, n.l) && evalBool(e, n.r)
	case boolOr:
		return evalBool(e, n.l) || evalBool(e, n.r)
	case boolNot:
		return !evalBool(e, n.e)
	case boolCmp:
		if n.kind == typeStr {
			l, r := evalStr(e, n.l), evalStr(e, n.r)
			switch n.op {
			case tokEq:
				return l == r
			case tokNe:
				return l != r
			case tokLt:
				return l < r
			case tokLe:
				return l <= r
			case tokGt:
				return l > r
			case tokGe:
				return l >= r
			}
			return false
		}
		l, lok := evalNum(e, n.l)
		r, rok := evalNum(e, n.r)
		if !lok || !rok {
			return false
		}
		switch n.op {
		case tokEq:
			return l == r
		case tokNe:
			return l != r
		case tokLt:
			return l < r
		case tokLe:
			return l <= r
		case tokGt:
			return l > r
		case tokGe:
			return l >= r
		}
		return false
	case boolRegex:
		s := evalStr(e, n.l)
		pat := evalStr(e, n.r)
		re, err := compileRegex(pat)
		if err != nil {
			e.fail(err)
			return false
		}
		return re.MatchString(s)
	}
	return false
}

// evalStr evaluates a string node.
func evalStr(e *env, x expr) string {
	switch n := x.(type) {
	case strLit:
		return n.s
	case strAttr:
		return e.lookup(n.name)
	case strDeref:
		return e.lookup(evalStr(e, n.e))
	case strConcat:
		return evalStr(e, n.l) + evalStr(e, n.r)
	}
	return ""
}

// evalNum evaluates a numeric node; ok is false on runtime failure
// (division by zero), which makes the enclosing test false.
func evalNum(e *env, x expr) (float64, bool) {
	switch n := x.(type) {
	case numLit:
		return n.f, true
	case numCoerce:
		s := strings.TrimSpace(evalStr(e, n.e))
		if s == "" {
			return 0, true
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, true // non-numeric coerces to 0
		}
		return f, true
	case numNeg:
		v, ok := evalNum(e, n.e)
		return -v, ok
	case numBin:
		l, lok := evalNum(e, n.l)
		r, rok := evalNum(e, n.r)
		if !lok || !rok {
			return 0, false
		}
		switch n.op {
		case tokPlus:
			return l + r, true
		case tokMinus:
			return l - r, true
		case tokStar:
			return l * r, true
		case tokSlash:
			if r == 0 {
				e.fail(&SyntaxError{Field: "Conditions", Msg: "division by zero"})
				return 0, false
			}
			return l / r, true
		case tokPercent:
			if r == 0 {
				e.fail(&SyntaxError{Field: "Conditions", Msg: "modulo by zero"})
				return 0, false
			}
			return float64(int64(l) % int64(r)), true
		case tokCaret:
			return pow(l, r), true
		}
	}
	return 0, false
}

// pow computes l^r for the small integer exponents policies use, falling
// back to repeated multiplication; KeyNote policies do not need math.Pow
// precision and the stdlib-only constraint is trivially met either way.
func pow(l, r float64) float64 {
	n := int64(r)
	if float64(n) != r || n < 0 {
		// Fractional or negative exponents are outside RFC 2704's integer
		// usage; approximate via exp/log-free iteration is not worth it.
		// Return 0 to make the comparison fail closed.
		return 0
	}
	out := 1.0
	for ; n > 0; n-- {
		out *= l
	}
	return out
}

// regexCache memoizes compiled patterns; policy conditions are evaluated
// on every uncached file operation, so compilation cost matters.
var regexCache sync.Map // string -> *regexp.Regexp

// ---- static attribute references ----

// referencesAny reports whether the program mentions any of the named
// action attributes. A '$' dereference reads an attribute whose name is
// computed at evaluation time, so it conservatively counts as
// referencing everything.
func (p *condProgram) referencesAny(names map[string]bool) bool {
	for _, c := range p.clauses {
		if exprReferencesAny(c.test, names) {
			return true
		}
		if c.value != nil && exprReferencesAny(c.value, names) {
			return true
		}
		if c.sub != nil && c.sub.referencesAny(names) {
			return true
		}
	}
	return false
}

func exprReferencesAny(x expr, names map[string]bool) bool {
	switch n := x.(type) {
	case boolAnd:
		return exprReferencesAny(n.l, names) || exprReferencesAny(n.r, names)
	case boolOr:
		return exprReferencesAny(n.l, names) || exprReferencesAny(n.r, names)
	case boolNot:
		return exprReferencesAny(n.e, names)
	case boolCmp:
		return exprReferencesAny(n.l, names) || exprReferencesAny(n.r, names)
	case boolRegex:
		return exprReferencesAny(n.l, names) || exprReferencesAny(n.r, names)
	case strAttr:
		return names[n.name]
	case strDeref:
		return true // dynamic name: could be anything
	case strConcat:
		return exprReferencesAny(n.l, names) || exprReferencesAny(n.r, names)
	case numCoerce:
		return exprReferencesAny(n.e, names)
	case numNeg:
		return exprReferencesAny(n.e, names)
	case numBin:
		return exprReferencesAny(n.l, names) || exprReferencesAny(n.r, names)
	}
	return false
}

func compileRegex(pat string) (*regexp.Regexp, error) {
	if v, ok := regexCache.Load(pat); ok {
		return v.(*regexp.Regexp), nil
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, err
	}
	regexCache.Store(pat, re)
	return re, nil
}

// ---- Conditions program ----

// clause is one "test -> value ;" element of a conditions program. A
// missing "-> value" part returns _MAX_TRUST; the value may instead be a
// nested program in braces.
type clause struct {
	test  expr // boolean
	value expr // string expression naming a compliance value; nil if sub or bare
	sub   *condProgram
}

// condProgram is a parsed Conditions field.
type condProgram struct {
	clauses []clause
}

// evalProgram computes the compliance value index of a program: the
// maximum (in the query's value order) over all satisfied clauses, or 0
// (_MIN_TRUST) if none are satisfied. Values not present in the query's
// ordered set evaluate to _MIN_TRUST.
func (p *condProgram) eval(e *env, order *valueOrder) int {
	best := 0
	for _, c := range p.clauses {
		if !evalBool(e, c.test) {
			continue
		}
		var v int
		switch {
		case c.sub != nil:
			v = c.sub.eval(e, order)
		case c.value != nil:
			v = order.index(evalStr(e, c.value))
		default:
			v = order.max()
		}
		if v > best {
			best = v
		}
	}
	return best
}

// ---- Parser ----

// parseConditions parses a Conditions field body into a program.
// constants maps Local-Constants names to their string values; they are
// substituted wherever an identifier matches a constant name, per RFC
// 2704 section 4.4.
func parseConditions(src string, constants map[string]string) (*condProgram, error) {
	lx, err := newLexer("Conditions", src)
	if err != nil {
		return nil, err
	}
	p := &condParser{lx: lx, consts: constants}
	prog, err := p.program(false)
	if err != nil {
		return nil, err
	}
	if t := lx.peek(); t.kind != tokEOF {
		return nil, lx.errf(t.off, "unexpected %v after conditions program", t.kind)
	}
	return prog, nil
}

type condParser struct {
	lx     *lexer
	consts map[string]string
}

// program parses clauses until EOF (nested=false) or '}' (nested=true).
func (p *condParser) program(nested bool) (*condProgram, error) {
	if nested {
		if err := p.lx.enter(p.lx.peek().off); err != nil {
			return nil, err
		}
		defer p.lx.leave()
	}
	prog := &condProgram{}
	for {
		t := p.lx.peek()
		if t.kind == tokEOF {
			if nested {
				return nil, p.lx.errf(t.off, "missing '}' in nested clause")
			}
			return prog, nil
		}
		if nested && t.kind == tokRBrace {
			return prog, nil
		}
		c, err := p.clause()
		if err != nil {
			return nil, err
		}
		prog.clauses = append(prog.clauses, c)
	}
}

func (p *condParser) clause() (clause, error) {
	test, err := p.expr(0)
	if err != nil {
		return clause{}, err
	}
	if test.typ() != typeBool {
		return clause{}, p.lx.errf(p.lx.peek().off, "clause test is a %v, want a test", test.typ())
	}
	c := clause{test: test}
	if p.lx.peek().kind == tokArrow {
		p.lx.take()
		if p.lx.peek().kind == tokLBrace {
			p.lx.take()
			sub, err := p.program(true)
			if err != nil {
				return clause{}, err
			}
			if _, err := p.lx.expect(tokRBrace); err != nil {
				return clause{}, err
			}
			c.sub = sub
		} else {
			v, err := p.expr(precRel + 1) // value: a string expression
			if err != nil {
				return clause{}, err
			}
			if v.typ() != typeStr {
				return clause{}, p.lx.errf(p.lx.peek().off, "clause value is a %v, want a string", v.typ())
			}
			c.value = v
		}
	}
	// The trailing ';' is mandatory after a value clause, optional after
	// a closing brace and before EOF (the reference parser is lenient).
	if p.lx.peek().kind == tokSemi {
		p.lx.take()
	} else if c.sub == nil && p.lx.peek().kind != tokEOF && p.lx.peek().kind != tokRBrace {
		return clause{}, p.lx.errf(p.lx.peek().off, "expected ';' after clause, found %v", p.lx.peek().kind)
	}
	return c, nil
}

// Operator precedence levels, low to high.
const (
	precOr   = 1 // ||
	precAnd  = 2 // &&
	precRel  = 3 // == != < <= > >= ~=
	precAdd  = 4 // + - .
	precMul  = 5 // * / %
	precPow  = 6 // ^
	precUnar = 7 // ! - @ $
)

func binPrec(k tokKind) int {
	switch k {
	case tokOrOr:
		return precOr
	case tokAndAnd:
		return precAnd
	case tokEq, tokNe, tokLt, tokLe, tokGt, tokGe, tokRegex:
		return precRel
	case tokPlus, tokMinus, tokDot:
		return precAdd
	case tokStar, tokSlash, tokPercent:
		return precMul
	case tokCaret:
		return precPow
	}
	return 0
}

// expr is a precedence-climbing parser over the unified grammar. minPrec
// bounds which binary operators may be consumed.
func (p *condParser) expr(minPrec int) (expr, error) {
	if err := p.lx.enter(p.lx.peek().off); err != nil {
		return nil, err
	}
	defer p.lx.leave()
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.lx.peek()
		prec := binPrec(t.kind)
		if prec == 0 || prec < minPrec {
			return left, nil
		}
		p.lx.take()
		// ^ is right-associative; everything else left-associative.
		nextMin := prec + 1
		if t.kind == tokCaret {
			nextMin = prec
		}
		right, err := p.expr(nextMin)
		if err != nil {
			return nil, err
		}
		left, err = p.combine(t, left, right)
		if err != nil {
			return nil, err
		}
	}
}

func (p *condParser) combine(op token, l, r expr) (expr, error) {
	switch op.kind {
	case tokOrOr, tokAndAnd:
		if l.typ() != typeBool || r.typ() != typeBool {
			return nil, p.lx.errf(op.off, "%v needs tests on both sides (found %v and %v)", op.kind, l.typ(), r.typ())
		}
		if op.kind == tokAndAnd {
			return boolAnd{l, r}, nil
		}
		return boolOr{l, r}, nil
	case tokRegex:
		if l.typ() != typeStr || r.typ() != typeStr {
			return nil, p.lx.errf(op.off, "'~=' needs string operands")
		}
		return boolRegex{l, r}, nil
	case tokEq, tokNe, tokLt, tokLe, tokGt, tokGe:
		if l.typ() != r.typ() || l.typ() == typeBool {
			return nil, p.lx.errf(op.off, "cannot compare %v with %v", l.typ(), r.typ())
		}
		return boolCmp{op: op.kind, kind: l.typ(), l: l, r: r}, nil
	case tokDot:
		if l.typ() != typeStr || r.typ() != typeStr {
			return nil, p.lx.errf(op.off, "'.' needs string operands")
		}
		return strConcat{l, r}, nil
	case tokPlus, tokMinus, tokStar, tokSlash, tokPercent, tokCaret:
		if l.typ() != typeNum || r.typ() != typeNum {
			return nil, p.lx.errf(op.off, "%v needs numeric operands (use '@' to convert strings)", op.kind)
		}
		return numBin{op: op.kind, l: l, r: r}, nil
	}
	return nil, p.lx.errf(op.off, "unexpected operator")
}

func (p *condParser) unary() (expr, error) {
	t := p.lx.peek()
	switch t.kind {
	case tokNot:
		p.lx.take()
		e, err := p.expr(precUnar)
		if err != nil {
			return nil, err
		}
		if e.typ() != typeBool {
			return nil, p.lx.errf(t.off, "'!' needs a test")
		}
		return boolNot{e}, nil
	case tokMinus:
		p.lx.take()
		e, err := p.expr(precUnar)
		if err != nil {
			return nil, err
		}
		if e.typ() != typeNum {
			return nil, p.lx.errf(t.off, "unary '-' needs a number")
		}
		return numNeg{e}, nil
	case tokAt:
		p.lx.take()
		e, err := p.expr(precUnar)
		if err != nil {
			return nil, err
		}
		if e.typ() != typeStr {
			return nil, p.lx.errf(t.off, "'@' needs a string")
		}
		return numCoerce{e}, nil
	case tokDollar:
		p.lx.take()
		e, err := p.expr(precUnar)
		if err != nil {
			return nil, err
		}
		if e.typ() != typeStr {
			return nil, p.lx.errf(t.off, "'$' needs a string")
		}
		return strDeref{e}, nil
	case tokLParen:
		p.lx.take()
		e, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		if _, err := p.lx.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokString:
		p.lx.take()
		return strLit{t.text}, nil
	case tokNumber:
		p.lx.take()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.lx.errf(t.off, "bad number %q", t.text)
		}
		return numLit{f}, nil
	case tokIdent:
		p.lx.take()
		switch t.text {
		case "true":
			return boolConst{true}, nil
		case "false":
			return boolConst{false}, nil
		}
		if p.consts != nil {
			if v, ok := p.consts[t.text]; ok {
				return strLit{v}, nil
			}
		}
		return strAttr{t.text}, nil
	}
	return nil, p.lx.errf(t.off, "unexpected %v in expression", t.kind)
}
