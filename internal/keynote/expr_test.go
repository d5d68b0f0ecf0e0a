package keynote

import (
	"errors"
	"strings"
	"testing"
)

// evalCond parses a Conditions body and evaluates it against attrs using
// the given ordered values, returning the resulting value name.
func evalCond(t *testing.T, cond string, attrs map[string]string, values []string) string {
	t.Helper()
	prog, err := parseConditions(cond, nil)
	if err != nil {
		t.Fatalf("parseConditions(%q): %v", cond, err)
	}
	order, err := newValueOrder(values)
	if err != nil {
		t.Fatalf("newValueOrder: %v", err)
	}
	ev := &env{attrs: func(n string) (string, bool) {
		switch n {
		case "_MIN_TRUST":
			return values[0], true
		case "_MAX_TRUST":
			return values[len(values)-1], true
		}
		v, ok := attrs[n]
		return v, ok
	}}
	return values[prog.eval(ev, order)]
}

var binVals = []string{"false", "true"}

func TestConditionsStringComparison(t *testing.T) {
	attrs := map[string]string{"app_domain": "DisCFS", "HANDLE": "666240"}
	cases := []struct {
		cond string
		want string
	}{
		{`app_domain == "DisCFS" -> "true";`, "true"},
		{`app_domain == "RCS" -> "true";`, "false"},
		{`app_domain != "RCS" -> "true";`, "true"},
		{`HANDLE == "666240" -> "true";`, "true"},
		{`HANDLE < "7" -> "true";`, "true"}, // lexicographic
		{`"abc" < "abd" -> "true";`, "true"},
		{`"b" >= "a" && "a" <= "a" -> "true";`, "true"},
		{`missing == "" -> "true";`, "true"}, // undefined attr reads as ""
	}
	for _, c := range cases {
		if got := evalCond(t, c.cond, attrs, binVals); got != c.want {
			t.Errorf("%q = %q, want %q", c.cond, got, c.want)
		}
	}
}

func TestConditionsNumericComparison(t *testing.T) {
	attrs := map[string]string{"size": "4096", "hour": "14", "pi": "3.14"}
	cases := []struct {
		cond string
		want string
	}{
		{`@size > 1000 -> "true";`, "true"},
		{`@size == 4096 -> "true";`, "true"},
		{`@hour >= 9 && @hour < 17 -> "true";`, "true"},
		{`@pi > 3 && @pi < 4 -> "true";`, "true"},
		{`@size + 4 == 4100 -> "true";`, "true"},
		{`@size * 2 == 8192 -> "true";`, "true"},
		{`@size / 2 == 2048 -> "true";`, "true"},
		{`@size % 100 == 96 -> "true";`, "true"},
		{`2 ^ 10 == 1024 -> "true";`, "true"},
		{`-@hour == -14 -> "true";`, "true"},
		{`@absent == 0 -> "true";`, "true"},     // missing attr coerces to 0
		{`@app_domain == 0 -> "true";`, "true"}, // non-numeric coerces to 0
		{`@size / 0 == 1 -> "true";`, "false"},  // division by zero fails closed
	}
	for _, c := range cases {
		if got := evalCond(t, c.cond, attrs, binVals); got != c.want {
			t.Errorf("%q = %q, want %q", c.cond, got, c.want)
		}
	}
}

func TestConditionsRegex(t *testing.T) {
	attrs := map[string]string{"filename": "report.pdf", "path": "/docs/2001/report.pdf"}
	cases := []struct {
		cond string
		want string
	}{
		{`filename ~= "\\.pdf$" -> "true";`, "true"},
		{`filename ~= "^report" -> "true";`, "true"},
		{`filename ~= "\\.doc$" -> "true";`, "false"},
		{`path ~= "/docs/" -> "true";`, "true"},
		{`filename ~= "(" -> "true";`, "false"}, // bad regex fails closed
	}
	for _, c := range cases {
		if got := evalCond(t, c.cond, attrs, binVals); got != c.want {
			t.Errorf("%q = %q, want %q", c.cond, got, c.want)
		}
	}
}

func TestConditionsStringOps(t *testing.T) {
	attrs := map[string]string{"dir": "docs", "file": "a.txt", "docs_owner": "bob", "who": "bob"}
	cases := []struct {
		cond string
		want string
	}{
		{`dir . "/" . file == "docs/a.txt" -> "true";`, "true"},
		{`$("dir") == "docs" -> "true";`, "true"},
		// $ dereference: attribute named by (dir . "_owner") is docs_owner.
		{`$(dir . "_owner") == who -> "true";`, "true"},
	}
	for _, c := range cases {
		if got := evalCond(t, c.cond, attrs, binVals); got != c.want {
			t.Errorf("%q = %q, want %q", c.cond, got, c.want)
		}
	}
}

func TestConditionsBooleanStructure(t *testing.T) {
	attrs := map[string]string{"a": "1", "b": "2"}
	cases := []struct {
		cond string
		want string
	}{
		{`true -> "true";`, "true"},
		{`false -> "true";`, "false"},
		{`!false -> "true";`, "true"},
		{`!(a == "1") -> "true";`, "false"},
		{`a == "1" || b == "9" -> "true";`, "true"},
		{`a == "9" || b == "2" -> "true";`, "true"},
		{`a == "9" || b == "9" -> "true";`, "false"},
		{`(a == "1") && (b == "2") -> "true";`, "true"},
	}
	for _, c := range cases {
		if got := evalCond(t, c.cond, attrs, binVals); got != c.want {
			t.Errorf("%q = %q, want %q", c.cond, got, c.want)
		}
	}
}

var rwxVals = []string{"false", "X", "W", "WX", "R", "RX", "RW", "RWX"}

func TestConditionsMultiValue(t *testing.T) {
	attrs := map[string]string{"HANDLE": "42", "level": "low"}
	cases := []struct {
		cond string
		want string
	}{
		// The paper's Figure 5 credential shape.
		{`(app_domain == "DisCFS") && (HANDLE == "42") -> "RWX";`, "false"},
		{`(HANDLE == "42") -> "RWX";`, "RWX"},
		// Multiple clauses: maximum of satisfied clause values.
		{`HANDLE == "42" -> "R"; HANDLE == "42" -> "W";`, "R"}, // R > W in DisCFS order
		{`HANDLE == "42" -> "W"; HANDLE == "0" -> "RWX";`, "W"},
		// Clause with no arrow returns _MAX_TRUST.
		{`HANDLE == "42";`, "RWX"},
		// Unknown value name collapses to _MIN_TRUST.
		{`HANDLE == "42" -> "SUPERUSER";`, "false"},
		// Value can be a string expression.
		{`HANDLE == "42" -> _MAX_TRUST;`, "RWX"},
		{`HANDLE == "42" -> "R" . "W";`, "RW"},
		// Nested programs.
		{`HANDLE == "42" -> { level == "low" -> "R"; level == "high" -> "RWX"; };`, "R"},
		{`HANDLE == "0" -> { true -> "RWX"; };`, "false"},
	}
	for _, c := range cases {
		if got := evalCond(t, c.cond, attrs, rwxVals); got != c.want {
			t.Errorf("%q = %q, want %q", c.cond, got, c.want)
		}
	}
}

func TestConditionsParseErrors(t *testing.T) {
	bad := []string{
		`app_domain == `,
		`-> "true";`,
		`a == "x" -> ;`,
		`a == 5;`,                   // string vs number
		`@a == "x";`,                // number vs string
		`a + "b" == "c";`,           // '+' on strings
		`a . 5 == "c";`,             // '.' on number
		`!a == "b";`,                // '!' on string… binds to a, making !string
		`true && a;`,                // '&&' with string operand
		`a == "b" -> "v" c == "d";`, // missing semicolon between clauses
		`a == "b" "c";`,             // junk after test
		`(a == "b" -> "v";`,         // unbalanced paren
		`a == "b" -> { true; `,      // unbalanced brace
		`5 < 6 < 7;`,                // chained comparison (bool < num)
	}
	for _, c := range bad {
		if _, err := parseConditions(c, nil); err == nil {
			t.Errorf("parseConditions(%q) succeeded, want error", c)
		}
	}
	// Trailing clause without semicolon at EOF is accepted (lenient).
	if _, err := parseConditions(`a == "b" -> "true"`, nil); err != nil {
		t.Errorf("lenient trailing semicolon: %v", err)
	}
}

func TestConditionsLocalConstantSubstitution(t *testing.T) {
	consts := map[string]string{"TARGET": "666240"}
	prog, err := parseConditions(`HANDLE == TARGET -> "true";`, consts)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	order, _ := newValueOrder(binVals)
	ev := &env{attrs: func(n string) (string, bool) {
		if n == "HANDLE" {
			return "666240", true
		}
		return "", false
	}}
	if got := binVals[prog.eval(ev, order)]; got != "true" {
		t.Errorf("constant substitution failed: got %q", got)
	}
}

func TestLexerStrings(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{`"hello"`, "hello"},
		{`"he\"llo"`, `he"llo`},
		{`"back\\slash"`, `back\slash`},
		{`"tab\there"`, "tab\there"},
		{`"new\nline"`, "new\nline"},
	}
	for _, c := range cases {
		lx, err := newLexer("test", c.in)
		if err != nil {
			t.Fatalf("lex %q: %v", c.in, err)
		}
		tok := lx.take()
		if tok.kind != tokString || tok.text != c.want {
			t.Errorf("lex %q = %q, want %q", c.in, tok.text, c.want)
		}
	}
	for _, bad := range []string{`"unterminated`, `"bad\escape"`, `"trail\`} {
		if _, err := newLexer("test", bad); err == nil {
			t.Errorf("lex %q succeeded, want error", bad)
		}
	}
}

func TestLexerOperators(t *testing.T) {
	lx, err := newLexer("test", `-> && || == != <= >= ~= < > ! + - * / % ^ . @ $ ( ) { } ; , =`)
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	want := []tokKind{tokArrow, tokAndAnd, tokOrOr, tokEq, tokNe, tokLe, tokGe, tokRegex,
		tokLt, tokGt, tokNot, tokPlus, tokMinus, tokStar, tokSlash, tokPercent, tokCaret,
		tokDot, tokAt, tokDollar, tokLParen, tokRParen, tokLBrace, tokRBrace, tokSemi, tokComma, tokAssign, tokEOF}
	for i, w := range want {
		tok := lx.take()
		if tok.kind != w {
			t.Fatalf("token %d = %v, want %v", i, tok.kind, w)
		}
	}
}

func TestLexerRejectsStrayCharacters(t *testing.T) {
	if _, err := newLexer("test", "a ? b"); err == nil {
		t.Error("stray '?' accepted")
	}
}

func TestNumberLexing(t *testing.T) {
	lx, err := newLexer("test", "42 3.14 0 10.5")
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	want := []string{"42", "3.14", "0", "10.5"}
	for _, w := range want {
		tok := lx.take()
		if tok.kind != tokNumber || tok.text != w {
			t.Errorf("number token = %v %q, want %q", tok.kind, tok.text, w)
		}
	}
}

func TestConditionsDeepNesting(t *testing.T) {
	// Build a deeply nested program and confirm it parses and evaluates.
	depth := 50
	cond := strings.Repeat(`true -> { `, depth) + `true -> "true";` + strings.Repeat(` };`, depth)
	if got := evalCond(t, cond, nil, binVals); got != "true" {
		t.Errorf("deep nesting eval = %q, want true", got)
	}
}

// TestNestingBound: assertion text reaches the parser from peers before
// any signature check, so nesting is capped at maxNesting. A 256 KiB run
// of '!' (the largest credential text a server accepts) and 256 KiB of
// nested Licensees parentheses are both refused with a *SyntaxError;
// nesting just under the cap still parses.
func TestNestingBound(t *testing.T) {
	const textMax = 256 << 10
	header := "Authorizer: \"POLICY\"\n"
	bang := header + "Licensees: \"x\"\nConditions: "
	bang += strings.Repeat("!", textMax-len(bang)-len("true;\n")) + "true;\n"
	parens := header + "Licensees: "
	depth := (textMax - len(parens) - len("\"x\"\n")) / 2
	parens += strings.Repeat("(", depth) + `"x"` + strings.Repeat(")", depth) + "\n"
	for name, text := range map[string]string{"conditions": bang, "licensees": parens} {
		if len(text) != textMax && len(text) != textMax-1 {
			t.Fatalf("%s: text is %d bytes, want 256 KiB", name, len(text))
		}
		_, err := ParseAssertion(text)
		var se *SyntaxError
		if !errors.As(err, &se) || !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: 256 KiB of nesting: err = %v, want a *SyntaxError", name, err)
		}
	}
	ok := header + "Licensees: " + strings.Repeat("(", maxNesting-1) + `"x"` + strings.Repeat(")", maxNesting-1) + "\n" +
		"Conditions: " + strings.Repeat("!", maxNesting-2) + "true;\n"
	if _, err := ParseAssertion(ok); err != nil {
		t.Errorf("nesting under the bound: %v", err)
	}
}
