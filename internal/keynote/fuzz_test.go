package keynote

import (
	"strings"
	"testing"
)

// FuzzParseAssertion feeds arbitrary text to ParseAssertion, the first
// code a peer's credential reaches on a server. Whatever parses is
// evaluated against a fixed attribute set, both in full and through a
// session's pruned licensee index. Properties: no panic, the result
// index lies within the value set, and the two evaluations agree.
func FuzzParseAssertion(f *testing.F) {
	admin := DeterministicKey("admin")
	user := DeterministicKey("miltchev")
	// The paper's Figure 5 credential.
	f.Add("KeyNote-Version: 2\n" +
		"Authorizer: " + quotePrincipal(admin.Principal) + "\n" +
		"Licensees: " + quotePrincipal(user.Principal) + "\n" +
		"Conditions: (app_domain == \"DisCFS\") &&\n" +
		"\t(HANDLE == \"666240\") -> \"RWX\";\n" +
		"Comment: testdir\n")
	// The subtree-scoped credential a DisCFS server issues on create,
	// here to itself: self-licensing, so the licensee index skips it.
	f.Add("Authorizer: " + quotePrincipal(admin.Principal) + "\n" +
		"Licensees: " + quotePrincipal(admin.Principal) + "\n" +
		"Conditions: app_domain == \"DisCFS\" && (HANDLE == \"42\" || PATH ~= \"/42/\") -> \"RWX\";\n")
	f.Add("Authorizer: \"POLICY\"\n" +
		"Local-Constants: A = \"alice\" B = \"bob\"\n" +
		"Licensees: 2-of(A, B, \"carol\") || (A && \"dave\")\n" +
		"Conditions: @level ^ 2 > 3 -> { $name ~= \"^r.*\" -> \"R\" . \"W\"; true -> _MIN_TRUST; };\n")
	f.Add("Authorizer: \"POLICY\"\nLicensees: \"x\"\nConditions: " + strings.Repeat("!", 1000) + "true;\n")

	attrs := map[string]string{
		"app_domain": "DisCFS", "HANDLE": "42", "PATH": "/42/a", "level": "2", "name": "root",
	}
	f.Fuzz(func(t *testing.T, text string) {
		a, err := ParseAssertion(text)
		if err != nil {
			return
		}
		a.verified = true // evaluate as if its signature had checked out
		pol := a
		if a.Authorizer != PolicyPrincipal {
			pol = &Assertion{Authorizer: PolicyPrincipal, licensees: licPrincipal{a.Authorizer}, sigStart: -1}
		}
		s, err := NewSession(discfsValues)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddPolicy(pol); err != nil {
			t.Fatal(err)
		}
		if pol != a {
			// Installed as AddCredential would, minus the signature check.
			s.mutate(func(next *Snapshot) (bool, error) {
				next.creds = append(next.creds, a)
				next.index(a)
				return true, nil
			})
		}
		requesters := a.Licensees()
		if len(requesters) == 0 {
			requesters = []Principal{"nobody"}
		}
		snap := s.Snapshot()
		for _, req := range requesters {
			full, err := Evaluate(snap.Policies(), snap.Credentials(), Query{
				Values: discfsValues, Attributes: attrs, Requesters: []Principal{req},
			})
			if err != nil {
				t.Fatalf("Evaluate(%q): %v", req, err)
			}
			if full.Index < 0 || full.Index >= len(discfsValues) || full.Value != discfsValues[full.Index] {
				t.Fatalf("Evaluate(%q) = %+v, outside the value set", req, full)
			}
			pruned, err := snap.Query(attrs, req)
			if err != nil {
				t.Fatalf("Query(%q): %v", req, err)
			}
			if pruned != full {
				t.Fatalf("requester %q: pruned query %+v, full evaluation %+v", req, pruned, full)
			}
		}
	})
}
