package keynote

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Session is a persistent collection of policy and verified credential
// assertions, mirroring the "persistent KeyNote session" the DisCFS
// daemon keeps per attached client. Sessions are safe for concurrent
// use and read-mostly: the assertion set lives in an immutable Snapshot
// published through an atomic pointer, so Query takes no lock at all.
// Mutations (credential submission, revocation) publish a new snapshot
// under a writer mutex and bump the generation counter; the new
// snapshot shares everything the mutation did not touch with the old
// one, so publishing costs the size of the change, not of the session.
type Session struct {
	mu   sync.Mutex // serializes mutations; readers never take it
	snap atomic.Pointer[Snapshot]
	// bySig maps each installed credential's signature value to it, for
	// idempotent resubmission and RevokeCredential. Only mutations read
	// it, so it lives under mu rather than in the snapshot.
	bySig map[string]*Assertion
	// volatileAttrs are action-attribute names whose values change
	// between queries without a session mutation (e.g. the time of day).
	// Snapshots record whether any assertion depends on one, so decision
	// caches can bound reuse. Written only under mu.
	volatileAttrs map[string]bool
}

// NewSession creates a session with the given ordered compliance values
// (least trust first).
func NewSession(values []string) (*Session, error) {
	if _, err := newValueOrder(values); err != nil {
		return nil, err
	}
	vals := make([]string, len(values))
	copy(vals, values)
	s := &Session{bySig: make(map[string]*Assertion)}
	s.snap.Store(&Snapshot{values: vals})
	return s, nil
}

// Snapshot returns the current immutable view of the session. Callers
// that make several reads that must agree with each other (a query plus
// the generation it was computed under) should take one snapshot and
// use it for all of them.
func (s *Session) Snapshot() *Snapshot { return s.snap.Load() }

// SetVolatileAttributes declares action-attribute names whose values
// change between queries with no session mutation — for DisCFS, the
// time attributes (hour, minute, weekday, now). Snapshots report (via
// Volatile) whether any installed assertion references one, which lets
// decision caches clamp entry lifetimes. Call before assertions are
// installed; existing assertions are rescanned.
func (s *Session) SetVolatileAttributes(names ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.volatileAttrs = make(map[string]bool, len(names))
	for _, n := range names {
		s.volatileAttrs[n] = true
	}
	next := s.snap.Load().clone()
	next.recomputeVolatile(s.volatileAttrs)
	s.snap.Store(next)
}

// Values returns the session's ordered compliance value set.
func (s *Session) Values() []string { return s.Snapshot().Values() }

// Generation returns a counter that changes whenever the session's
// assertion set changes; policy-decision caches key their validity on it.
func (s *Session) Generation() uint64 { return s.Snapshot().gen }

// mutate runs fn over a copy of the current snapshot and, when fn
// reports a change, publishes the copy with a bumped generation.
func (s *Session) mutate(fn func(next *Snapshot) (changed bool, err error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.snap.Load().clone()
	changed, err := fn(next)
	if changed {
		next.gen++
		s.snap.Store(next)
	}
	return err
}

// AddPolicyText parses and installs unsigned local policy assertions
// (Authorizer: "POLICY"). Multiple assertions may be separated by blank
// lines.
func (s *Session) AddPolicyText(text string) error {
	as, err := ParseAssertions(text)
	if err != nil {
		return err
	}
	for _, a := range as {
		if a.Authorizer != PolicyPrincipal {
			return ErrNotPolicy
		}
		a.verified = true
	}
	return s.mutate(func(next *Snapshot) (bool, error) {
		for _, a := range as {
			next.policies = append(next.policies, a)
			next.index(a)
			next.volatile = next.volatile || a.referencesAny(s.volatileAttrs)
		}
		return len(as) > 0, nil
	})
}

// AddPolicy installs an already-composed policy assertion.
func (s *Session) AddPolicy(a *Assertion) error {
	if a.Authorizer != PolicyPrincipal {
		return ErrNotPolicy
	}
	a.verified = true
	return s.mutate(func(next *Snapshot) (bool, error) {
		next.policies = append(next.policies, a)
		next.index(a)
		next.volatile = next.volatile || a.referencesAny(s.volatileAttrs)
		return true, nil
	})
}

// AddCredentialText parses, verifies, and installs credential assertions.
// Unsigned assertions and bad signatures are rejected; credentials from
// revoked keys are rejected. Signature verification runs before the
// writer lock is taken, so concurrent submissions verify in parallel.
func (s *Session) AddCredentialText(text string) ([]*Assertion, error) {
	as, err := ParseAssertions(text)
	if err != nil {
		return nil, err
	}
	for _, a := range as {
		if err := a.Verify(); err != nil {
			return nil, err
		}
	}
	var added []*Assertion
	err = s.mutate(func(next *Snapshot) (bool, error) {
		added = make([]*Assertion, 0, len(as))
		for _, a := range as {
			if next.revoked.get(a.Authorizer) {
				return len(added) > 0, fmt.Errorf("keynote: credential authorizer %s is revoked", a.Authorizer.Short())
			}
			if next.revokedSigs.get(a.SignatureValue) {
				return len(added) > 0, fmt.Errorf("keynote: credential signature is revoked")
			}
			if _, dup := s.bySig[a.SignatureValue]; dup {
				continue // idempotent re-submission
			}
			next.creds = append(next.creds, a)
			s.bySig[a.SignatureValue] = a
			next.index(a)
			next.volatile = next.volatile || a.referencesAny(s.volatileAttrs)
			added = append(added, a)
		}
		return len(added) > 0, nil
	})
	return added, err
}

// AddCredential verifies and installs one credential assertion.
func (s *Session) AddCredential(a *Assertion) error {
	if err := a.Verify(); err != nil {
		return err
	}
	return s.mutate(func(next *Snapshot) (bool, error) {
		if next.revoked.get(a.Authorizer) {
			return false, fmt.Errorf("keynote: credential authorizer %s is revoked", a.Authorizer.Short())
		}
		if next.revokedSigs.get(a.SignatureValue) {
			return false, fmt.Errorf("keynote: credential signature is revoked")
		}
		if _, dup := s.bySig[a.SignatureValue]; dup {
			return false, nil
		}
		next.creds = append(next.creds, a)
		s.bySig[a.SignatureValue] = a
		next.index(a)
		next.volatile = next.volatile || a.referencesAny(s.volatileAttrs)
		return true, nil
	})
}

// RevokeCredential withdraws the credential with the given signature
// value and reports whether a credential was removed. The signature is
// recorded permanently (and logged in the revocation log) the first
// time, whether or not the credential is currently installed, so a
// later resubmission — or a replicated copy arriving on another server
// — is refused rather than silently reinstated.
func (s *Session) RevokeCredential(signatureValue string) bool {
	removed := false
	s.mutate(func(next *Snapshot) (bool, error) {
		changed := false
		if !next.revokedSigs.get(signatureValue) {
			next.revokedSigs.set(signatureValue, true)
			next.appendRevocation(RevokedCredential, signatureValue)
			changed = true
		}
		a, ok := s.bySig[signatureValue]
		if !ok {
			return changed, nil
		}
		delete(s.bySig, signatureValue)
		next.removeCreds(map[*Assertion]bool{a: true}, s.volatileAttrs)
		removed = true
		return true, nil
	})
	return removed
}

// RevokeKey marks a principal as bad: all its existing credentials are
// dropped, future submissions are refused, and a revocation log entry
// is appended. It returns the number of credentials removed. Revoking
// an already-revoked principal is a no-op (no generation bump, no new
// log entry), which keeps replicated re-application convergent.
func (s *Session) RevokeKey(p Principal) int {
	c, err := canonicalPrincipal(string(p))
	if err != nil {
		c = p
	}
	removed := 0
	s.mutate(func(next *Snapshot) (bool, error) {
		if next.revoked.get(c) {
			return false, nil
		}
		next.revoked.set(c, true)
		next.appendRevocation(RevokedKey, string(c))
		dropped := make(map[*Assertion]bool)
		for _, a := range next.creds {
			if a.Authorizer == c {
				dropped[a] = true
				delete(s.bySig, a.SignatureValue)
			}
		}
		if len(dropped) > 0 {
			next.removeCreds(dropped, s.volatileAttrs)
		}
		removed = len(dropped)
		return true, nil
	})
	return removed
}

// Revoked reports whether a principal has been revoked.
func (s *Session) Revoked(p Principal) bool { return s.Snapshot().Revoked(p) }

// Credentials returns the verified credentials currently in the session.
func (s *Session) Credentials() []*Assertion { return s.Snapshot().Credentials() }

// Policies returns the installed policy assertions.
func (s *Session) Policies() []*Assertion { return s.Snapshot().Policies() }

// Query runs a compliance check with the session's assertions and value
// order. Requesters that have been revoked fail closed to _MIN_TRUST.
// The check runs lock-free against the current snapshot and evaluates
// only the assertions on the requesting principals' delegation paths.
func (s *Session) Query(attributes map[string]string, requesters ...Principal) (Result, error) {
	return s.Snapshot().Query(attributes, requesters...)
}
