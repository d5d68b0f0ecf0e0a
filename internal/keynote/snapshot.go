package keynote

// Snapshot is an immutable view of a Session's assertion set. Queries
// run against a snapshot without taking any lock: the session publishes
// a new snapshot (copy-on-write) on every mutation, and a snapshot once
// obtained never changes, so a decision and the generation it was
// computed under are consistent by construction.
type Snapshot struct {
	values []string
	// policies, creds and revlog grow by appending in place: a snapshot
	// is never written once published and only the newest one is ever
	// extended, so an older snapshot's shorter slice never sees the
	// appended entries. Removal builds a new slice.
	policies []*Assertion
	creds    []*Assertion
	// byLicensee indexes assertions (policy and credential) by each
	// principal their Licensees field mentions. Query walks this index
	// from the requester toward POLICY instead of scanning the whole
	// session: an assertion that licenses none of the principals
	// reachable from the requester can only ever contribute _MIN_TRUST,
	// so skipping it never changes the result. Self-licensing assertions
	// are not indexed at all (see indexKeys).
	byLicensee cowMap[Principal, []*Assertion]
	revoked    cowMap[Principal, bool]
	// revokedSigs records every credential signature ever revoked.
	// Unlike removal of the credential, this set is permanent: a revoked
	// credential stays refused on resubmission, so a replication layer
	// can apply a signature revocation before (or after) the credential
	// itself arrives and the outcome is the same.
	revokedSigs cowMap[string, bool]
	// revlog is the append-only revocation log: one entry per RevokeKey
	// or (first) RevokeCredential, in application order. Seq is 1-based
	// and monotonic, so replication cursors are just log positions.
	revlog []Revocation
	gen    uint64
	// volatile records whether any assertion's conditions reference one
	// of the session's volatile attributes (e.g. time of day). Decision
	// caches use it to bound how long a result may be reused.
	volatile bool
}

// Generation returns the mutation counter the snapshot was published at.
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// Volatile reports whether any assertion references a volatile action
// attribute (see Session.SetVolatileAttributes).
func (sn *Snapshot) Volatile() bool { return sn.volatile }

// Values returns the snapshot's ordered compliance value set.
func (sn *Snapshot) Values() []string {
	out := make([]string, len(sn.values))
	copy(out, sn.values)
	return out
}

// Credentials returns the verified credentials in the snapshot.
func (sn *Snapshot) Credentials() []*Assertion {
	out := make([]*Assertion, len(sn.creds))
	copy(out, sn.creds)
	return out
}

// Policies returns the policy assertions in the snapshot.
func (sn *Snapshot) Policies() []*Assertion {
	out := make([]*Assertion, len(sn.policies))
	copy(out, sn.policies)
	return out
}

// NumCredentials returns the credential count without copying.
func (sn *Snapshot) NumCredentials() int { return len(sn.creds) }

// Revoked reports whether a principal has been revoked in this snapshot.
func (sn *Snapshot) Revoked(p Principal) bool {
	c, err := canonicalPrincipal(string(p))
	if err != nil {
		c = p
	}
	return sn.revoked.get(c)
}

// RevokedCredential reports whether a credential signature has been
// revoked in this snapshot. Signature revocations are permanent: the
// credential is refused on resubmission even after removal.
func (sn *Snapshot) RevokedCredential(sig string) bool { return sn.revokedSigs.get(sig) }

// Revocations returns a copy of the log entries with Seq > since (pass
// 0 for the whole log). Entries are ordered and Seq is dense, so a
// replication cursor is simply the last Seq it has consumed.
func (sn *Snapshot) Revocations(since uint64) []Revocation {
	if since >= uint64(len(sn.revlog)) {
		return nil
	}
	return append([]Revocation(nil), sn.revlog[since:]...)
}

// RevocationSeq returns the sequence number of the newest revocation
// log entry (0 when nothing has been revoked).
func (sn *Snapshot) RevocationSeq() uint64 { return uint64(len(sn.revlog)) }

// relevant collects the assertions on delegation paths from the
// requesters toward POLICY: breadth-first over the licensee index,
// following each collected assertion's authorizer upward. Principals a
// requester cannot reach hold _MIN_TRUST in the evaluation fixpoint, so
// assertions licensing only such principals are sound to omit; the
// index holds no self-licensing assertions either (see indexKeys).
func (sn *Snapshot) relevant(requesters []Principal) (pols, creds []*Assertion) {
	reached := make(map[Principal]bool, len(requesters)+8)
	queue := make([]Principal, 0, len(requesters)+8)
	for _, r := range requesters {
		if !reached[r] {
			reached[r] = true
			queue = append(queue, r)
		}
	}
	picked := make(map[*Assertion]bool, 8)
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, a := range sn.byLicensee.get(p) {
			if picked[a] {
				continue
			}
			picked[a] = true
			if a.Authorizer == PolicyPrincipal {
				pols = append(pols, a)
				continue
			}
			creds = append(creds, a)
			if !reached[a.Authorizer] {
				reached[a.Authorizer] = true
				queue = append(queue, a.Authorizer)
			}
		}
	}
	return pols, creds
}

// Query runs a compliance check against the snapshot. It takes no lock
// and evaluates only the assertions relevant returns.
// Requesters that have been revoked fail closed to _MIN_TRUST.
func (sn *Snapshot) Query(attributes map[string]string, requesters ...Principal) (Result, error) {
	canon := make([]Principal, len(requesters))
	for i, r := range requesters {
		c, err := canonicalPrincipal(string(r))
		if err != nil {
			return Result{}, err
		}
		if sn.revoked.get(c) {
			return Result{Value: sn.values[0], Index: 0}, nil
		}
		canon[i] = c
	}
	pols, creds := sn.relevant(canon)
	return Evaluate(pols, creds, Query{
		Values:     sn.values,
		Attributes: attributes,
		Requesters: canon,
	})
}

// ---- construction (called by Session under its writer lock) ----

// clone returns the next snapshot for a mutation. It shares every
// container with sn (see the Snapshot field comments); the assertions
// themselves are immutable.
func (sn *Snapshot) clone() *Snapshot {
	next := *sn
	next.byLicensee = sn.byLicensee.clone()
	next.revoked = sn.revoked.clone()
	next.revokedSigs = sn.revokedSigs.clone()
	return &next
}

// indexKeys returns the principals the licensee index files a under:
// every principal its Licensees field mentions, or none when they all
// name a's own Authorizer ("A", "A && A", "k-of(A, A)"). Such a
// self-licensing assertion gives A at most min(cond, val[A]) <= val[A]
// and nothing to anyone else, so it never moves the evaluation fixpoint;
// the server's creator credential for every object it makes is one.
func (a *Assertion) indexKeys() []Principal {
	ps := a.Licensees()
	for _, p := range ps {
		if p != a.Authorizer {
			return ps
		}
	}
	return nil
}

// index adds one assertion to the licensee index.
func (sn *Snapshot) index(a *Assertion) {
	for _, p := range a.indexKeys() {
		sn.byLicensee.set(p, append(sn.byLicensee.get(p), a))
	}
}

// unindex removes dropped assertions from the licensee index, touching
// only their licensees' entries. The entries are rebuilt, not edited in
// place, because older snapshots share their backing arrays.
func (sn *Snapshot) unindex(dropped map[*Assertion]bool) {
	for a := range dropped {
		for _, p := range a.indexKeys() {
			old := sn.byLicensee.get(p)
			kept := make([]*Assertion, 0, len(old))
			for _, b := range old {
				if !dropped[b] {
					kept = append(kept, b)
				}
			}
			if len(kept) == len(old) {
				continue // already rebuilt for an earlier dropped assertion
			}
			if len(kept) == 0 {
				sn.byLicensee.del(p)
			} else {
				sn.byLicensee.set(p, kept)
			}
		}
	}
}

// removeCreds drops credentials from the snapshot: from creds, from the
// licensee index and, when one of them made the snapshot volatile, from
// the volatile flag.
func (sn *Snapshot) removeCreds(dropped map[*Assertion]bool, volatileAttrs map[string]bool) {
	kept := make([]*Assertion, 0, len(sn.creds)-len(dropped))
	for _, a := range sn.creds {
		if !dropped[a] {
			kept = append(kept, a)
		}
	}
	sn.creds = kept
	sn.unindex(dropped)
	if !sn.volatile {
		return
	}
	for a := range dropped {
		if a.referencesAny(volatileAttrs) {
			sn.recomputeVolatile(volatileAttrs)
			return
		}
	}
}

// recomputeVolatile rescans every assertion (after removals).
func (sn *Snapshot) recomputeVolatile(attrs map[string]bool) {
	sn.volatile = false
	for _, a := range sn.policies {
		if a.referencesAny(attrs) {
			sn.volatile = true
			return
		}
	}
	for _, a := range sn.creds {
		if a.referencesAny(attrs) {
			sn.volatile = true
			return
		}
	}
}

// referencesAny reports whether the assertion's Conditions mention any
// of the named action attributes.
func (a *Assertion) referencesAny(names map[string]bool) bool {
	if len(names) == 0 || a.conditions == nil {
		return false
	}
	return a.conditions.referencesAny(names)
}
