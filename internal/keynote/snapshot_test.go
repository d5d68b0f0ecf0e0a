package keynote

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the read-mostly session: snapshot immutability, the
// licensee-indexed (pruned) query path, volatile-attribute tracking,
// and -race concurrency of Query against mutations.

// TestSnapshotPrunedQueryMatchesFullEvaluate: the indexed query over the
// requester's delegation graph must agree with a full evaluation over
// every assertion in the session, including with bystander credentials
// that the requester cannot reach and with self-licensing assertions,
// which the index leaves out.
func TestSnapshotPrunedQueryMatchesFullEvaluate(t *testing.T) {
	s, admin, bob, alice := newTestSession(t)
	add := func(c *Assertion) *Assertion {
		t.Helper()
		if err := s.AddCredential(c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Chain: POLICY -> admin -> bob -> alice.
	add(mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" && HANDLE == "5" -> "RW";`,
	}))
	add(mustSign(t, bob, AssertionSpec{
		Licensees:  LicenseesOr(alice.Principal),
		Conditions: `app_domain == "DisCFS" && HANDLE == "5" -> "R";`,
	}))
	// Bystanders: delegations to unrelated principals that alice's graph
	// never reaches. The pruned query must skip them without changing
	// the answer.
	for i := 0; i < 16; i++ {
		other := DeterministicKey(fmt.Sprintf("bystander-%d", i))
		add(mustSign(t, admin, AssertionSpec{
			Licensees:  LicenseesOr(other.Principal),
			Conditions: `app_domain == "DisCFS" -> "RWX";`,
		}))
	}
	// Self-licensing assertions on the chain: the server's creator
	// credentials (admin licensing admin, one per object), the "A && A"
	// and "1-of(A, A)" forms, and one authored by a requester.
	var self []*Assertion
	for i := 0; i < 64; i++ {
		self = append(self, add(mustSign(t, admin, AssertionSpec{
			Licensees:  LicenseesOr(admin.Principal),
			Conditions: fmt.Sprintf(`app_domain == "DisCFS" && HANDLE == "%d" -> "RWX";`, i),
		})))
	}
	self = append(self,
		add(mustSign(t, admin, AssertionSpec{
			Licensees:  LicenseesAnd(admin.Principal, admin.Principal),
			Conditions: `app_domain == "DisCFS" -> "RWX";`,
		})),
		add(mustSign(t, admin, AssertionSpec{
			Licensees:  LicenseesThreshold(1, admin.Principal, admin.Principal),
			Conditions: `app_domain == "DisCFS" -> "RWX";`,
		})),
		add(mustSign(t, bob, AssertionSpec{
			Licensees:  LicenseesOr(bob.Principal),
			Conditions: `app_domain == "DisCFS" -> "RWX";`,
		})))
	// "A && B" authored by A names someone other than its authorizer, so
	// it stays in the index: with bob it raises admin's value no further
	// than admin already holds, but it must still be evaluated.
	joint := add(mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesAnd(admin.Principal, bob.Principal),
		Conditions: `app_domain == "DisCFS" -> "RWX";`,
	}))
	isSelf := make(map[*Assertion]bool, len(self))
	for _, a := range self {
		isSelf[a] = true
	}
	snap := s.Snapshot()
	for _, attrs := range []map[string]string{
		{"app_domain": "DisCFS", "HANDLE": "5"},
		{"app_domain": "DisCFS", "HANDLE": "63"},
		{"app_domain": "other", "HANDLE": "5"},
	} {
		for _, req := range []Principal{alice.Principal, bob.Principal, admin.Principal,
			DeterministicKey("stranger").Principal} {
			pruned, err := snap.Query(attrs, req)
			if err != nil {
				t.Fatalf("snapshot query(%s): %v", req.Short(), err)
			}
			full, err := Evaluate(snap.Policies(), snap.Credentials(), Query{
				Values:     snap.Values(),
				Attributes: attrs,
				Requesters: []Principal{req},
			})
			if err != nil {
				t.Fatalf("full evaluate(%s): %v", req.Short(), err)
			}
			if pruned != full {
				t.Errorf("requester %s, %v: pruned = %+v, full = %+v", req.Short(), attrs, pruned, full)
			}
		}
	}
	for _, req := range []Principal{alice.Principal, bob.Principal, admin.Principal} {
		_, creds := snap.relevant([]Principal{req})
		sawJoint := false
		for _, a := range creds {
			if isSelf[a] {
				t.Errorf("requester %s: relevant returned a self-licensing assertion: %s", req.Short(), a.Source)
			}
			sawJoint = sawJoint || a == joint
		}
		if req != admin.Principal && !sawJoint {
			t.Errorf("requester %s: relevant skipped the admin && bob assertion", req.Short())
		}
	}
}

// TestSnapshotPrunedQueryThreshold: k-of licensee expressions span
// principals on and off the requester's reachable set; pruning must
// still collect the threshold assertion (it mentions the requester) and
// evaluate it identically.
func TestSnapshotPrunedQueryThreshold(t *testing.T) {
	s, admin, bob, alice := newTestSession(t)
	// admin delegates to 2-of(bob, alice, carol); bob and alice request
	// together.
	carol := DeterministicKey("carol")
	cred := mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesThreshold(2, bob.Principal, alice.Principal, carol.Principal),
		Conditions: `app_domain == "DisCFS" -> "RW";`,
	})
	if err := s.AddCredential(cred); err != nil {
		t.Fatal(err)
	}
	attrs := map[string]string{"app_domain": "DisCFS"}
	res, err := s.Query(attrs, bob.Principal, alice.Principal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "RW" {
		t.Errorf("2-of-3 quorum = %q, want RW", res.Value)
	}
	// One requester alone does not meet the threshold.
	res, err = s.Query(attrs, bob.Principal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "false" {
		t.Errorf("1-of-3 = %q, want false", res.Value)
	}
}

// TestSnapshotImmutable: a snapshot taken before a mutation keeps
// answering with the old assertion set and generation, through adds and
// through revocations that rewrite the same licensee's index entry.
func TestSnapshotImmutable(t *testing.T) {
	s, admin, bob, _ := newTestSession(t)
	before := s.Snapshot()
	genBefore := before.Generation()
	cred := mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" -> "R";`,
	})
	if err := s.AddCredential(cred); err != nil {
		t.Fatal(err)
	}
	attrs := map[string]string{"app_domain": "DisCFS"}
	res, err := before.Query(attrs, bob.Principal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "false" {
		t.Errorf("old snapshot sees new credential: %q", res.Value)
	}
	if before.Generation() != genBefore {
		t.Errorf("old snapshot generation moved")
	}
	res, err = s.Query(attrs, bob.Principal)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "R" {
		t.Errorf("live session = %q, want R", res.Value)
	}
	if s.Generation() != genBefore+1 {
		t.Errorf("generation = %d, want %d", s.Generation(), genBefore+1)
	}

	// More credentials for bob, one through a second delegator (carol),
	// then revocations that drop some of them again. Every snapshot
	// taken on the way must keep its Query, Credentials and Revoked
	// answers.
	carol := DeterministicKey("carol")
	type view struct {
		snap  *Snapshot
		value string
		creds []*Assertion
		carol bool
	}
	var views []view
	record := func() {
		snap := s.Snapshot()
		res, err := snap.Query(attrs, bob.Principal)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, view{snap, res.Value, snap.Credentials(), snap.Revoked(carol.Principal)})
	}
	add := func(key *KeyPair, lic Principal, value string) *Assertion {
		t.Helper()
		c := mustSign(t, key, AssertionSpec{
			Licensees:  LicenseesOr(lic),
			Conditions: `app_domain == "DisCFS" -> "` + value + `";`,
		})
		if err := s.AddCredential(c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	record()
	rw := add(admin, bob.Principal, "RW")
	add(admin, carol.Principal, "RWX")
	add(carol, bob.Principal, "RWX")
	record()
	if !s.RevokeCredential(rw.SignatureValue) {
		t.Fatal("RevokeCredential removed nothing")
	}
	record()
	if n := s.RevokeKey(carol.Principal); n != 1 {
		t.Fatalf("RevokeKey removed %d credentials, want 1", n)
	}
	record()
	add(admin, bob.Principal, "WX")
	add(admin, bob.Principal, "RX")
	record()
	want := []struct {
		value string
		creds int
		carol bool
	}{{"R", 1, false}, {"RWX", 4, false}, {"RWX", 3, false}, {"R", 2, true}, {"RX", 4, true}}
	for i, v := range views {
		res, err := v.snap.Query(attrs, bob.Principal)
		if err != nil {
			t.Fatal(err)
		}
		creds := v.snap.Credentials()
		if res.Value != v.value || res.Value != want[i].value {
			t.Errorf("snapshot %d: query = %q, was %q, want %q", i, res.Value, v.value, want[i].value)
		}
		if len(creds) != len(v.creds) || len(creds) != want[i].creds {
			t.Errorf("snapshot %d: %d credentials, was %d, want %d", i, len(creds), len(v.creds), want[i].creds)
		} else {
			for j := range creds {
				if creds[j] != v.creds[j] {
					t.Errorf("snapshot %d: credential %d changed", i, j)
				}
			}
		}
		if got := v.snap.Revoked(carol.Principal); got != v.carol || got != want[i].carol {
			t.Errorf("snapshot %d: carol revoked = %v, was %v, want %v", i, got, v.carol, want[i].carol)
		}
	}
}

// TestAddCredentialAllocs: adding a credential publishes a snapshot at
// the cost of the change, so its allocation count must not grow with
// the number of credentials already installed.
func TestAddCredentialAllocs(t *testing.T) {
	s, admin, _, _ := newTestSession(t)
	cred := func(i int) *Assertion {
		return mustSign(t, admin, AssertionSpec{
			Licensees:  LicenseesOr(Principal(fmt.Sprintf("collaborator-%d", i))),
			Conditions: fmt.Sprintf(`app_domain == "DisCFS" && HANDLE == "%d" -> "R";`, i),
		})
	}
	const preload, runs = 8192, 32
	for i := 0; i < preload; i++ {
		if err := s.AddCredential(cred(i)); err != nil {
			t.Fatal(err)
		}
	}
	extra := make([]*Assertion, runs+1)
	for i := range extra {
		extra[i] = cred(preload + i)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := s.AddCredential(extra[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if n := s.Snapshot().NumCredentials(); n != preload+runs+1 {
		t.Fatalf("%d credentials installed, want %d", n, preload+runs+1)
	}
	if allocs > 64 {
		t.Errorf("AddCredential onto %d credentials: %.0f allocations, want <= 64", preload, allocs)
	}
}

// TestVolatileAttributeTracking: snapshots report whether any assertion
// references a volatile attribute, through additions and removals.
func TestVolatileAttributeTracking(t *testing.T) {
	s, admin, bob, _ := newTestSession(t)
	s.SetVolatileAttributes("hour", "minute", "weekday", "now")
	if s.Snapshot().Volatile() {
		t.Fatal("fresh session volatile")
	}
	timed := mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" && hour == "12" -> "R";`,
	})
	if err := s.AddCredential(timed); err != nil {
		t.Fatal(err)
	}
	if !s.Snapshot().Volatile() {
		t.Fatal("hour-gated credential not detected as volatile")
	}
	// Removing the only time-dependent assertion clears the flag.
	if !s.RevokeCredential(timed.SignatureValue) {
		t.Fatal("revoke failed")
	}
	if s.Snapshot().Volatile() {
		t.Error("volatile flag survived removal of the timed credential")
	}
}

// TestQueryLockFreeUnderMutation runs parallel queries against
// concurrent credential additions and revocations (-race), checking
// that observed generations are monotonic and results are always one of
// the legal values for the evolving session. Alice's index entry is
// appended to and rebuilt while readers walk it.
func TestQueryLockFreeUnderMutation(t *testing.T) {
	s, admin, bob, alice := newTestSession(t)
	adminToBob := mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" -> "RW";`,
	})
	if err := s.AddCredential(adminToBob); err != nil {
		t.Fatal(err)
	}
	bobToAlice := func(i int) *Assertion {
		return mustSign(t, bob, AssertionSpec{
			Licensees:  LicenseesOr(alice.Principal),
			Conditions: fmt.Sprintf(`app_domain == "DisCFS" && churn != "%d" -> "R";`, i),
		})
	}
	if err := s.AddCredential(bobToAlice(-1)); err != nil {
		t.Fatal(err)
	}
	attrs := map[string]string{"app_domain": "DisCFS"}
	stop := make(chan struct{})
	var failures atomic.Uint64
	var readers, writer sync.WaitGroup
	// Readers: query bob continuously, watching generation monotonicity.
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				if gen := snap.Generation(); gen < lastGen {
					failures.Add(1)
					return
				} else {
					lastGen = gen
				}
				res, err := snap.Query(attrs, bob.Principal)
				if err != nil || (res.Value != "RW" && res.Value != "false") {
					failures.Add(1)
					return
				}
				res, err = snap.Query(attrs, alice.Principal)
				if err != nil || res.Value != "R" || len(snap.Credentials()) != snap.NumCredentials() {
					failures.Add(1)
					return
				}
			}
		}()
	}
	// Writer: churn delegations and revocations.
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < 200; i++ {
			k := DeterministicKey(fmt.Sprintf("churn-%d", i))
			cred := mustSign(t, bob, AssertionSpec{
				Licensees:  LicenseesOr(k.Principal),
				Conditions: `app_domain == "DisCFS" -> "R";`,
			})
			if err := s.AddCredential(cred); err != nil {
				failures.Add(1)
				return
			}
			if i%3 == 0 {
				s.RevokeCredential(cred.SignatureValue)
			}
			if i%17 == 16 {
				s.RevokeKey(k.Principal)
			}
			toAlice := bobToAlice(i)
			if err := s.AddCredential(toAlice); err != nil {
				failures.Add(1)
				return
			}
			if i%2 == 0 {
				s.RevokeCredential(toAlice.SignatureValue)
			}
		}
	}()
	writer.Wait()
	close(stop)
	readers.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d reader/writer failures", n)
	}
}

// TestGenerationCountsMutations: every kind of mutation bumps the
// generation exactly once; no-op mutations do not.
func TestGenerationCountsMutations(t *testing.T) {
	s, admin, bob, _ := newTestSession(t)
	g0 := s.Generation()
	cred := mustSign(t, admin, AssertionSpec{
		Licensees:  LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" -> "R";`,
	})
	if err := s.AddCredential(cred); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != g0+1 {
		t.Fatalf("gen after add = %d, want %d", s.Generation(), g0+1)
	}
	// Duplicate submission: no change.
	if err := s.AddCredential(cred); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != g0+1 {
		t.Errorf("gen after duplicate add = %d, want %d", s.Generation(), g0+1)
	}
	// Revoking an unknown signature: nothing removed, but the signature
	// is recorded permanently (and logged for the feed) so a later
	// submission is refused — recording it is a mutation.
	if s.RevokeCredential("sig-ed25519-hex:nope") {
		t.Error("revoked a nonexistent credential")
	}
	if s.Generation() != g0+2 {
		t.Errorf("gen after unknown-sig revoke = %d, want %d", s.Generation(), g0+2)
	}
	// Revoking the same signature again: no change.
	if s.RevokeCredential("sig-ed25519-hex:nope") {
		t.Error("revoked a nonexistent credential twice")
	}
	if s.Generation() != g0+2 {
		t.Errorf("gen after repeat revoke = %d, want %d", s.Generation(), g0+2)
	}
	if !s.RevokeCredential(cred.SignatureValue) {
		t.Error("revoke failed")
	}
	if s.Generation() != g0+3 {
		t.Errorf("gen after revoke = %d, want %d", s.Generation(), g0+3)
	}
}
