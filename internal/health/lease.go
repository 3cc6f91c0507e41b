package health

import "sort"

// Lease is the master's ownership record for one in-flight block. Tokens are
// monotonically increasing across the whole table, so any re-grant fences
// every copy issued under an earlier token: a late completion presenting a
// stale (owner, token) pair is deterministically discarded.
//
// A lease has one primary slot and at most one speculative slot (the
// first-completion-wins backup copy); either slot's pair admits the block.
type Lease struct {
	Owner     int
	Token     uint64
	SpecOwner int // -1 when no speculative copy is outstanding
	SpecToken uint64

	// The block geometry and retry budget travel with the lease so a
	// suspicion-driven reassignment can relaunch without consulting the
	// (long-gone) original assignment.
	Lo, Hi  int64
	Retries int

	// Lost marks a primary whose copy died with its unit: the copy was
	// settled then, and the block waits on the lease for the failure
	// detector or the unit's recovery to move it.
	Lost bool
}

// LeaseTable maps block seq → lease. Not safe for concurrent use; both
// engines drive it from their single event/drive goroutine.
type LeaseTable struct {
	m    map[int]*Lease
	next uint64 // last token issued; tokens start at 1 so 0 means "no lease"
}

// NewLeaseTable returns an empty table.
func NewLeaseTable() *LeaseTable {
	return &LeaseTable{m: make(map[int]*Lease)}
}

// Len returns the number of outstanding leases.
func (t *LeaseTable) Len() int { return len(t.m) }

// Get returns the lease for seq, or nil if the block is not in flight.
func (t *LeaseTable) Get(seq int) *Lease { return t.m[seq] }

// Grant (re)assigns the primary slot of seq to owner under a fresh token and
// clears any speculative slot: every previously issued copy of the block is
// now fenced. It returns the new token.
func (t *LeaseTable) Grant(seq, owner int, lo, hi int64, retries int) uint64 {
	t.next++
	l := t.m[seq]
	if l == nil {
		l = &Lease{}
		t.m[seq] = l
	}
	*l = Lease{Owner: owner, Token: t.next, SpecOwner: -1,
		Lo: lo, Hi: hi, Retries: retries}
	return t.next
}

// GrantSpec issues a speculative copy of seq to owner, replacing any earlier
// speculative slot. It returns the new token, or 0 if the block is no longer
// leased (completed while the watchdog decision was in flight).
func (t *LeaseTable) GrantSpec(seq, owner int) uint64 {
	l := t.m[seq]
	if l == nil {
		return 0
	}
	t.next++
	l.SpecOwner, l.SpecToken = owner, t.next
	return t.next
}

// Promote turns the speculative slot of seq into the primary: the backup
// copy becomes the block's legitimate owner (its token is preserved, so the
// already-issued copy still admits) and the old primary is fenced. It
// reports whether a speculative slot existed.
func (t *LeaseTable) Promote(seq int) bool {
	l := t.m[seq]
	if l == nil || l.SpecOwner < 0 {
		return false
	}
	l.Owner, l.Token = l.SpecOwner, l.SpecToken
	l.SpecOwner, l.SpecToken = -1, 0
	l.Lost = false
	return true
}

// ClearSpec drops the speculative slot of seq, fencing the backup copy.
func (t *LeaseTable) ClearSpec(seq int) {
	if l := t.m[seq]; l != nil {
		l.SpecOwner, l.SpecToken = -1, 0
	}
}

// TokenFor returns the token under which owner currently holds a slot of
// seq (primary or speculative), or 0 if it holds none.
func (t *LeaseTable) TokenFor(seq, owner int) uint64 {
	l := t.m[seq]
	switch {
	case l == nil:
		return 0
	case l.Owner == owner:
		return l.Token
	case l.SpecOwner == owner:
		return l.SpecToken
	}
	return 0
}

// Admit checks a completion of seq delivered by owner under token against
// the table. A valid pair (either slot) settles the block: the lease is
// removed and Admit returns true. Anything else — no lease, wrong owner,
// stale token — is fenced.
func (t *LeaseTable) Admit(seq, owner int, token uint64) bool {
	l := t.m[seq]
	if l == nil || token == 0 {
		return false
	}
	if (l.Owner == owner && l.Token == token) ||
		(l.SpecOwner == owner && l.SpecToken == token) {
		delete(t.m, seq)
		return true
	}
	return false
}

// Holdings returns the seqs whose primary (and separately, speculative)
// slot is held by owner, each sorted ascending for deterministic iteration.
func (t *LeaseTable) Holdings(owner int) (primary, spec []int) {
	for seq, l := range t.m {
		if l.Owner == owner {
			primary = append(primary, seq)
		} else if l.SpecOwner == owner {
			spec = append(spec, seq)
		}
	}
	sort.Ints(primary)
	sort.Ints(spec)
	return primary, spec
}
