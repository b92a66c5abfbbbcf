package sweepfarm

import "time"

// ArtifactStore is the farm's view of the content-addressed artefact store.
// *runstore.Store implements it; the fault-injection harness wraps it with
// torn writes and the tests with in-memory fakes. Keys are content
// addresses, so concurrent writers of one key write the same bytes and
// last-write-wins is safe. The farm reads with Get and writes with one Put;
// a torn write (a non-atomic filesystem, a crashed process) is caught by the
// coordinator's Verify. The farm no longer calls the claim methods: they
// remain for stores that wrap a *runstore.Store and forward its whole API.
type ArtifactStore interface {
	// Get returns the artefact under key; ok=false when absent.
	Get(key string) (data []byte, ok bool, err error)
	// Put persists data under key atomically.
	Put(key string, data []byte) error
	// Claim takes the advisory per-key write claim for owner; ok=false
	// when another owner holds it.
	Claim(key, owner string) (ok bool, err error)
	// Release drops the advisory claim on key (any owner's; the caller's
	// own claim on the happy path).
	Release(key string) error
	// ClaimInfo reports the current claim holder and when the claim was
	// taken; held=false when the key is unclaimed.
	ClaimInfo(key string) (owner string, since time.Time, held bool, err error)
	// BreakClaim removes key's claim only if it is still exactly the claim
	// the caller observed via ClaimInfo — same owner, same take time.
	// broken=false means the claim changed hands (or vanished) since the
	// observation, so nothing was removed: the conditional form is what
	// keeps a staleness-based break from destroying a fresh live claim
	// taken in the check-then-act window.
	BreakClaim(key, owner string, since time.Time) (broken bool, err error)
}
