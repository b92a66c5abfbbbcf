package runstore

import (
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"time"
)

// Advisory per-key write claims. A claim is a `<key>.lock` file next to the
// artefact holding the claimant's name; it is taken with O_CREATE|O_EXCL
// (atomic on POSIX filesystems), so exactly one of two racing workers wins.
// Claims are advisory: Put itself stays atomic (temp file + rename) and
// never requires one, but a writer that cannot guarantee atomicity — or a
// farm that wants torn-write protection even against crashed writers —
// brackets its write with Claim/Release so a reader can tell "someone is
// mid-write" from "this artefact is whole". Staleness is the caller's
// policy: ClaimInfo exposes the claim's age and Release breaks any holder's
// claim, so a caller with a clock decides when a holder is presumed dead.
// The sweep farm no longer calls these: its workers publish with one atomic
// Put, and its coordinator verifies every artefact it reads.

// claimPath maps a key to its advisory lock file.
func (s *Store) claimPath(key string) (string, error) {
	p, err := s.path(key)
	if err != nil {
		return "", err
	}
	return strings.TrimSuffix(p, ".json") + ".lock", nil
}

// Claim takes the advisory write claim on key for owner. ok=false means
// another owner holds it (read who and since when with ClaimInfo).
func (s *Store) Claim(key, owner string) (ok bool, err error) {
	p, err := s.claimPath(key)
	if err != nil {
		return false, err
	}
	if err := s.fsys.MkdirAll(dirOf(p), 0o755); err != nil {
		return false, fmt.Errorf("runstore: %w", err)
	}
	err = s.fsys.WriteFileExcl(p, []byte(owner))
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return false, nil
		}
		return false, fmt.Errorf("runstore: claiming %q: %w", key, err)
	}
	return true, nil
}

// Release drops the claim on key, whoever holds it — breaking a crashed
// writer's stale claim is deliberately allowed; the caller decides
// staleness from ClaimInfo's age. Releasing an unclaimed key is a no-op.
func (s *Store) Release(key string) error {
	p, err := s.claimPath(key)
	if err != nil {
		return err
	}
	if err := s.fsys.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("runstore: releasing %q: %w", key, err)
	}
	return nil
}

// ClaimInfo reports key's current claim: the owner string and the claim
// file's modification time (its age on the caller's clock is the staleness
// signal). held=false when the key is unclaimed.
func (s *Store) ClaimInfo(key string) (owner string, since time.Time, held bool, err error) {
	p, err := s.claimPath(key)
	if err != nil {
		return "", time.Time{}, false, err
	}
	data, err := s.fsys.ReadFile(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return "", time.Time{}, false, nil
		}
		return "", time.Time{}, false, fmt.Errorf("runstore: %w", err)
	}
	fi, err := s.fsys.Stat(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return "", time.Time{}, false, nil // released between read and stat
		}
		return "", time.Time{}, false, fmt.Errorf("runstore: %w", err)
	}
	return string(data), fi.ModTime(), true, nil
}

// BreakClaim removes key's claim only if it is still the exact claim the
// caller observed: same owner and same modification time as a prior
// ClaimInfo read. It returns broken=false — and removes nothing — when the
// claim has changed hands (the observed holder released and another owner
// claimed afresh) or vanished. Unconditional Release cannot make that
// distinction, which is how a staleness-based break could destroy a fresh
// live claim; BreakClaim narrows the window to the re-check itself.
func (s *Store) BreakClaim(key, owner string, since time.Time) (broken bool, err error) {
	p, err := s.claimPath(key)
	if err != nil {
		return false, err
	}
	cur, curSince, held, err := s.ClaimInfo(key)
	if err != nil {
		return false, err
	}
	if !held || cur != owner || !curSince.Equal(since) {
		return false, nil
	}
	if err := s.fsys.Remove(p); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil // released between the re-check and the remove
		}
		return false, fmt.Errorf("runstore: breaking claim on %q: %w", key, err)
	}
	return true, nil
}
