package anonymizer

import (
	"fmt"
	"sync"
	"time"

	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/temporal"
)

// Registration holds the server-side secret state of one cloaked location:
// the published region, the per-level keys that make it reversible, and
// the owner's access-control policy. The fields never leave the server; a
// Registration crosses package boundaries only as an opaque handle.
type Registration struct {
	region *cloak.CloakedRegion
	// keySet holds stored key material (schema v2 and earlier, plus
	// registrations built by embedders/benchmarks). Derived registrations
	// leave it nil and carry a key reference instead: the keyring, the
	// master-key epoch and level count that re-derive the per-level keys
	// from the registration's ID on demand. Exactly one of the two forms
	// is populated.
	keySet *keys.Set
	// Key reference (derived registrations only).
	keyring   *keys.Keyring
	keyEpoch  uint32
	keyID     string
	keyLevels int
	policy    *accessctl.Policy
	// expiresAt is the registration's expiry instant in unix nanoseconds;
	// 0 means the registration lives until deregistered. Expiry ends the
	// region's recoverability exactly like a deregistration — the
	// reversibility contract is time-bounded when a TTL is set.
	expiresAt int64
}

// NewDerivedRegistration assembles a registration whose per-level keys
// are re-derived from kr on demand rather than stored: the durable record
// for it carries only (id, epoch, levels) and no key material. The caller
// must have cut the region with kr.DeriveSet(epoch, id, levels) — the
// store trusts the reference, it cannot check the region against it.
func NewDerivedRegistration(
	region *cloak.CloakedRegion,
	kr *keys.Keyring, epoch uint32, id string, levels int,
	policy *accessctl.Policy,
) *Registration {
	return &Registration{
		region: region, keyring: kr, keyEpoch: epoch, keyID: id,
		keyLevels: levels, policy: policy,
	}
}

// derived reports whether the registration resolves keys through a
// keyring reference instead of stored material.
func (r *Registration) derived() bool { return r.keySet == nil }

// KeyEpoch returns the master-key epoch a derived registration was cut
// under, or 0 for stored-key registrations.
func (r *Registration) KeyEpoch() uint32 {
	if r.derived() {
		return r.keyEpoch
	}
	return 0
}

// keys resolves the registration's per-level key set: stored material
// as-is, or a fresh derivation through the key reference.
func (r *Registration) keys() (*keys.Set, error) {
	if !r.derived() {
		return r.keySet, nil
	}
	if r.keyring == nil {
		return nil, fmt.Errorf("anonymizer: registration %q has no keyring to derive from", r.keyID)
	}
	return r.keyring.DeriveSet(r.keyEpoch, r.keyID, r.keyLevels)
}

// NewRegistration assembles a registration from its parts. The server
// builds registrations itself on anonymize requests; this constructor
// exists for store benchmarks and alternative frontends.
func NewRegistration(region *cloak.CloakedRegion, ks *keys.Set, policy *accessctl.Policy) *Registration {
	return &Registration{region: region, keySet: ks, policy: policy}
}

// Region returns the published cloaked region (not a copy; treat it as
// read-only).
func (r *Registration) Region() *cloak.CloakedRegion { return r.region }

// Levels returns the number of keyed privacy levels.
func (r *Registration) Levels() int {
	if r.derived() {
		return r.keyLevels
	}
	return r.keySet.Levels()
}

// SetExpiry bounds the registration's lifetime: after t the registration
// is treated as unknown and the GC sweeper reclaims it. The zero time
// clears the bound (live until deregistered). Call before Register; a
// stored registration's expiry must not be mutated.
func (r *Registration) SetExpiry(t time.Time) {
	if t.IsZero() {
		r.expiresAt = 0
		return
	}
	r.expiresAt = t.UnixNano()
}

// Expiry returns the registration's expiry instant (zero = never).
func (r *Registration) Expiry() time.Time {
	if r.expiresAt == 0 {
		return time.Time{}
	}
	return time.Unix(0, r.expiresAt).UTC()
}

// expiredAt reports whether the registration's TTL has elapsed at now
// (unix nanoseconds).
func (r *Registration) expiredAt(now int64) bool {
	return r.expiresAt != 0 && r.expiresAt <= now
}

// DefaultLevel returns the access level the policy grants requesters
// without an explicit entitlement.
func (r *Registration) DefaultLevel() int { return r.policy.DefaultLevel() }

// Grants returns the policy's explicit per-requester entitlements (a
// copy; mutating it changes nothing).
func (r *Registration) Grants() map[string]int { return r.policy.Grants() }

// Reduce peels the registration's region down to level with the
// registration's own keys — the operator-tooling counterpart of the
// server-side reduce, used by `anonymizer dump` to verify that a restored
// or resharded store still reduces every region identically. Levels at or
// above the published one return a clone of the published region.
func (r *Registration) Reduce(engine *cloak.Engine, level int) (*cloak.CloakedRegion, error) {
	if level >= r.Levels() {
		return r.region.Clone(), nil
	}
	ks, err := r.keys()
	if err != nil {
		return nil, err
	}
	grant, err := ks.Grant(level)
	if err != nil {
		return nil, err
	}
	return engine.Deanonymize(r.region, grant, level)
}

// withDefaultExpiry returns reg, or — when reg carries no expiry of its
// own and the store has a default TTL — a shallow copy carrying the
// default. Copying (rather than mutating reg) keeps registering one
// prototype Registration many times safe.
func withDefaultExpiry(reg *Registration, ttl time.Duration, now time.Time) *Registration {
	if ttl <= 0 || reg.expiresAt != 0 {
		return reg
	}
	cp := *reg
	cp.expiresAt = now.Add(ttl).UnixNano()
	return &cp
}

// Store holds the server-side registrations. Implementations must be safe
// for concurrent use. The built-in implementation is DurableStore in
// either of its two modes: memory-only (NewShardedStore, the server's
// default) or journaled to a data directory (OpenDurableStore). Other
// backends (replicated, remote, ...) can slot in behind the server.
//
// Every mutation of registration state flows through the Store as a typed
// Mutation — register, set-trust, deregister, touch, expire — applied by
// one shared implementation (regTable.apply), so a journaled store can
// write-ahead-log each one and replay it identically.
type Store interface {
	// Register stores a registration and returns its fresh region ID. A
	// durable store returns an error when the registration could not be
	// made durable under its fsync policy; the registration is then not
	// acknowledged to the client.
	Register(reg *Registration) (string, error)
	// AllocateID hands out a fresh region ID without registering
	// anything. Derived-key registration needs it: the per-level keys are
	// derived from the ID, so the ID must exist before the region is cut.
	AllocateID() string
	// Lookup resolves a region ID. It returns ErrUnknownRegion (wrapped)
	// for IDs that were never registered, were deregistered, or whose TTL
	// has elapsed — expiry is effective immediately, before the sweeper
	// reclaims the entry.
	Lookup(id string) (*Registration, error)
	// SetTrust updates the registration's access-control policy for one
	// requester (and journals the change in durable implementations).
	SetTrust(id, requester string, toLevel int) error
	// Deregister removes a registration, ending the region's
	// recoverability: after it returns, the keys are gone and no requester
	// can reduce the region again.
	Deregister(id string) error
	// Touch renews a live registration's lease: the expiry becomes ttl
	// from now (ttl <= 0 selects the store's default TTL; with no default
	// either, the bound is cleared and the registration lives until
	// deregistered). It returns the new expiry instant (zero when the
	// bound was cleared). Durable implementations journal the renewal so
	// recovery replays it.
	Touch(id string, ttl time.Duration) (time.Time, error)
	// Len reports the number of stored registrations, counting expired
	// entries the sweeper has not yet reclaimed.
	Len() int
	// SweepExpired reclaims every registration whose TTL has elapsed
	// (as expire mutations through the shared apply path) and reports
	// how many it removed. The background sweeper calls it on its GC
	// interval; it is part of the interface so operators can force a
	// pass when the background sweeper is disabled.
	SweepExpired() (int, error)
	// Close stops background work (GC sweeper, sync and snapshot loops)
	// and releases resources; later mutations fail with ErrStoreClosed.
	// The server closes the store it created itself; a store installed
	// with WithStore is closed by its owner.
	Close() error
}

// DefaultShards is the shard count of the memory-only store: enough to
// keep shard contention negligible at hundreds of concurrent connections
// while staying cache-friendly.
const DefaultShards = 64

// DefaultRegistrationTTL is the registration lifetime `anonymizer serve`
// applies by default, derived from the temporal cloak: a request is only
// temporally relevant while the coarsest tolerance window that contains
// it can still be current, so twice the default sigma_t window bounds the
// useful life of its reversibility (the window that contains the request
// plus the one in flight).
const DefaultRegistrationTTL = 2 * temporal.DefaultSigmaT

// DefaultGCInterval is the default period of the expiry sweeper.
const DefaultGCInterval = time.Minute

// StoreOption is DurabilityOption under the name existing callers use.
type StoreOption = DurabilityOption

// WithStoreTTL is WithTTL under the name existing callers use.
func WithStoreTTL(d time.Duration) StoreOption { return WithTTL(d) }

// WithStoreGCInterval is WithGCInterval under the name existing callers use.
func WithStoreGCInterval(d time.Duration) StoreOption { return WithGCInterval(d) }

// shardIndex maps a region ID to a shard index by FNV-1a hash, inlined
// over the string so the hot path (every store touch of every request)
// stays allocation-free.
func shardIndex(id string, mask uint32) uint32 {
	h := uint32(2166136261) // FNV-1a offset basis
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619 // FNV prime
	}
	return h & mask
}

// tickLoop runs fn every period until stop closes — the shared shape of
// every store background loop (GC sweep, WAL sync, snapshot compaction).
// The caller has already added the goroutine to wg.
func tickLoop(wg *sync.WaitGroup, stop <-chan struct{}, period time.Duration, fn func()) {
	defer wg.Done()
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			fn()
		case <-stop:
			return
		}
	}
}
