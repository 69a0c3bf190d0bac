package anonymizer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// This file pins the v1→v2 on-disk migration: a per-shard-layout data
// directory (version-1 META, shard-NNNN.snap/.wal files) must open under
// the unified-log engine with identical visible state, watermarks and
// replication streams, survive a crash on either side of the commit
// rename, and the checked-in testdata/v1store fixture must keep matching
// its golden dump.

// copyTree copies a flat data directory (no nesting below one level of
// subdirectories) byte for byte.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			copyTree(t, filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// makeV1Dir builds a version-1-layout data directory holding a small
// mutation log: a live store is populated, closed, archived offline (the
// archive interchange format IS the v1 layout), and restored into dst.
// It returns the issued IDs. The restored directory is verified to carry
// a version-1 META so the tests below genuinely exercise migration.
func makeV1Dir(t *testing.T, dst string, shards, regs int) []string {
	t.Helper()
	src := filepath.Join(t.TempDir(), "v1src")
	st, err := OpenDurableStore(src, WithDurableShards(shards), WithSnapshotEvery(0), WithGCInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < regs; i++ {
		id, err := st.Register(fakeRegistration(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := st.SetTrust(ids[0], "alice", 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Deregister(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var archive bytes.Buffer
	if _, err := BackupDir(&archive, src); err != nil {
		t.Fatal(err)
	}
	if err := RestoreArchive(bytes.NewReader(archive.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	if _, version, err := readMeta(dst); err != nil || version != 1 {
		t.Fatalf("restored dir version = %d, %v; want a version-1 layout", version, err)
	}
	for i := 0; i < shards; i++ {
		if fi, err := os.Stat(filepath.Join(dst, shardWALName(i))); err != nil || fi.Size() == 0 {
			t.Fatalf("restored dir lacks a non-empty %s (err %v): migration would have nothing to fold", shardWALName(i), err)
		}
	}
	return ids
}

// segCount returns how many unified-log segments dir holds.
func segCount(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if segFileName.MatchString(e.Name()) {
			n++
		}
	}
	return n
}

// TestMigrationCrashBeforePublish kills the migration after the segments
// and version-2 META are fully staged but before anything is renamed
// into the data directory. The v1 layout is untouched and authoritative:
// a retry must start over, fold the same records, and recover the full
// state without reissuing an ID.
func TestMigrationCrashBeforePublish(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "v1")
	ids := makeV1Dir(t, dir, 2, 6)

	hookBeforeMigratePublish = func() error { return errSimulatedCrash }
	t.Cleanup(func() { hookBeforeMigratePublish = nil })
	if _, err := OpenDurableStore(dir); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("open with pre-publish crash: err = %v", err)
	}
	// The crash window's on-disk state: v1 META and WALs intact, staged
	// artifacts confined to the staging directory, nothing published.
	if _, version, err := readMeta(dir); err != nil || version != 1 {
		t.Fatalf("META after pre-publish crash: version %d, %v; want untouched v1", version, err)
	}
	if _, err := os.Stat(filepath.Join(dir, shardWALName(0))); err != nil {
		t.Fatalf("v1 WAL gone after pre-publish crash: %v", err)
	}
	if n := segCount(t, dir); n != 0 {
		t.Fatalf("%d log segments published despite pre-publish crash", n)
	}
	if _, err := os.Stat(filepath.Join(dir, migrateTmpName)); err != nil {
		t.Fatalf("staging directory missing after pre-publish crash: %v", err)
	}

	// Retry as a fresh process: the redo must clear the stale staging
	// attempt and complete.
	hookBeforeMigratePublish = nil
	st := openDurable(t, dir)
	if got := st.Len(); got != len(ids)-1 { // one was deregistered
		t.Fatalf("migrated Len = %d, want %d", got, len(ids)-1)
	}
	reg, err := st.Lookup(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if lv, err := reg.policy.LevelFor("alice"); err != nil || lv != 1 {
		t.Errorf("trust lost across crashed migration: LevelFor(alice) = %d, %v", lv, err)
	}
	if _, err := st.Lookup(ids[len(ids)-1]); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("deregistered id resurrected by migration retry: %v", err)
	}
	if _, version, err := readMeta(dir); err != nil || version != storeMetaVersion {
		t.Fatalf("META after completed migration: version %d, %v", version, err)
	}
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(filepath.Join(dir, shardWALName(i))); !os.IsNotExist(err) {
			t.Errorf("retired %s survived the completed migration (stat err %v)", shardWALName(i), err)
		}
	}
	id, err := st.Register(fakeRegistration(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := parseRegionID(id); n <= maxIssuedID(t, ids) {
		t.Errorf("migrated store reissued id %q (max issued %d)", id, maxIssuedID(t, ids))
	}
}

// TestMigrationCrashAfterPublish kills the process after the META rename
// (the commit point) but before the retired v1 WALs are removed. The
// directory is already version 2; the next open must take the v2 path,
// sweep the leftovers, and expose the same state.
func TestMigrationCrashAfterPublish(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "v1")
	ids := makeV1Dir(t, dir, 2, 6)

	hookAfterMigratePublish = func() error { return errSimulatedCrash }
	t.Cleanup(func() { hookAfterMigratePublish = nil })
	if _, err := OpenDurableStore(dir); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("open with post-publish crash: err = %v", err)
	}
	// The crash window's on-disk state: committed v2 layout with retired
	// v1 WALs still lying next to it.
	if _, version, err := readMeta(dir); err != nil || version != storeMetaVersion {
		t.Fatalf("META after post-publish crash: version %d, %v; want committed v2", version, err)
	}
	if n := segCount(t, dir); n == 0 {
		t.Fatal("no log segments despite committed migration")
	}
	if _, err := os.Stat(filepath.Join(dir, shardWALName(0))); err != nil {
		t.Fatalf("retired v1 WAL already gone; the crash window was not reproduced: %v", err)
	}

	hookAfterMigratePublish = nil
	st := openDurable(t, dir)
	if got := st.Len(); got != len(ids)-1 {
		t.Fatalf("Len = %d after post-publish crash recovery, want %d", got, len(ids)-1)
	}
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(filepath.Join(dir, shardWALName(i))); !os.IsNotExist(err) {
			t.Errorf("retired %s not cleaned by v2 open (stat err %v)", shardWALName(i), err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, migrateTmpName)); !os.IsNotExist(err) {
		t.Errorf("staging directory not cleaned by v2 open (stat err %v)", err)
	}
	id, err := st.Register(fakeRegistration(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := parseRegionID(id); n <= maxIssuedID(t, ids) {
		t.Errorf("store reissued id %q after post-publish crash (max issued %d)", id, maxIssuedID(t, ids))
	}
}

// makeV2Dir builds a version-2-layout data directory: the unified-log
// file layout, stored-key records only, and a version-2 META. The layout
// is identical to v3 (the v2→v3 migration is a META-only commit gating
// the derived-key record vocabulary), so a freshly written store is
// lowered by rewriting its META header. Returns the issued IDs.
func makeV2Dir(t *testing.T, dst string, shards, regs int) []string {
	t.Helper()
	st, err := OpenDurableStore(dst, WithDurableShards(shards), WithSnapshotEvery(0), WithGCInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < regs; i++ {
		id, err := st.Register(fakeRegistration(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := st.SetTrust(ids[0], "alice", 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Deregister(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := encodeMetaVersion(shards, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, metaFile), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, version, err := readMeta(dst); err != nil || version != 2 {
		t.Fatalf("lowered dir version = %d, %v; want a version-2 layout", version, err)
	}
	return ids
}

// segBytes returns the concatenated contents of dir's log segments in
// name order — the byte-level identity the META-only v2→v3 migration
// must preserve.
func segBytes(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, e := range entries {
		if !segFileName.MatchString(e.Name()) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw...)
	}
	return out
}

// TestMigrationV2CrashBeforePublish kills the v2→v3 migration after the
// version-3 META is staged but before the commit rename. The v2 META is
// untouched and authoritative; a retry must complete with the same state
// and must not rewrite a single log byte.
func TestMigrationV2CrashBeforePublish(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "v2")
	ids := makeV2Dir(t, dir, 2, 6)
	logBefore := segBytes(t, dir)

	hookBeforeMigratePublish = func() error { return errSimulatedCrash }
	t.Cleanup(func() { hookBeforeMigratePublish = nil })
	if _, err := OpenDurableStore(dir); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("open with pre-publish crash: err = %v", err)
	}
	// The crash window's on-disk state: v2 META authoritative, the staged
	// v3 header confined to the staging directory, log untouched.
	if _, version, err := readMeta(dir); err != nil || version != 2 {
		t.Fatalf("META after pre-publish crash: version %d, %v; want untouched v2", version, err)
	}
	if _, err := os.Stat(filepath.Join(dir, migrateTmpName, metaFile)); err != nil {
		t.Fatalf("staged META missing after pre-publish crash: %v", err)
	}
	if !bytes.Equal(segBytes(t, dir), logBefore) {
		t.Fatal("log bytes changed before the migration committed")
	}

	hookBeforeMigratePublish = nil
	st := openDurable(t, dir)
	if got := st.Len(); got != len(ids)-1 { // one was deregistered
		t.Fatalf("migrated Len = %d, want %d", got, len(ids)-1)
	}
	reg, err := st.Lookup(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if lv, err := reg.policy.LevelFor("alice"); err != nil || lv != 1 {
		t.Errorf("trust lost across crashed migration: LevelFor(alice) = %d, %v", lv, err)
	}
	if _, err := st.Lookup(ids[len(ids)-1]); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("deregistered id resurrected by migration retry: %v", err)
	}
	if _, version, err := readMeta(dir); err != nil || version != storeMetaVersion {
		t.Fatalf("META after completed migration: version %d, %v", version, err)
	}
	if _, err := os.Stat(filepath.Join(dir, migrateTmpName)); !os.IsNotExist(err) {
		t.Errorf("staging directory not cleaned after completed migration (stat err %v)", err)
	}
	if !bytes.Equal(segBytes(t, dir), logBefore) {
		t.Fatal("v2→v3 migration rewrote log bytes; it must be META-only")
	}
	id, err := st.Register(fakeRegistration(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := parseRegionID(id); n <= maxIssuedID(t, ids) {
		t.Errorf("migrated store reissued id %q (max issued %d)", id, maxIssuedID(t, ids))
	}
}

// TestMigrationV2CrashAfterPublish kills the process after the v2→v3
// commit rename but before the staging directory is swept. The directory
// is already version 3; the next open must take the current-version path,
// clean the leftovers, and expose the same state.
func TestMigrationV2CrashAfterPublish(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "v2")
	ids := makeV2Dir(t, dir, 2, 6)
	logBefore := segBytes(t, dir)

	hookAfterMigratePublish = func() error { return errSimulatedCrash }
	t.Cleanup(func() { hookAfterMigratePublish = nil })
	if _, err := OpenDurableStore(dir); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("open with post-publish crash: err = %v", err)
	}
	// The crash window's on-disk state: committed v3 META with the staging
	// directory still lying next to it.
	if _, version, err := readMeta(dir); err != nil || version != storeMetaVersion {
		t.Fatalf("META after post-publish crash: version %d, %v; want committed v3", version, err)
	}
	if _, err := os.Stat(filepath.Join(dir, migrateTmpName)); err != nil {
		t.Fatalf("staging dir already gone; the crash window was not reproduced: %v", err)
	}

	hookAfterMigratePublish = nil
	st := openDurable(t, dir)
	if got := st.Len(); got != len(ids)-1 {
		t.Fatalf("Len = %d after post-publish crash recovery, want %d", got, len(ids)-1)
	}
	if _, err := os.Stat(filepath.Join(dir, migrateTmpName)); !os.IsNotExist(err) {
		t.Errorf("staging directory not cleaned by current-version open (stat err %v)", err)
	}
	if !bytes.Equal(segBytes(t, dir), logBefore) {
		t.Fatal("v2→v3 migration rewrote log bytes; it must be META-only")
	}
	id, err := st.Register(fakeRegistration(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := parseRegionID(id); n <= maxIssuedID(t, ids) {
		t.Errorf("store reissued id %q after post-publish crash (max issued %d)", id, maxIssuedID(t, ids))
	}
}

// shardSnapSeqs returns each shard's snapshot-covered stream position.
func shardSnapSeqs(st *DurableStore) []uint64 {
	out := make([]uint64, len(st.shards))
	for i, sh := range st.shards {
		sh.mu.RLock()
		out[i] = sh.snapSeq
		sh.mu.RUnlock()
	}
	return out
}

// migrationConformanceTrial drives a randomized mutation log, lowers the
// store to a v1 layout through the archive interchange, and checks three
// properties of migration: (1) two byte-identical v1 copies migrate to
// identical visible state, watermarks and replication streams; (2) the
// migrated state equals the original store's digest; (3) a follower
// restored from the pre-migration archive keeps replicating from the
// migrated leader across the boundary with no stream gap.
func migrationConformanceTrial(t *testing.T, seed int64, shards int) {
	rng := rand.New(rand.NewSource(seed))
	clk := newFakeClock()

	dir := filepath.Join(t.TempDir(), "orig")
	st, err := OpenDurableStore(dir,
		WithDurableShards(shards),
		WithSnapshotEvery(7),
		WithGCInterval(0),
		WithClock(clk.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()

	var ids []string
	for i := 0; i < 20; i++ {
		reg := fakeRegistration(t, 1+rng.Intn(3))
		if rng.Intn(3) == 0 {
			reg.SetExpiry(clk.Now().Add(time.Duration(1+rng.Intn(60)) * time.Second))
		}
		id, err := st.Register(reg)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	requesters := []string{"alice", "bob", "carol"}
	for i := 0; i < 40; i++ {
		id := ids[rng.Intn(len(ids))]
		switch rng.Intn(6) {
		case 0, 1:
			if err := st.SetTrust(id, requesters[rng.Intn(len(requesters))], rng.Intn(2)); err != nil &&
				!errors.Is(err, ErrUnknownRegion) {
				t.Fatal(err)
			}
		case 2:
			if err := st.Deregister(id); err != nil && !errors.Is(err, ErrUnknownRegion) {
				t.Fatal(err)
			}
		case 3:
			clk.Advance(time.Duration(1+rng.Intn(15)) * time.Second)
		case 4:
			if _, err := st.SweepExpired(); err != nil {
				t.Fatal(err)
			}
		case 5:
			if _, err := st.Touch(id, time.Duration(1+rng.Intn(90))*time.Second); err != nil &&
				!errors.Is(err, ErrUnknownRegion) {
				t.Fatal(err)
			}
		}
	}
	if _, err := st.SweepExpired(); err != nil {
		t.Fatal(err)
	}

	want := digestStore(t, st, ids, nil, nil)
	wantLen := st.Len()
	wantWatermark := st.Watermark()

	// Lower to the v1 interchange layout: archive the live store, restore
	// three byte-identical v1 copies (two to migrate, one as a follower).
	var archive bytes.Buffer
	if _, err := st.WriteBackup(&archive); err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 3)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("v1copy-%d", i))
		if err := RestoreArchive(bytes.NewReader(archive.Bytes()), dirs[i]); err != nil {
			t.Fatal(err)
		}
		if _, version, err := readMeta(dirs[i]); err != nil || version != 1 {
			t.Fatalf("restored copy %d: version %d, %v; want v1 layout", i, version, err)
		}
	}

	sta := openDurable(t, dirs[0], WithClock(clk.Now), WithGCInterval(0))
	stb := openDurable(t, dirs[1], WithClock(clk.Now), WithGCInterval(0))

	// (2) migrated state == original state.
	requireSameState(t, fmt.Sprintf("migrate(k=%d)", shards),
		want, digestStore(t, sta, ids, nil, nil), wantLen, sta.Len())
	if !reflect.DeepEqual(sta.Watermark(), wantWatermark) {
		t.Fatalf("migrated watermark %v, want %v", sta.Watermark(), wantWatermark)
	}

	// (1) two identical v1 inputs migrate identically: same digests, same
	// watermarks, and byte-identical replication streams from the
	// snapshot boundary on.
	requireSameState(t, fmt.Sprintf("migrate-copy(k=%d)", shards),
		want, digestStore(t, stb, ids, nil, nil), wantLen, stb.Len())
	if !reflect.DeepEqual(sta.Watermark(), stb.Watermark()) {
		t.Fatalf("independently migrated watermarks diverged: %v vs %v", sta.Watermark(), stb.Watermark())
	}
	seqsA, seqsB := shardSnapSeqs(sta), shardSnapSeqs(stb)
	if !reflect.DeepEqual(seqsA, seqsB) {
		t.Fatalf("snapshot boundaries diverged: %v vs %v", seqsA, seqsB)
	}
	for i := 0; i < sta.ShardCount(); i++ {
		fa, _, err := sta.TailFrom(i, seqsA[i], 0)
		if err != nil {
			t.Fatalf("TailFrom(a, %d): %v", i, err)
		}
		fb, _, err := stb.TailFrom(i, seqsB[i], 0)
		if err != nil {
			t.Fatalf("TailFrom(b, %d): %v", i, err)
		}
		if !reflect.DeepEqual(fa, fb) {
			t.Fatalf("shard %d: replication streams diverged after migration", i)
		}
	}

	// (3) replication across the migration boundary: a follower restored
	// from the PRE-migration archive resumes from its watermark against
	// the migrated leader — the per-shard stream offsets must line up
	// exactly across the layout change.
	follower := openDurable(t, dirs[2], WithClock(clk.Now), WithGCInterval(0), WithReplica())
	for i := 0; i < 8; i++ {
		id, err := sta.Register(fakeRegistration(t, 1+rng.Intn(2)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := sta.SetTrust(id, requesters[rng.Intn(len(requesters))], 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sta.Deregister(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	from := follower.Watermark()
	for i := 0; i < sta.ShardCount(); i++ {
		frames, _, err := sta.TailFrom(i, from[i], 0)
		if err != nil {
			t.Fatalf("TailFrom(leader, %d, %d): %v", i, from[i], err)
		}
		for _, f := range frames {
			if _, err := follower.IngestFrame(f); err != nil {
				t.Fatalf("IngestFrame(%d/%d): %v", f.Shard, f.Seq, err)
			}
		}
	}
	if !reflect.DeepEqual(sta.Watermark(), follower.Watermark()) {
		t.Fatalf("watermarks diverged across migration boundary: leader %v, follower %v",
			sta.Watermark(), follower.Watermark())
	}
	requireSameState(t, fmt.Sprintf("replicate-across-migration(k=%d)", shards),
		digestStore(t, sta, ids, nil, nil), digestStore(t, follower, ids, nil, nil),
		sta.Len(), follower.Len())
}

// TestMigrationConformance runs the randomized migration property over
// one-shard and multi-shard layouts.
func TestMigrationConformance(t *testing.T) {
	for i, k := range []int{1, 4} {
		k := k
		seed := int64(4000*i + 23)
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			migrationConformanceTrial(t, seed, k)
		})
	}
}

// v1FixtureDumpLine mirrors the dump tool's per-registration JSON line
// (cmd/anonymizer dump), minus the reduction digests, which need the
// map the fixture's regions were cut from.
type v1FixtureDumpLine struct {
	ID      string         `json:"id"`
	Levels  int            `json:"levels"`
	Default int            `json:"default"`
	Grants  map[string]int `json:"grants"`
	Region  string         `json:"region_sha256"`
}

// verifyFixtureDump opens (and thereby migrates) a copy of the fixture
// at src and checks the migrated state against the golden dump lines.
func verifyFixtureDump(t *testing.T, src string, lines []v1FixtureDumpLine) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), filepath.Base(src))
	copyTree(t, src, dir)
	st := openDurable(t, dir)
	if st.Len() != len(lines) {
		t.Fatalf("migrated fixture Len = %d, golden dump has %d registrations", st.Len(), len(lines))
	}
	if _, version, err := readMeta(dir); err != nil || version != storeMetaVersion {
		t.Fatalf("fixture META after migration: version %d, %v", version, err)
	}
	for _, l := range lines {
		reg, err := st.Lookup(l.ID)
		if err != nil {
			t.Fatalf("Lookup(%q) in migrated fixture: %v", l.ID, err)
		}
		if reg.Levels() != l.Levels {
			t.Errorf("%s: levels %d, golden %d", l.ID, reg.Levels(), l.Levels)
		}
		if got := reg.policy.DefaultLevel(); got != l.Default {
			t.Errorf("%s: default level %d, golden %d", l.ID, got, l.Default)
		}
		grants := reg.policy.Grants()
		if len(grants) != len(l.Grants) {
			t.Errorf("%s: grants %v, golden %v", l.ID, grants, l.Grants)
		}
		for who, lv := range l.Grants {
			if grants[who] != lv {
				t.Errorf("%s: grant[%s] = %d, golden %d", l.ID, who, grants[who], lv)
			}
		}
		raw, err := json.Marshal(reg.Region())
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != l.Region {
			t.Errorf("%s: region digest %s, golden %s", l.ID, got, l.Region)
		}
	}
}

// loadFixtureDump parses a golden dump file into its per-registration
// lines.
func loadFixtureDump(t *testing.T, path string) []v1FixtureDumpLine {
	t.Helper()
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []v1FixtureDumpLine
	for _, raw := range bytes.Split(bytes.TrimSpace(golden), []byte("\n")) {
		var l v1FixtureDumpLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("golden dump line %q: %v", raw, err)
		}
		lines = append(lines, l)
	}
	return lines
}

// TestMigrateFixtureV2Store opens a checked-in version-2 data directory
// (unified log, stored-key records, pre-derived-keys META) and verifies
// the META-only v2→v3 migration against the golden dump captured when
// the fixture was created. scripts/e2e-backup.sh re-checks the full dump
// — including reduction digests — through the CLI.
func TestMigrateFixtureV2Store(t *testing.T) {
	src := filepath.Join("testdata", "v2store")
	if _, version, err := readMeta(src); err != nil || version != 2 {
		t.Fatalf("fixture META: version %d, %v; want pristine v2", version, err)
	}
	verifyFixtureDump(t, src, loadFixtureDump(t, filepath.Join("testdata", "v2store.dump")))
}

// TestMigrateFixtureV1Store opens a checked-in pre-refactor data
// directory (written by the per-shard-WAL engine) and verifies the
// migrated state against the golden dump captured when the fixture was
// created. This is the backstop against silent drift in the migration
// path itself: the fixture bytes never change, so neither may the state
// they migrate to. scripts/e2e-backup.sh re-checks the full dump —
// including reduction digests — through the CLI.
func TestMigrateFixtureV1Store(t *testing.T) {
	src := filepath.Join("testdata", "v1store")
	if _, version, err := readMeta(src); err != nil || version != 1 {
		t.Fatalf("fixture META: version %d, %v; want pristine v1", version, err)
	}
	verifyFixtureDump(t, src, loadFixtureDump(t, filepath.Join("testdata", "v1store.dump")))
}
