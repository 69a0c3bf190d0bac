package anonymizer

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestShardedStoreRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {-3, DefaultShards}, {1, 1}, {2, 2}, {3, 4},
		{5, 8}, {64, 64}, {65, 128},
	} {
		st := NewShardedStore(tc.in).(*DurableStore)
		if got := len(st.shards); got != tc.want {
			t.Errorf("NewShardedStore(%d) built %d shards, want %d", tc.in, got, tc.want)
		}
	}
}

func TestShardedStoreRegisterLookup(t *testing.T) {
	st := NewShardedStore(8)
	ids := make(map[string]*Registration)
	for i := 0; i < 100; i++ {
		reg := &Registration{}
		id, err := st.Register(reg)
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		if _, dup := ids[id]; dup {
			t.Fatalf("duplicate id %q", id)
		}
		ids[id] = reg
	}
	if st.Len() != 100 {
		t.Errorf("Len = %d, want 100", st.Len())
	}
	for id, want := range ids {
		got, err := st.Lookup(id)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", id, err)
		}
		if got != want {
			t.Errorf("Lookup(%q) returned a different registration", id)
		}
	}
}

func TestShardedStoreLookupErrors(t *testing.T) {
	st := NewShardedStore(4)
	if _, err := st.Lookup(""); !errors.Is(err, ErrBadOp) {
		t.Errorf("empty id err = %v, want ErrBadOp", err)
	}
	if _, err := st.Lookup("r999"); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("unknown id err = %v, want ErrUnknownRegion", err)
	}
}

// TestShardedStoreConcurrent hammers the store from many goroutines; run
// under -race this proves the striping is sound and IDs never collide.
func TestShardedStoreConcurrent(t *testing.T) {
	st := NewShardedStore(16)
	const goroutines, perG = 16, 200
	idCh := make(chan string, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg := &Registration{}
				id, err := st.Register(reg)
				if err != nil {
					panic(fmt.Sprintf("register: %v", err))
				}
				got, err := st.Lookup(id)
				if err != nil || got != reg {
					panic(fmt.Sprintf("lost registration %q: %v", id, err))
				}
				idCh <- id
			}
		}()
	}
	wg.Wait()
	close(idCh)
	seen := make(map[string]bool)
	for id := range idCh {
		if seen[id] {
			t.Fatalf("duplicate id %q across goroutines", id)
		}
		seen[id] = true
	}
	if st.Len() != goroutines*perG {
		t.Errorf("Len = %d, want %d", st.Len(), goroutines*perG)
	}
}

// TestMemoryStoreWritesNothing pins the memory-only mode's contract: it
// creates no file (run from an empty working directory, where a stray
// relative path would land), starts no goroutine until a registration
// can expire, and refuses every journal operation.
func TestMemoryStoreWritesNothing(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })

	clk := newFakeClock()
	st := NewShardedStore(4, WithGCInterval(time.Hour), WithClock(clk.Now)).(*DurableStore)
	sweeping := func() bool {
		st.gcMu.Lock()
		defer st.gcMu.Unlock()
		return st.gcStarted
	}
	before := runtime.NumGoroutine()
	id, err := st.Register(fakeRegistration(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetTrust(id, "x", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Touch(id, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SweepExpired(); err != nil {
		t.Fatal(err)
	}
	if sweeping() || runtime.NumGoroutine() > before {
		t.Fatalf("goroutines %d -> %d (sweeper %v) before any registration could expire",
			before, runtime.NumGoroutine(), sweeping())
	}
	reg := fakeRegistration(t, 1)
	reg.SetExpiry(clk.Now().Add(time.Minute))
	if _, err := st.Register(reg); err != nil {
		t.Fatal(err)
	}
	if !sweeping() {
		t.Fatal("an expiring registration did not start the sweeper")
	}

	// Every operation that reads or writes the journal refuses.
	if err := st.Snapshot(); !errors.Is(err, ErrBadOp) {
		t.Errorf("Snapshot: %v, want ErrBadOp", err)
	}
	if err := st.Sync(); !errors.Is(err, ErrBadOp) {
		t.Errorf("Sync: %v, want ErrBadOp", err)
	}
	if _, err := st.WriteBackup(io.Discard); !errors.Is(err, ErrBadOp) {
		t.Errorf("WriteBackup: %v, want ErrBadOp", err)
	}
	if _, _, err := st.WriteIncrementalBackup(io.Discard, make(Watermark, 4)); !errors.Is(err, ErrBadOp) {
		t.Errorf("WriteIncrementalBackup: %v, want ErrBadOp", err)
	}
	if _, _, err := st.TailFrom(0, 0, 0); !errors.Is(err, ErrBadOp) {
		t.Errorf("TailFrom: %v, want ErrBadOp", err)
	}
	if _, err := st.IngestFrame(StreamFrame{}); !errors.Is(err, ErrBadOp) {
		t.Errorf("IngestFrame: %v, want ErrBadOp", err)
	}
	if err := st.SetEpoch(2, true); !errors.Is(err, ErrBadOp) {
		t.Errorf("SetEpoch: %v, want ErrBadOp", err)
	}
	if ws := st.WALStats(); ws != (WALStats{}) {
		t.Errorf("WALStats = %+v, want zero", ws)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("memory-only store created %s", e.Name())
	}
}
